package harness

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/column"
)

func testCfg() Config {
	return Config{Scale: 0.02, Seed: 5, QueriesPerSelectivity: 1}
}

func TestMeasureColumnBasics(t *testing.T) {
	c := column.New("t.x", []int64{5, 9, 1, 7, 3, 8, 2, 6, 4, 0, 11, 12})
	run := MeasureColumn("Test", c, testCfg(), true, 4)
	if run.Dataset != "Test" || run.Column != "t.x" {
		t.Errorf("identity wrong: %+v", run)
	}
	if run.WidthBytes != 8 || run.Rows != 12 || run.ColBytes != 96 {
		t.Errorf("geometry wrong: %+v", run)
	}
	if run.Imprints.SizeBytes <= 0 || run.Zonemap.SizeBytes <= 0 || run.WAH.SizeBytes <= 0 {
		t.Error("index sizes missing")
	}
	if run.Entropy < 0 || run.Entropy > 1 {
		t.Errorf("entropy %v", run.Entropy)
	}
	if len(run.Queries) != 10 { // 10 selectivities x 1 query
		t.Errorf("got %d query measurements", len(run.Queries))
	}
	if run.FingerprintHead == "" {
		t.Error("fingerprint missing")
	}
	for _, q := range run.Queries {
		if q.Selectivity < 0 || q.Selectivity > 1 {
			t.Errorf("selectivity %v", q.Selectivity)
		}
	}
}

func TestMeasureAllCoversDatasets(t *testing.T) {
	runs := MeasureAll(testCfg(), false)
	ds := map[string]int{}
	for _, r := range runs {
		ds[r.Dataset]++
	}
	for _, want := range []string{"Routing", "SDSS", "Cnet", "Airtraffic", "TPC-H"} {
		if ds[want] == 0 {
			t.Errorf("no runs for %s", want)
		}
	}
}

func TestMaxColumnsPerDataset(t *testing.T) {
	cfg := testCfg()
	cfg.MaxColumnsPerDataset = 2
	runs := MeasureAll(cfg, false)
	ds := map[string]int{}
	for _, r := range runs {
		ds[r.Dataset]++
	}
	for name, n := range ds {
		if n > 2 {
			t.Errorf("%s measured %d columns, cap was 2", name, n)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	ran := 0
	err := Run(testCfg(), []string{"table1", "fig99"}, func(*Experiment) { ran++ })
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if ran != 0 {
		t.Errorf("%d experiments ran before the unknown id was refused", ran)
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	cfg := testCfg()
	cfg.MaxColumnsPerDataset = 3
	want := []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "shards", "ingest-recover"}
	if !slices.Equal(IDs(), want) {
		t.Fatalf("IDs() = %v, want %v", IDs(), want)
	}
	var got []string
	err := Run(cfg, IDs(), func(exp *Experiment) {
		got = append(got, exp.ID)
		id := exp.ID
		if exp.Title == "" || len(exp.Text) == 0 {
			t.Errorf("%s: empty output", id)
		}
		if strings.Count(exp.Text, "\n") < 2 {
			t.Errorf("%s: suspiciously short output:\n%s", id, exp.Text)
		}
		// Structured rows are populated and rectangular.
		if len(exp.Header) == 0 || len(exp.Rows) == 0 {
			t.Errorf("%s: no structured rows", id)
			return
		}
		for i, row := range exp.Rows {
			if len(row) != len(exp.Header) {
				t.Errorf("%s: row %d has %d cells, header has %d",
					id, i, len(row), len(exp.Header))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Run emitted %v, want %v", got, want)
	}
}

func TestTable1MentionsAllDatasetsAndPaperStats(t *testing.T) {
	exp := Table1(testCfg())
	for _, want := range []string{"Routing", "SDSS", "Cnet", "Airtraffic", "TPC-H",
		"5.4G", "240M", "4008", "168G"} {
		if !strings.Contains(exp.Text, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, exp.Text)
		}
	}
}

func TestFig3ShowsFingerprints(t *testing.T) {
	exp := Fig3(testCfg())
	if !strings.Contains(exp.Text, "E = ") {
		t.Error("Figure 3 missing entropy values")
	}
	if !strings.Contains(exp.Text, "x") || !strings.Contains(exp.Text, ".") {
		t.Error("Figure 3 missing imprint prints")
	}
	for _, col := range []string{"trips.lat", "photoprofile.profmean",
		"ontime.AirlineID", "cnet.attr18", "part.p_retailprice"} {
		if !strings.Contains(exp.Text, col) {
			t.Errorf("Figure 3 missing representative column %s", col)
		}
	}
}

func TestFig4CumulativeMonotone(t *testing.T) {
	runs := MeasureAll(testCfg(), false)
	exp := Fig4(runs)
	lines := strings.Split(strings.TrimSpace(exp.Text), "\n")
	prev := -1
	for _, ln := range lines[1:] {
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			continue
		}
		var n int
		if _, err := fmtSscan(fields[1], &n); err != nil {
			t.Fatalf("bad line %q", ln)
		}
		if n < prev {
			t.Fatalf("CDF not monotone at %q", ln)
		}
		prev = n
	}
	// The last threshold (1.0) must count every column.
	var total int
	if _, err := fmtSscan(strings.Fields(lines[len(lines)-1])[1], &total); err != nil {
		t.Fatal(err)
	}
	if total != len(runs) {
		t.Errorf("CDF totals %d, runs %d", total, len(runs))
	}
}

func TestFig7ImprintsRobustToEntropy(t *testing.T) {
	// The paper's headline size result at our scale: averaged over
	// high-entropy columns, imprints overhead stays far below WAH
	// overhead.
	cfg := Config{Scale: 0.1, Seed: 5}
	runs := MeasureAll(cfg, false)
	var impHi, wahHi, nHi float64
	for _, r := range runs {
		if r.Entropy >= 0.5 {
			impHi += pct(r.Imprints.SizeBytes, r.ColBytes)
			wahHi += pct(r.WAH.SizeBytes, r.ColBytes)
			nHi++
		}
	}
	if nHi == 0 {
		t.Fatal("no high-entropy columns measured")
	}
	impHi /= nHi
	wahHi /= nHi
	if impHi >= wahHi {
		t.Errorf("high-entropy: imprints %.1f%% not below WAH %.1f%%", impHi, wahHi)
	}
	if impHi > 25 {
		t.Errorf("high-entropy imprints overhead %.1f%% far above the paper's ~12%%", impHi)
	}
}

func TestFig8And10ShapesHold(t *testing.T) {
	// Shape assertions on the query experiments via the deterministic
	// work counters (wall clock at unit-test scale is noise; the paper
	// itself excludes columns below 1MB). On selective queries, the
	// imprint must do far fewer value comparisons than the scan's
	// one-per-row.
	cfg := Config{Scale: 0.08, Seed: 5, QueriesPerSelectivity: 2, MaxColumnsPerDataset: 3}
	runs := MeasureAll(cfg, true)
	qs := allQueries(runs)
	if len(qs) == 0 {
		t.Fatal("no queries measured")
	}
	var impLessWork, total int
	for _, q := range qs {
		if q.Selectivity <= 0.2 {
			total++
			if q.ImpComparisons+q.ImpProbes < uint64(q.Rows) {
				impLessWork++
			}
		}
	}
	if total == 0 {
		t.Fatal("no selective queries measured")
	}
	if float64(impLessWork)/float64(total) < 0.8 {
		t.Errorf("imprints did less work than scan on only %d/%d selective queries",
			impLessWork, total)
	}
}

func TestImprintsBeatScanWallClockOnLargeColumn(t *testing.T) {
	// One paper-scale column (8MB) where the wall-clock margin is far
	// beyond timer noise: a clustered int64 column with a ~1% query.
	if testing.Short() {
		t.Skip("large column test")
	}
	n := 1_000_000
	col := make([]int64, n)
	v := int64(1 << 30)
	seed := uint64(12345)
	for i := range col {
		// xorshift-style cheap deterministic walk
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		v += int64(seed%2001) - 1000
		col[i] = v
	}
	run := MeasureColumn("big", column.New("big.walk", col), Config{Seed: 1, QueriesPerSelectivity: 2}, true, 0)
	var impWins, total int
	for _, q := range run.Queries {
		if q.Selectivity <= 0.15 {
			total++
			if q.ImpNs < q.ScanNs {
				impWins++
			}
		}
	}
	if total == 0 {
		t.Fatal("no selective queries")
	}
	// Require a clear majority rather than a clean sweep: other test
	// packages may be running on the same cores and perturb individual
	// timings.
	if impWins*4 < total*3 {
		t.Errorf("imprints beat scan on only %d/%d selective queries over an 8MB column", impWins, total)
	}
}

func TestFig11ProbeRelations(t *testing.T) {
	// Zonemap probes are exactly one per zone; imprint probes never
	// exceed zonemap probes (compression can only reduce them); WAH
	// probes are the largest of all, per the paper.
	cfg := Config{Scale: 0.05, Seed: 5, QueriesPerSelectivity: 2, MaxColumnsPerDataset: 3}
	runs := MeasureAll(cfg, true)
	for _, r := range runs {
		for _, q := range r.Queries {
			if q.ImpProbes > q.ZmProbes+1 {
				t.Errorf("%s.%s: imprint probes %d exceed zonemap probes %d",
					r.Dataset, r.Column, q.ImpProbes, q.ZmProbes)
			}
		}
	}
}

// fmtSscan is a tiny wrapper so the test file does not import fmt for a
// single call site.
func fmtSscan(s string, v *int) (int, error) {
	n := 0
	neg := false
	for i, c := range s {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	*v = n
	return 1, nil
}

var errBadInt = errInvalid{}

type errInvalid struct{}

func (errInvalid) Error() string { return "invalid integer" }
