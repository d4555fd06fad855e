package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
)

// accessPathTable builds three 64K-row segments of the serving
// benchmark's five column shapes (bench/gen.go, PCG-seeded like it):
// near-sorted int64 ts, uniform int64 qty, a reflected random-walk
// float64 price, a skewed five-valued uint8 pri, and strings arriving in
// regional runs.
func accessPathTable(t *testing.T) (*Table, []float64) {
	t.Helper()
	const n = 3 * DefaultSegmentRows
	ts, qty, price := make([]int64, n), make([]int64, n), make([]float64, n)
	pri, city := make([]uint8, n), make([]string, n)
	rng := rand.New(rand.NewPCG(22, 1))
	for i := range ts {
		ts[i] = int64(i)*10 + rng.Int64N(1000)
	}
	rng = rand.New(rand.NewPCG(22, 2))
	for i := range qty {
		qty[i] = rng.Int64N(1_000_000)
	}
	rng = rand.New(rand.NewPCG(22, 3))
	p := 500.0
	for i := range price {
		p += (rng.Float64() - 0.5) * 4
		if p < 1 {
			p = 2 - p
		}
		if p > 1000 {
			p = 2000 - p
		}
		price[i] = math.Round(p*100) / 100
	}
	rng = rand.New(rand.NewPCG(22, 4))
	for i := range pri {
		switch r := rng.IntN(100); {
		case r < 50:
			pri[i] = 0
		case r < 75:
			pri[i] = 1
		case r < 90:
			pri[i] = 2
		case r < 97:
			pri[i] = 3
		default:
			pri[i] = 4
		}
	}
	regions := []string{"af", "an", "as", "eu", "me", "na", "oc", "sa"}
	rng = rand.New(rand.NewPCG(22, 5))
	for i := 0; i < n; {
		region := regions[rng.IntN(len(regions))]
		for end := min(n, i+2048+rng.IntN(14336)); i < end; i++ {
			city[i] = fmt.Sprintf("%s-%d", region, rng.IntN(8))
		}
	}
	tb := New("orders")
	for _, err := range []error{
		AddColumn(tb, "ts", ts, Imprints, core.Options{Seed: 1}),
		AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 2}),
		AddColumn(tb, "price", price, Imprints, core.Options{Seed: 3}),
		AddColumn(tb, "pri", pri, Imprints, core.Options{Seed: 4}),
		tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 5}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sorted := slices.Clone(price)
	slices.Sort(sorted)
	return tb, sorted
}

// TestAccessPathDecisionTable pins the two-stage access-path choice per
// segment on the shapes the serving benchmark serves. The histogram
// stage alone (the rule before the imprint sample) probed every row of
// this table; the sample sends exactly the scattered, multi-bin
// predicates to the scan — uniform qty from a few percent up — and
// nothing else: a point or a narrow band on uniform data still skips a
// third of its blocks, clustered columns skip or prove most of theirs
// at any width, and a column whose imprint compresses (pri: a handful
// of distinct vectors) is never talked out of its cheap probe.
func TestAccessPathDecisionTable(t *testing.T) {
	tb, prices := accessPathTable(t)
	quantile := func(q float64) float64 { return prices[int(q*float64(len(prices)-1))] }
	const rows = 3 * DefaultSegmentRows
	const probe, scan = "imprints", "scan (probe prunes nothing)"
	for _, c := range []struct {
		name string
		pred Predicate
		opts SelectOptions
		want string // every segment the summary does not prune
	}{
		{"ts point", Equals[int64]("ts", 1_000_000), SelectOptions{}, probe},
		{"ts 0.1% band", Range[int64]("ts", 700_000, 700_000+rows/100), SelectOptions{}, probe},
		{"ts 10%", Range[int64]("ts", 500_000, 500_000+rows), SelectOptions{}, probe},
		{"ts 40%", Range[int64]("ts", 100_000, 100_000+4*rows), SelectOptions{}, probe},

		{"qty point", Equals[int64]("qty", 123_456), SelectOptions{}, probe},
		{"qty 0.1% band", Range[int64]("qty", 500_000, 501_000), SelectOptions{}, probe},
		{"qty 10%", Range[int64]("qty", 450_000, 550_000), SelectOptions{}, scan},
		{"qty 40%", Range[int64]("qty", 300_000, 700_000), SelectOptions{}, scan},
		{"qty < 75%", LessThan[int64]("qty", 750_000), SelectOptions{}, scan},
		{"qty in 3 values", In[int64]("qty", 5, 400_000, 999_000), SelectOptions{}, probe},

		{"price point", Equals("price", quantile(0.5)), SelectOptions{}, probe},
		{"price 0.1% band", Range("price", quantile(0.5), quantile(0.501)), SelectOptions{}, probe},
		{"price 10%", Range("price", quantile(0.3), quantile(0.4)), SelectOptions{}, probe},
		{"price 40%", Range("price", quantile(0.2), quantile(0.6)), SelectOptions{}, probe},

		{"pri rare value (3%)", Equals[uint8]("pri", 4), SelectOptions{}, probe},
		{"pri common value (50%)", Equals[uint8]("pri", 0), SelectOptions{}, probe},
		{"pri 10%", AtLeast[uint8]("pri", 3), SelectOptions{}, probe},
		{"pri 40%", Range[uint8]("pri", 1, 3), SelectOptions{}, probe},

		{"city point", StrEquals("city", "eu-3"), SelectOptions{}, probe},
		{"city one region (~12%)", StrPrefix("city", "eu-"), SelectOptions{}, probe},
		{"city three regions (~40%)", StrRange("city", "af-0", "as-7"), SelectOptions{}, probe},
		{"city in 2 values", StrIn("city", "na-1", "sa-6"), SelectOptions{}, probe},

		// The one threshold rules both stages: above 1 nothing can cross it
		// (and nothing is sampled), and a tiny one already stops at the
		// histogram's estimate.
		{"qty 10%, always probe", Range[int64]("qty", 450_000, 550_000), SelectOptions{ScanThreshold: 2}, probe},
		{"qty 40%, always probe", Range[int64]("qty", 300_000, 700_000), SelectOptions{ScanThreshold: 2}, probe},
		{"ts 10%, threshold 0.001", Range[int64]("ts", 500_000, 500_000+rows), SelectOptions{ScanThreshold: 0.001}, "scan (unselective)"},
		{"qty point, threshold 0.001", Equals[int64]("qty", 123_456), SelectOptions{ScanThreshold: 0.001}, "scan (unselective)"},
	} {
		plan, err := tb.Select().Where(c.pred).Options(c.opts).Explain()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		probed := 0
		for _, sp := range plan.Root.SegmentDetails {
			got := sp.Access
			if sp.Reason != "" {
				got += " (" + sp.Reason + ")"
			}
			if sp.Access == "pruned" {
				continue
			}
			probed++
			if got != c.want {
				t.Errorf("%s, segment %d: %s est=%.3f res=%.2f, want %s", c.name, sp.Segment, got, sp.Selectivity, sp.Residual, c.want)
			}
			if sampled := sp.Residual >= 0; sampled != (c.opts.ScanThreshold == 0) {
				t.Errorf("%s, segment %d: residual %.2f — sampled = %v under ScanThreshold %v", c.name, sp.Segment, sp.Residual, sampled, c.opts.ScanThreshold)
			}
		}
		if probed == 0 {
			t.Errorf("%s: every segment pruned; the predicate misses the data", c.name)
		}
	}
}

// TestInListDuplicatesCountOnce pins that an IN-list is estimated by its
// members, not its entries: 61 copies of one value estimate what the
// value's equality does on every segment — one bin's share, where
// counting copies made it 61 bins' and sent the leaf to
// "scan (unselective)" — take the same access path, and select the
// same rows, on a numeric column and on a string column.
func TestInListDuplicatesCountOnce(t *testing.T) {
	tb, _ := accessPathTable(t)
	for _, c := range []struct {
		name   string
		in, eq Predicate
	}{
		{"qty", In("qty", slices.Repeat([]int64{123_456}, 61)...), Equals[int64]("qty", 123_456)},
		{"city", StrIn("city", slices.Repeat([]string{"eu-3"}, 61)...), StrEquals("city", "eu-3")},
	} {
		in, err := tb.Select().Where(c.in).Explain()
		if err != nil {
			t.Fatal(err)
		}
		eq, err := tb.Select().Where(c.eq).Explain()
		if err != nil {
			t.Fatal(err)
		}
		probed := 0
		for s, sp := range in.Root.SegmentDetails {
			want := eq.Root.SegmentDetails[s]
			if sp.Access != want.Access || sp.Reason != want.Reason || sp.Selectivity != want.Selectivity {
				t.Errorf("%s in 61 copies, segment %d: %s (%s) est=%.3f; equality: %s (%s) est=%.3f",
					c.name, s, sp.Access, sp.Reason, sp.Selectivity, want.Access, want.Reason, want.Selectivity)
			}
			if sp.Access == "imprints" {
				probed++
			}
		}
		if probed == 0 {
			t.Errorf("%s: no segment probed; the case proves nothing", c.name)
		}
		got, _, err := tb.Select().Where(c.in).IDs()
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, _, err := tb.Select().Where(c.eq).IDs()
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, wantIDs, c.name+" in-list vs equality")
	}
}

// TestAccessPathSampleKeepsAnswers pins that the choice is invisible in
// results: a statement whose segments the sample sends to the scan
// returns what the always-probe plan returns, and reports no probe.
func TestAccessPathSampleKeepsAnswers(t *testing.T) {
	tb, _ := accessPathTable(t)
	pred := And(Range[int64]("qty", 450_000, 550_000), StrPrefix("city", "eu-"))
	sampled, st, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	probed, stProbed, err := tb.Select().Where(pred).Options(SelectOptions{ScanThreshold: 2}).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, sampled, probed, "sampled access path vs always-probe")
	if len(sampled) == 0 {
		t.Fatal("selection matched no rows")
	}
	if st.Probes >= stProbed.Probes {
		t.Errorf("sampled plan spent %d probes, always-probe %d: the qty leaf should have scanned", st.Probes, stProbed.Probes)
	}
}
