package harness

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/dataset"
)

// Experiment is one regenerated table or figure: structured rows for
// machine consumption (CSV export, tests) plus a text rendering for the
// CLI. Free-form experiments (Figure 3's prints) carry only Text.
// Elapsed is the wall time Run spent on it, the shared measurement pass
// included for the first figure that reads it.
type Experiment struct {
	ID      string
	Title   string
	Header  []string
	Rows    [][]string
	Text    string
	Elapsed time.Duration
}

// experiment is one registry entry. own builds its own data from the
// Config; a figure instead reads the dataset columns, measured once per
// Run however many figures ask.
type experiment struct {
	id     string
	own    func(Config) *Experiment
	figure func([]*ColumnRun) *Experiment
}

// experiments is the registry, in paper order.
var experiments = []experiment{
	{id: "table1", own: Table1},
	{id: "fig3", own: Fig3},
	{id: "fig4", figure: Fig4},
	{id: "fig5", figure: Fig5},
	{id: "fig6", figure: Fig6},
	{id: "fig7", figure: Fig7},
	{id: "fig8", figure: Fig8},
	{id: "fig9", figure: Fig9},
	{id: "fig10", figure: Fig10},
	{id: "fig11", figure: Fig11},
	{id: "shards", own: ShardsExp},
	{id: "ingest-recover", own: IngestRecoverExp},
}

// IDs lists all experiment identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes the experiments named by ids in the order given and
// hands each to emit as it completes. Every id is checked before
// anything runs. Figures 4–11 share one MeasureAll(cfg, true) pass,
// made when the first of them runs: the size figures read only build
// fields, which the query workload leaves alone.
func Run(cfg Config, ids []string, emit func(*Experiment)) error {
	todo := make([]experiment, len(ids))
	for i, id := range ids {
		j := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if j < 0 {
			return fmt.Errorf("harness: unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ", "))
		}
		todo[i] = experiments[j]
	}
	cols := sync.OnceValue(func() []*ColumnRun { return MeasureAll(cfg, true) })
	for _, e := range todo {
		start := time.Now()
		var exp *Experiment
		if e.figure != nil {
			exp = e.figure(cols())
		} else {
			exp = e.own(cfg)
		}
		exp.Elapsed = time.Since(start)
		emit(exp)
	}
	return nil
}

func table(f func(w *tabwriter.Writer)) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	f(w)
	if err := w.Flush(); err != nil {
		// strings.Builder writes cannot fail, so a flush error here can
		// only be a tabwriter usage bug — surface it, don't render a
		// silently truncated table.
		panic(err)
	}
	return sb.String()
}

// renderRows renders a header and rows as an aligned text table.
func renderRows(header []string, rows [][]string) string {
	return table(func(w *tabwriter.Writer) {
		fmt.Fprintln(w, strings.Join(header, "\t"))
		for _, r := range rows {
			fmt.Fprintln(w, strings.Join(r, "\t"))
		}
	})
}

// tabular assembles an Experiment from structured rows.
func tabular(id, title string, header []string, rows [][]string) *Experiment {
	return &Experiment{
		ID:     id,
		Title:  title,
		Header: header,
		Rows:   rows,
		Text:   renderRows(header, rows),
	}
}

func mb(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// Table1 reproduces the dataset statistics table, side by side with the
// original paper values.
func Table1(cfg Config) *Experiment {
	header := []string{"dataset", "size", "cols", "value types", "max rows",
		"paper size", "paper cols", "paper rows"}
	var rows [][]string
	for _, ds := range dataset.All(dataset.Config{Scale: cfg.Scale, Seed: cfg.Seed}) {
		rows = append(rows, []string{
			ds.Name, mb(ds.SizeBytes()), d(len(ds.Columns)),
			strings.Join(ds.TypeNames(), " "), d(ds.Rows),
			ds.PaperSize, d(ds.PaperCols), ds.PaperRows,
		})
	}
	return tabular("table1", "Table 1: Dataset statistics", header, rows)
}

// Fig3 prints the imprint fingerprints and entropy of the representative
// column of each dataset.
func Fig3(cfg Config) *Experiment {
	const lines = 24
	var sb strings.Builder
	var rows [][]string
	for _, ds := range dataset.All(dataset.Config{Scale: cfg.Scale, Seed: cfg.Seed}) {
		c := ds.Column(ds.Representative)
		run := MeasureColumn(ds.Name, c, cfg, false, lines)
		fmt.Fprintf(&sb, "%s %s\nE = %f\n%s\n", ds.Name, ds.Representative, run.Entropy, run.FingerprintHead)
		rows = append(rows, []string{ds.Name, ds.Representative, f3(run.Entropy)})
	}
	return &Experiment{
		ID:     "fig3",
		Title:  "Figure 3: Imprint prints and column entropy",
		Header: []string{"dataset", "column", "entropy"},
		Rows:   rows,
		Text:   sb.String(),
	}
}

// Fig4 renders the cumulative distribution of column entropy.
func Fig4(runs []*ColumnRun) *Experiment {
	es := make([]float64, 0, len(runs))
	for _, r := range runs {
		es = append(es, r.Entropy)
	}
	sort.Float64s(es)
	header := []string{"entropy<=", "columns (cumulative)"}
	var rows [][]string
	for _, th := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		n := sort.SearchFloat64s(es, th+1e-12)
		rows = append(rows, []string{f2(th), d(n)})
	}
	return tabular("fig4", "Figure 4: Cumulative distribution of column entropy", header, rows)
}

// Fig5 renders index size and creation time per column, grouped by value
// width as in the paper's four panel columns.
func Fig5(runs []*ColumnRun) *Experiment {
	sorted := append([]*ColumnRun(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].WidthBytes != sorted[j].WidthBytes {
			return sorted[i].WidthBytes < sorted[j].WidthBytes
		}
		return sorted[i].ColBytes < sorted[j].ColBytes
	})
	header := []string{"width", "column", "col size", "imprints", "zonemap", "wah",
		"imp build", "zm build", "wah build"}
	var rows [][]string
	for _, r := range sorted {
		rows = append(rows, []string{
			d(r.WidthBytes), r.Dataset + "." + r.Column, mb(r.ColBytes),
			mb(r.Imprints.SizeBytes), mb(r.Zonemap.SizeBytes), mb(r.WAH.SizeBytes),
			r.Imprints.BuildTime.Round(10e3).String(),
			r.Zonemap.BuildTime.Round(10e3).String(),
			r.WAH.BuildTime.Round(10e3).String(),
		})
	}
	return tabular("fig5", "Figure 5: Index size and creation time by value width", header, rows)
}

// Fig6 renders index size as a percentage of column size, per column and
// summed per dataset.
func Fig6(runs []*ColumnRun) *Experiment {
	header := []string{"dataset", "column", "imprints%", "zonemap%", "wah%"}
	var rows [][]string
	for _, r := range runs {
		rows = append(rows, []string{
			r.Dataset, r.Column,
			f1(pct(r.Imprints.SizeBytes, r.ColBytes)),
			f1(pct(r.Zonemap.SizeBytes, r.ColBytes)),
			f1(pct(r.WAH.SizeBytes, r.ColBytes)),
		})
	}
	for _, ds := range datasetsOf(runs) {
		var imp, zm, wah, col int64
		for _, r := range runs {
			if r.Dataset != ds {
				continue
			}
			imp += r.Imprints.SizeBytes
			zm += r.Zonemap.SizeBytes
			wah += r.WAH.SizeBytes
			col += r.ColBytes
		}
		rows = append(rows, []string{
			ds, "(total)", f1(pct(imp, col)), f1(pct(zm, col)), f1(pct(wah, col)),
		})
	}
	return tabular("fig6", "Figure 6: Index size overhead % per dataset", header, rows)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func datasetsOf(runs []*ColumnRun) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range runs {
		if !seen[r.Dataset] {
			seen[r.Dataset] = true
			out = append(out, r.Dataset)
		}
	}
	return out
}

// Fig7 renders index size overhead against column entropy, the paper's
// key robustness result: imprints stay flat (<~12.5%) as entropy grows
// while WAH deteriorates.
func Fig7(runs []*ColumnRun) *Experiment {
	sorted := append([]*ColumnRun(nil), runs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Entropy < sorted[j].Entropy })
	header := []string{"entropy", "column", "imprints%", "wah%"}
	var rows [][]string
	for _, r := range sorted {
		rows = append(rows, []string{
			f3(r.Entropy), r.Dataset + "." + r.Column,
			f1(pct(r.Imprints.SizeBytes, r.ColBytes)),
			f1(pct(r.WAH.SizeBytes, r.ColBytes)),
		})
	}
	return tabular("fig7", "Figure 7: Index size overhead % over column entropy", header, rows)
}

// selectivityBucket maps an achieved selectivity to its decile step.
func selectivityBucket(s float64) int {
	b := int(s * 10)
	if b > 9 {
		b = 9
	}
	return b
}

func allQueries(runs []*ColumnRun) []QueryMeasurement {
	var qs []QueryMeasurement
	for _, r := range runs {
		qs = append(qs, r.Queries...)
	}
	return qs
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func bucketLabel(i int) string {
	return fmt.Sprintf("%.1f-%.1f", float64(i)/10, float64(i+1)/10)
}

// Fig8 renders query time against selectivity for all four evaluators.
func Fig8(runs []*ColumnRun) *Experiment {
	qs := allQueries(runs)
	type bucket struct{ scan, imp, zm, wah []float64 }
	buckets := make([]bucket, 10)
	for _, q := range qs {
		b := &buckets[selectivityBucket(q.Selectivity)]
		b.scan = append(b.scan, float64(q.ScanNs)/1e6)
		b.imp = append(b.imp, float64(q.ImpNs)/1e6)
		b.zm = append(b.zm, float64(q.ZmNs)/1e6)
		b.wah = append(b.wah, float64(q.WahNs)/1e6)
	}
	header := []string{"selectivity", "queries", "scan ms", "imprints ms", "zonemap ms", "wah ms"}
	var rows [][]string
	for i, b := range buckets {
		if len(b.scan) == 0 {
			continue
		}
		rows = append(rows, []string{
			bucketLabel(i), d(len(b.scan)),
			f4(median(b.scan)), f4(median(b.imp)), f4(median(b.zm)), f4(median(b.wah)),
		})
	}
	return tabular("fig8", "Figure 8: Query time for decreasing selectivity (median ms)", header, rows)
}

// Fig9 renders the cumulative distribution of query times.
func Fig9(runs []*ColumnRun) *Experiment {
	qs := allQueries(runs)
	thresholds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 1000}
	count := func(get func(QueryMeasurement) int64, th float64) int {
		n := 0
		for _, q := range qs {
			if float64(get(q))/1e6 <= th {
				n++
			}
		}
		return n
	}
	header := []string{"time<=ms", "scan", "imprints", "zonemap", "wah"}
	var rows [][]string
	for _, th := range thresholds {
		rows = append(rows, []string{
			fmt.Sprintf("%g", th),
			d(count(func(q QueryMeasurement) int64 { return q.ScanNs }, th)),
			d(count(func(q QueryMeasurement) int64 { return q.ImpNs }, th)),
			d(count(func(q QueryMeasurement) int64 { return q.ZmNs }, th)),
			d(count(func(q QueryMeasurement) int64 { return q.WahNs }, th)),
		})
	}
	return tabular("fig9",
		fmt.Sprintf("Figure 9: Cumulative distribution of query times (%d queries)", len(qs)),
		header, rows)
}

// Fig10 renders the factor of improvement of imprints and WAH over the
// sequential scan and zonemap baselines.
func Fig10(runs []*ColumnRun) *Experiment {
	qs := allQueries(runs)
	type bucket struct{ scanImp, scanWah, zmImp, zmWah []float64 }
	buckets := make([]bucket, 10)
	for _, q := range qs {
		if q.ImpNs == 0 || q.WahNs == 0 {
			continue
		}
		b := &buckets[selectivityBucket(q.Selectivity)]
		b.scanImp = append(b.scanImp, float64(q.ScanNs)/float64(q.ImpNs))
		b.scanWah = append(b.scanWah, float64(q.ScanNs)/float64(q.WahNs))
		b.zmImp = append(b.zmImp, float64(q.ZmNs)/float64(q.ImpNs))
		b.zmWah = append(b.zmWah, float64(q.ZmNs)/float64(q.WahNs))
	}
	header := []string{"selectivity", "scan/imprints", "scan/wah", "zonemap/imprints", "zonemap/wah"}
	var rows [][]string
	for i, b := range buckets {
		if len(b.scanImp) == 0 {
			continue
		}
		rows = append(rows, []string{
			bucketLabel(i),
			f2(median(b.scanImp)), f2(median(b.scanWah)),
			f2(median(b.zmImp)), f2(median(b.zmWah)),
		})
	}
	return tabular("fig10", "Figure 10: Factor of improvement over scan and zonemap (median)", header, rows)
}

// Fig11 renders normalized index probes and value comparisons for the
// 0.4-0.5 selectivity band, bucketed by column entropy as in the paper.
func Fig11(runs []*ColumnRun) *Experiment {
	type acc struct {
		n                                int
		impP, impC, zmP, zmC, wahP, wahC float64
	}
	// Bucket by entropy in steps of 0.2.
	buckets := make([]acc, 5)
	for _, r := range runs {
		for _, q := range r.Queries {
			if q.Selectivity < 0.4 || q.Selectivity > 0.5 {
				continue
			}
			bi := int(r.Entropy / 0.2)
			if bi > 4 {
				bi = 4
			}
			b := &buckets[bi]
			rows := float64(q.Rows)
			b.n++
			b.impP += float64(q.ImpProbes) / rows
			b.impC += float64(q.ImpComparisons) / rows
			b.zmP += float64(q.ZmProbes) / rows
			b.zmC += float64(q.ZmComparisons) / rows
			b.wahP += float64(q.WahProbes) / rows
			b.wahC += float64(q.WahComparisons) / rows
		}
	}
	header := []string{"entropy", "queries", "imp probes", "zm probes", "wah probes",
		"imp cmps", "zm cmps", "wah cmps"}
	var rows [][]string
	for i, b := range buckets {
		if b.n == 0 {
			continue
		}
		n := float64(b.n)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f-%.1f", float64(i)*0.2, float64(i+1)*0.2), d(b.n),
			f4(b.impP / n), f4(b.zmP / n), f4(b.wahP / n),
			f4(b.impC / n), f4(b.zmC / n), f4(b.wahC / n),
		})
	}
	return tabular("fig11",
		"Figure 11: Normalized index probes and comparisons (selectivity 0.4-0.5)",
		header, rows)
}
