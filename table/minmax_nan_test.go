package table

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// minMaxForms commits sealed as the table's rows (SegmentRows segRows),
// buffers the rest after EnableDeltaIngest, and returns min(v) and
// max(v) as answered by the unlimited Aggregate, Limit(1000) and GroupBy
// on a constant key, by form name.
func minMaxForms(t *testing.T, segRows int, sealed, buffered []float64) map[string][2]float64 {
	t.Helper()
	tb := NewWithOptions("minmax", TableOptions{SegmentRows: segRows})
	defer tb.Close()
	for _, err := range []error{
		AddColumn(tb, "v", sealed, NoIndex, core.Options{}),
		AddColumn(tb, "k", make([]int64, len(sealed)), NoIndex, core.Options{}),
		tb.EnableDeltaIngest(IngestOptions{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	bt := tb.NewBatch()
	for _, err := range []error{
		Append(bt, "v", buffered), Append(bt, "k", make([]int64, len(buffered))), bt.Commit(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	specs := []AggSpec{Min("v"), Max("v")}
	out := map[string][2]float64{}
	res, _, err := tb.Select().Aggregate(specs...)
	if err != nil {
		t.Fatal(err)
	}
	out["unlimited"] = [2]float64{res.Float(0), res.Float(1)}
	if res, _, err = tb.Select().Limit(1000).Aggregate(specs...); err != nil {
		t.Fatal(err)
	}
	out["limited"] = [2]float64{res.Float(0), res.Float(1)}
	grouped, _, err := tb.Select().GroupBy("k").Aggregate(specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(grouped.Groups) != 1 {
		t.Fatalf("%d groups, want 1", len(grouped.Groups))
	}
	g := grouped.Groups[0].Aggs
	out["grouped"] = [2]float64{g[0].Float, g[1].Float}
	return out
}

func checkMinMaxForms(t *testing.T, got map[string][2]float64, lo, hi float64) {
	t.Helper()
	for form, mm := range got {
		if math.Float64bits(mm[0]) != math.Float64bits(lo) || math.Float64bits(mm[1]) != math.Float64bits(hi) {
			t.Errorf("%s: min, max = %v, %v; want %v, %v", form, mm[0], mm[1], lo, hi)
		}
	}
}

// TestSegmentSummarySkipsNaN: a commit that opens with NaN extends a
// sealed segment's summary. The summary tier answers min/max from it,
// so it must skip the NaN as every fold does.
func TestSegmentSummarySkipsNaN(t *testing.T) {
	tb := New("summary")
	defer tb.Close()
	if err := AddColumn(tb, "v", []float64{5, 5, 5, 5}, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	bt := tb.NewBatch()
	if err := Append(bt, "v", []float64{math.NaN(), 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{-1, 1000} {
		q := tb.Select()
		if limit >= 0 {
			q = q.Limit(limit)
		}
		res, st, err := q.Aggregate(Min("v"), Max("v"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Float(0) != 1 || res.Float(1) != 5 {
			t.Errorf("limit %d: min, max = %v, %v; want 1, 5 (SummaryAggRows %d)",
				limit, res.Float(0), res.Float(1), st.SummaryAggRows)
		}
	}
}

// TestPartialMergeSkipsNaN: the limited aggregate folds buffered rows
// once per segment span and merges the spans' partials, the unlimited
// one folds them as one unit. A span that opens with NaN must merge to
// the same answer: NaN is skipped wherever a unit boundary falls.
func TestPartialMergeSkipsNaN(t *testing.T) {
	buffered := make([]float64, 96) // ids 4..99
	for i := range buffered {
		buffered[i] = 3
	}
	buffered[64-4] = math.NaN()
	buffered[65-4] = 1
	got := minMaxForms(t, 64, []float64{5, 5, 5, 5}, buffered)
	checkMinMaxForms(t, got, 1, 5)
}

// TestMinMaxNaNOnlyWhenAllNaN: min/max answer NaN only when every
// folded row is NaN, and −0 orders below +0 whichever is seen first.
func TestMinMaxNaNOnlyWhenAllNaN(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	got := minMaxForms(t, 64, []float64{nan, nan}, []float64{nan, nan, nan})
	for form, mm := range got {
		if !math.IsNaN(mm[0]) || !math.IsNaN(mm[1]) {
			t.Errorf("all NaN, %s: min, max = %v, %v; want NaN, NaN", form, mm[0], mm[1])
		}
	}
	checkMinMaxForms(t, minMaxForms(t, 64, []float64{nan, 0, 2}, []float64{negZero, nan, 2}), negZero, 2)
	checkMinMaxForms(t, minMaxForms(t, 64, []float64{negZero, nan}, []float64{0}), negZero, 0)
}

// TestSignedZeroMinMaxIndependentOfMergeOrder: −0 orders below +0, as
// Go's builtin min and max order them, so the answer does not depend on
// where units merge. At two shards each part folds its buffered rows as
// one unit, merged after the sealed segments and part by part, so +0
// (id 130, part 0) merges before −0 (id 70, part 1).
func TestSignedZeroMinMaxIndependentOfMergeOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, shards := range []int{1, 2} {
		tb := NewWithOptions("signedzero", TableOptions{SegmentRows: 64, Shards: shards})
		for _, err := range []error{
			AddColumn(tb, "v", []float64{}, NoIndex, core.Options{}),
			AddColumn(tb, "k", []int64{}, NoIndex, core.Options{}),
			tb.EnableDeltaIngest(IngestOptions{}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		for c := range 3 {
			v := make([]float64, 64)
			for i := range v {
				v[i] = 1
			}
			switch c {
			case 1:
				v[70-64] = negZero
			case 2:
				v[130-128] = 0
			}
			bt := tb.NewBatch()
			for _, err := range []error{Append(bt, "v", v), Append(bt, "k", make([]int64, 64)), bt.Commit()} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		specs := []AggSpec{Min("v"), Max("v")}
		got := map[string][2]float64{}
		for _, par := range []int{1, 3} {
			res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).Aggregate(specs...)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("unlimited parallelism %d", par)] = [2]float64{res.Float(0), res.Float(1)}
		}
		res, _, err := tb.Select().Limit(1000).Aggregate(specs...)
		if err != nil {
			t.Fatal(err)
		}
		got["limited"] = [2]float64{res.Float(0), res.Float(1)}
		grouped, _, err := tb.Select().GroupBy("k").Aggregate(specs...)
		if err != nil {
			t.Fatal(err)
		}
		g := grouped.Groups[0].Aggs
		got["grouped"] = [2]float64{g[0].Float, g[1].Float}
		for form, mm := range got {
			if math.Float64bits(mm[0]) != math.Float64bits(negZero) || mm[1] != 1 {
				t.Errorf("shards %d, %s: min, max = %v, %v; want -0, 1", shards, form, mm[0], mm[1])
			}
		}
		tb.Close()
	}
}

// TestImprintLeafSkipsNaNRows: a cacheline whose NaN is not its first
// value lies inside [0, 10) by its other values, but NaN satisfies no
// predicate, so the imprint leaf must check the cacheline rather than
// emit it whole. Every leaf must count the scan's 7 rows in 8.
func TestImprintLeafSkipsNaNRows(t *testing.T) {
	line := []float64{1, math.NaN(), 2, 3, 4, 5, 6, 7}
	var vals []float64
	for range 512 {
		vals = append(vals, line...)
	}
	const want = 512 * 7
	preds := map[string]Predicate{
		"[0, 10)": Range[float64]("v", 0, 10),
		">= 0":    AtLeast[float64]("v", 0),
		"< 10":    LessThan[float64]("v", 10),
	}
	tb := New("nan")
	if err := AddColumn(tb, "v", vals, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for name, p := range preds {
		n, _, err := tb.Select().Where(p).Count()
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := tb.Select().Where(p).IDs()
		if err != nil {
			t.Fatal(err)
		}
		if n != want || len(ids) != want {
			t.Errorf("%s: Count %d, IDs %d; want %d", name, n, len(ids), want)
		}
		for _, id := range ids {
			if math.IsNaN(vals[id]) {
				t.Fatalf("%s: NaN row %d matched", name, id)
			}
		}
	}
}
