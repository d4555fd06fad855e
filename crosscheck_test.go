package imprints

// Integration tests: for every column of every synthetic dataset, and
// for a column of the floats order comparisons get wrong, all four
// evaluation strategies (scan, imprints, zonemap, WAH) must return
// identical results across the selectivity sweep. This is the
// end-to-end guarantee behind every figure of the evaluation.

import (
	"math"
	"testing"

	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/scan"
	"repro/internal/wah"
	"repro/internal/zonemap"
)

// crossCheck holds every evaluator to the scan over vals for each query;
// nil queries select the paper's selectivity sweep.
func crossCheck[V coltype.Value](t *testing.T, ds, name string, vals []V, queries []harness.Query[V]) {
	t.Helper()
	imp := Build(vals, Options{Seed: 99})
	zm := zonemap.Build(vals, zonemap.Options{})
	wb := wah.BuildWithHistogram(vals, imp.Histogram())
	tl := NewTwoLevel(imp, 16)
	if queries == nil {
		queries = harness.Ranges(vals, harness.DefaultSelectivities(), 1, 17)
	}

	res := make([]uint32, 0, len(vals))
	for _, q := range queries {
		want, _ := scan.RangeIDs(vals, q.Low, q.High, nil)

		got, _ := imp.RangeIDs(q.Low, q.High, res[:0])
		compareIDs(t, got, want, ds+"."+name+"/imprints")

		got, _ = zm.RangeIDs(q.Low, q.High, res[:0])
		compareIDs(t, got, want, ds+"."+name+"/zonemap")

		got, _ = wb.RangeIDs(q.Low, q.High, res[:0])
		compareIDs(t, got, want, ds+"."+name+"/wah")

		got, _ = tl.RangeIDs(q.Low, q.High, res[:0])
		compareIDs(t, got, want, ds+"."+name+"/twolevel")

		// Streaming iterator agrees and respects order.
		n := 0
		ok := true
		for id := range imp.Range(q.Low, q.High) {
			if n >= len(want) || id != want[n] {
				ok = false
				break
			}
			n++
		}
		if !ok || n != len(want) {
			t.Fatalf("%s.%s: iterator diverged from scan", ds, name)
		}

		// Counts agree too.
		cnt, _ := imp.CountRange(q.Low, q.High)
		if cnt != uint64(len(want)) {
			t.Fatalf("%s.%s: CountRange %d, scan %d", ds, name, cnt, len(want))
		}
	}
}

func compareIDs(t *testing.T, got, want []uint32, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids, scan found %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, scan says %d", ctx, i, got[i], want[i])
		}
	}
}

func TestAllEvaluatorsAgreeOnAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, ds := range dataset.All(dataset.Config{Scale: 0.04, Seed: 31}) {
		for _, c := range ds.Columns {
			switch col := c.(type) {
			case *column.Column[int8]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[int16]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[int32]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[int64]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[uint8]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[uint16]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[uint32]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[uint64]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[float32]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			case *column.Column[float64]:
				crossCheck(t, ds.Name, col.Name(), col.Values(), nil)
			default:
				t.Fatalf("unhandled column type %T", c)
			}
		}
	}
}

// TestAllEvaluatorsAgreeOnHostileFloats runs the cross-check over a
// float64 column of NaN, -0, +0 and ±Inf. A NaN that is not a zone's
// first value, inside a range that covers the rest of the zone, is where
// a min/max fold that skips NaN would call the zone exact and emit it.
func TestAllEvaluatorsAgreeOnHostileFloats(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	zones := [][]float64{
		{1, nan, 2, 3, 4, 5, 6, 7},
		{nan, 1, 2, 3, nan, 4, 5, 6},
		{negZero, 0, 1, 2, 3, 4, 5, 6},
		{-inf, 0, 1, 2, 3, 4, 5, inf},
		{nan, nan, nan, nan, nan, nan, nan, nan},
		{inf, 7, negZero, nan, -inf, 0, 9, 8},
	}
	var col []float64
	for range 64 {
		for _, z := range zones {
			col = append(col, z...)
		}
	}
	var queries []harness.Query[float64]
	for _, q := range [][2]float64{{0, 10}, {negZero, 7}, {1, 8}, {-inf, inf}, {-inf, 0}, {0, inf}, {negZero, 0}, {nan, 10}, {0, nan}} {
		queries = append(queries, harness.Query[float64]{Low: q[0], High: q[1]})
	}
	crossCheck(t, "hostile", "floats", col, queries)
}
