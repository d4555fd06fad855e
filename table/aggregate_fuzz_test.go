package table

import (
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzAggSpecs are the aggregates FuzzAggregate compares: the count,
// an integer sum that wraps, a float sum and mean over NaN, -0 and
// ±Inf, the extrema of both numeric columns and of a string column.
var fuzzAggSpecs = []AggSpec{
	CountAll(), Sum("w"), Avg("w"), Sum("v"), Avg("v"),
	Min("v"), Max("v"), Min("w"), Max("w"), Min("s"), Max("s"),
}

// fuzzAggFloat maps a byte to NaN, -0, +Inf and -Inf for 0–3, and to a
// multiple of 1/4 in [-32, 32) otherwise — so float sums are exact in
// any order until they meet NaN or an infinity.
func fuzzAggFloat(b byte) float64 {
	switch b {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	}
	return float64(int8(b)) / 4
}

// FuzzAggregate holds the three ways to aggregate the same rows to a
// row-by-row reference (aggRef) and so to one another: the unlimited
// Aggregate (summary, wholesale and scanned tiers), Limit(n) with n at
// least the row count (the id stream folded mask by mask), and GroupBy
// on a constant key (the grouped fold). Every input runs at Shards 1
// and at Shards 2 with serial commits, which assign the same ids.
//
// Each row takes two bytes a and b of data: t advances by a>>6 (runs of
// equal values and gaps, so a t band gives exact spans between ragged
// edges), v is fuzzAggFloat(b), w = (a&63 − 32) << 57 wraps its sums,
// s is one of five symbols and k is the constant key; a row with
// a&63 = 63 is deleted. SegmentRows is 64 << (seg % 5). The last
// buffered rows stay in the delta store, across as many segment spans
// as they reach: the limited form folds them per span, the others as
// one unit per part, and min/max must not depend on where a fold starts
// (foldMin/foldMax skip NaN; ties keep the first value seen).
//
// Counts, integer sums and extrema must match the reference bit for
// bit; float sums too in the grouped and limited forms. The unlimited
// float sum adds an exact span's own sum to its total, so it need only
// be close. Any two NaNs count as the same value.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{64, 20, 64, 0, 64, 4, 0, 4, 128, 1, 127, 2, 64, 3, 192, 9}, uint8(0), int16(1), int16(9), uint16(3))
	f.Add([]byte{}, uint8(0), int16(0), int16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, seg uint8, lo, hi int16, buffered uint16) {
		for _, shards := range []int{1, 2} {
			checkAggregateForms(t, data, 64<<(seg%5), shards, int64(lo), int64(hi), int(buffered))
		}
	})
}

func checkAggregateForms(t *testing.T, data []byte, segRows, shards int, lo, hi int64, buffered int) {
	n := min(len(data)/2, 4096)
	sealed := n - min(buffered, n)
	tv, v, w, k := make([]int64, n), make([]float64, n), make([]int64, n), make([]int64, n)
	s := make([]string, n)
	for i := range n {
		a, b := data[2*i], data[2*i+1]
		if i > 0 {
			tv[i] = tv[i-1] + int64(a>>6)
		}
		v[i] = fuzzAggFloat(b)
		w[i] = (int64(a&63) - 32) << 57
		s[i] = []string{"", "lisbon", "oslo", "porto", "rome"}[(a^b)%5]
	}
	tb := NewWithOptions("fuzzagg", TableOptions{SegmentRows: segRows, Shards: shards})
	defer tb.Close()
	for _, err := range []error{
		AddColumn(tb, "t", tv[:sealed], Imprints, core.Options{Seed: 1}),
		AddColumn(tb, "v", v[:sealed], Imprints, core.Options{Seed: 2}),
		AddColumn(tb, "w", w[:sealed], NoIndex, core.Options{}),
		AddColumn(tb, "k", k[:sealed], NoIndex, core.Options{}),
		tb.AddStringColumn("s", s[:sealed], Imprints, core.Options{Seed: 3}),
		tb.EnableDeltaIngest(IngestOptions{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if sealed < n {
		bt := tb.NewBatch()
		for _, err := range []error{
			Append(bt, "t", tv[sealed:]), Append(bt, "v", v[sealed:]), Append(bt, "w", w[sealed:]),
			Append(bt, "k", k[sealed:]), bt.AppendStrings("s", s[sealed:]), bt.Commit(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var ref aggRef
	for i := range n {
		if data[2*i]&63 == 63 {
			if err := tb.Delete(i); err != nil {
				t.Fatal(err)
			}
		} else if tv[i] >= lo && tv[i] < hi {
			ref.add(v[i], w[i], s[i])
		}
	}
	want := ref.values()

	pred := Range[int64]("t", lo, hi)
	grouped, _, err := tb.Select().Where(pred).GroupBy("k").Aggregate(fuzzAggSpecs...)
	if err != nil {
		t.Fatal(err)
	}
	limited, _, err := tb.Select().Where(pred).Limit(n).Aggregate(fuzzAggSpecs...)
	if err != nil {
		t.Fatal(err)
	}
	if limited.Rows != ref.rows {
		t.Fatalf("shards %d: limited %d rows, reference %d", shards, limited.Rows, ref.rows)
	}
	checkAggValues(t, "limited", limited.Values(), want, false)
	if len(grouped.Groups) > 0 {
		g := grouped.Groups[0]
		if len(grouped.Groups) != 1 || g.Rows != ref.rows {
			t.Fatalf("shards %d: grouped: %d groups, first of %d rows; reference %d rows", shards, len(grouped.Groups), g.Rows, ref.rows)
		}
		checkAggValues(t, "grouped", g.Aggs, want, false)
	} else if ref.rows != 0 {
		t.Fatalf("shards %d: grouped: no group; reference %d rows", shards, ref.rows)
	}
	for _, par := range []int{1, 3} {
		unlimited, _, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: par}).Aggregate(fuzzAggSpecs...)
		if err != nil {
			t.Fatal(err)
		}
		if unlimited.Rows != ref.rows {
			t.Fatalf("shards %d, parallelism %d: unlimited %d rows, reference %d", shards, par, unlimited.Rows, ref.rows)
		}
		checkAggValues(t, "unlimited", unlimited.Values(), want, true)
	}
}

// aggRef folds fuzzAggSpecs row by row over the qualifying rows in id
// order: integer sums wrap, float sums add in order, and min/max follow
// foldMin/foldMax from the first row on.
type aggRef struct {
	rows       uint64
	sumW       int64
	sumV       float64
	minV, maxV float64
	minW, maxW int64
	minS, maxS string
}

func (r *aggRef) add(v float64, w int64, s string) {
	if r.rows == 0 {
		r.minV, r.maxV, r.minW, r.maxW, r.minS, r.maxS = v, v, w, w, s, s
	}
	r.rows++
	r.sumW += w
	r.sumV += v
	r.minV, r.maxV = foldMin(r.minV, v), foldMax(r.maxV, v)
	r.minW, r.maxW = min(r.minW, w), max(r.maxW, w)
	r.minS, r.maxS = min(r.minS, s), max(r.maxS, s)
}

// values renders the reference as fuzzAggSpecs' AggValues.
func (r *aggRef) values() []AggValue {
	ints := func(i int64) aggPartial { return numPartial(true, r.rows, i, 0) }
	floats := func(f float64) aggPartial { return numPartial(false, r.rows, 0, f) }
	strs := func(s string) aggPartial { return aggPartial{rows: r.rows, kind: partStr, s: s} }
	parts := []aggPartial{
		{rows: r.rows}, ints(r.sumW), ints(r.sumW), floats(r.sumV), floats(r.sumV),
		floats(r.minV), floats(r.maxV), ints(r.minW), ints(r.maxW), strs(r.minS), strs(r.maxS),
	}
	out := make([]AggValue, len(parts))
	for i, p := range parts {
		out[i] = p.value(fuzzAggSpecs[i])
	}
	return out
}

// checkAggValues compares got with want spec by spec: float sums and
// means within closeF when closeSums is set, everything else bit for
// bit.
func checkAggValues(t *testing.T, form string, got, want []AggValue, closeSums bool) {
	t.Helper()
	for i, g := range got {
		wv := want[i]
		same := sameFloat(g.Float, wv.Float)
		if closeSums && !g.IsInt && (g.Op == "sum" || g.Op == "avg") {
			same = same || closeF(g.Float, wv.Float)
		}
		if !same || g.Valid != wv.Valid || g.Int != wv.Int || g.IsInt != wv.IsInt || g.Str != wv.Str || g.IsStr != wv.IsStr {
			t.Fatalf("%s: %v, want %v", form, g, wv)
		}
	}
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}
