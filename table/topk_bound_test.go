package table

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
)

// Tests of the bounded top-k (topk.go): once the merge holds k rows,
// every later sealed unit is evaluated under the θ-leaf, so these hold
// the result to brute force wherever the bound could drop a row it
// must keep — ties with θ on either side of it in id order, NaN, ±Inf
// and −0, θ at the ends of its type, uint64 values past MaxInt64,
// strings only the delta has seen, deleted rows — and pin what the
// bound is for: a limited execution of a clustered order column
// evaluates a fraction of the blocks the full sort does.

// rankOracle is the brute-force ranking: ids by vals in the direction,
// NaN after every real value either way, ties by ascending id, cut to
// k (negative: no cut).
func rankOracle[V cmp.Ordered](vals []V, ids []uint32, desc bool, k int) []uint32 {
	out := slices.Clone(ids)
	slices.SortStableFunc(out, func(a, b uint32) int {
		va, vb := vals[a], vals[b]
		if aN, bN := va != va, vb != vb; aN || bN {
			switch {
			case aN && bN:
				return 0
			case aN:
				return 1
			}
			return -1
		}
		if desc {
			return cmp.Compare(vb, va)
		}
		return cmp.Compare(va, vb)
	})
	if k >= 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// boundModel is the oracle's copy of a topk bound table: per order
// column, the ranking of any id set; sel and the deleted rows select.
type boundModel struct {
	rank    map[string]func(ids []uint32, desc bool, k int) []uint32
	sel     []int64
	deleted []bool
}

// qualifying lists the live ids whose sel falls in [lo, hi) (every live
// id when lo > hi).
func (m *boundModel) qualifying(lo, hi int64) []uint32 {
	var ids []uint32
	for i, s := range m.sel {
		if !m.deleted[i] && (lo > hi || s >= lo && s < hi) {
			ids = append(ids, uint32(i))
		}
	}
	return ids
}

// boundTable builds the oracle's table: 12.4 segments of 128 rows over
// shards parts, each order column a shape the bound must survive. With
// buffered set the rows arrive through delta ingest in two waves: the
// first sealed everywhere, the second sealed on shard 0 only — so the
// other shards' buffered rows hold lower ids than shard 0's later
// sealed segments, which the merge consumes before them. Every 13th
// row is deleted.
func boundTable(t *testing.T, shards int, buffered bool) (*Table, *boundModel) {
	t.Helper()
	const segRows = 128
	n := segRows*12 + 50
	rng := rand.New(rand.NewPCG(28, uint64(shards)))
	sel := make([]int64, n)
	asc, desc, cnst, ext, top := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	walk, f32, iwalk := make([]float64, n), make([]float32, n), make([]int32, n)
	u, umax := make([]uint64, n), make([]uint64, n)
	strs := make([]string, n)
	edge := make([]int16, n)
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	w := 0.0
	for i := range n {
		sel[i] = rng.Int64N(100)
		asc[i], desc[i], cnst[i] = int64(i/5), int64((n-i)/5), 7
		ext[i] = extremes[rng.IntN(len(extremes))]
		top[i] = math.MaxInt64
		if i%97 == 3 {
			top[i] = int64(i)
		}
		w += float64(rng.IntN(5)-2) / 2 // steps of 0.5: ties everywhere
		switch walk[i] = w; {
		case i%41 == 7:
			walk[i] = math.NaN()
		case i%89 == 11:
			walk[i] = math.Inf(1)
		case i%83 == 13:
			walk[i] = math.Inf(-1)
		case w == 0 && i%2 == 1:
			walk[i] = math.Copysign(0, -1)
		}
		f32[i] = float32(walk[i])
		iwalk[i] = int32(w * 2)
		if i%2 == 0 {
			u[i] = math.MaxUint64 - rng.Uint64N(40)
		} else {
			u[i] = math.MaxInt64 + rng.Uint64N(3)
		}
		umax[i] = math.MaxUint64
		if i%101 == 5 {
			umax[i] = uint64(i)
		}
		strs[i] = fmt.Sprintf("s%02d", rng.IntN(12))
		edge[i] = 500
	}
	// edge: segment 0 holds ten live rows 20, 22, ..., 38 and ten 980,
	// 978, ..., 962, so it leaves θ at 38 (asc) or 962 (desc); segment 1
	// holds 37 and 963, each ranking just before that θ, which the
	// result must take.
	var picks []int
	for i := 0; len(picks) < 20; i++ {
		if i%13 != 5 { // rows the deletes below leave live
			picks = append(picks, i)
		}
	}
	for j, i := range picks {
		edge[i] = int16(20 + 2*j)
		if j >= 10 {
			edge[i] = int16(980 - 2*(j-10))
		}
	}
	edge[segRows+1], edge[segRows+2] = 37, 963
	first := segRows * 6
	for i := first; i < n; i += 3 {
		strs[i] = fmt.Sprintf("%s-late-%04d", []string{"a", "z"}[i%2], i) // symbols the first wave never had
	}
	tb := NewWithOptions("bound", TableOptions{SegmentRows: segRows, Shards: shards})
	for _, err := range []error{
		AddColumn(tb, "sel", []int64(nil), Imprints, core.Options{Seed: 1}),
		AddColumn(tb, "asc", []int64(nil), Imprints, core.Options{Seed: 2}),
		AddColumn(tb, "desc", []int64(nil), Imprints, core.Options{Seed: 3}),
		AddColumn(tb, "const", []int64(nil), Imprints, core.Options{Seed: 4}),
		AddColumn(tb, "ext", []int64(nil), Imprints, core.Options{Seed: 5}),
		AddColumn(tb, "top", []int64(nil), NoIndex, core.Options{}),
		AddColumn(tb, "walk", []float64(nil), Imprints, core.Options{Seed: 6}),
		AddColumn(tb, "f32", []float32(nil), NoIndex, core.Options{}),
		AddColumn(tb, "iwalk", []int32(nil), Imprints, core.Options{Seed: 7}),
		AddColumn(tb, "edge", []int16(nil), Imprints, core.Options{Seed: 10}),
		AddColumn(tb, "u", []uint64(nil), Imprints, core.Options{Seed: 8}),
		AddColumn(tb, "umax", []uint64(nil), NoIndex, core.Options{}),
		tb.AddStringColumn("s", nil, Imprints, core.Options{Seed: 9}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if buffered {
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tb.Close() })
	}
	commit := func(lo, hi int) {
		b := tb.NewBatch()
		for _, err := range []error{
			Append(b, "sel", sel[lo:hi]), Append(b, "asc", asc[lo:hi]), Append(b, "desc", desc[lo:hi]),
			Append(b, "const", cnst[lo:hi]), Append(b, "ext", ext[lo:hi]), Append(b, "top", top[lo:hi]),
			Append(b, "walk", walk[lo:hi]), Append(b, "f32", f32[lo:hi]), Append(b, "iwalk", iwalk[lo:hi]), Append(b, "edge", edge[lo:hi]), Append(b, "u", u[lo:hi]),
			Append(b, "umax", umax[lo:hi]), b.AppendStrings("s", strs[lo:hi]), b.Commit(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(0, first)
	if buffered {
		tb.SealDelta()
	}
	for lo := first; lo < n; lo += 200 {
		commit(lo, min(lo+200, n))
	}
	if buffered && shards > 1 {
		tb.shard.kids[0].SealDelta()
	}
	m := &boundModel{sel: sel, deleted: make([]bool, n), rank: map[string]func([]uint32, bool, int) []uint32{}}
	for i := 5; i < n; i += 13 {
		if err := tb.Delete(i); err != nil {
			t.Fatal(err)
		}
		m.deleted[i] = true
	}
	addRank := func(name string, f func([]uint32, bool, int) []uint32) { m.rank[name] = f }
	for name, vals := range map[string][]int64{"asc": asc, "desc": desc, "const": cnst, "ext": ext, "top": top} {
		addRank(name, func(ids []uint32, d bool, k int) []uint32 { return rankOracle(vals, ids, d, k) })
	}
	addRank("walk", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(walk, ids, d, k) })
	addRank("f32", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(f32, ids, d, k) })
	addRank("iwalk", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(iwalk, ids, d, k) })
	addRank("edge", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(edge, ids, d, k) })
	addRank("u", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(u, ids, d, k) })
	addRank("umax", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(umax, ids, d, k) })
	addRank("s", func(ids []uint32, d bool, k int) []uint32 { return rankOracle(strs, ids, d, k) })
	return tb, m
}

// TestTopKBoundOracle holds every bounded top-k to brute force: each
// order column in both directions, k = 1, 10 and past the qualifying
// rows, without a predicate and under a 30 % band (ad-hoc and
// prepared), at shards 1/2/4 × parallelism 1/2/8,
// every row sealed or some buffered. Two executions at one parallelism
// must report equal QueryStats: the θ each unit sees is a function of
// the data, the query and the parallelism, never of worker timing.
func TestTopKBoundOracle(t *testing.T) {
	cols := []string{"asc", "desc", "const", "ext", "top", "walk", "f32", "iwalk", "edge", "u", "umax", "s"}
	for _, shards := range []int{1, 2, 4} {
		for _, buffered := range []bool{false, true} {
			tb, m := boundTable(t, shards, buffered)
			if got := tb.DeltaRows() > 0; got != buffered {
				t.Fatalf("shards=%d buffered=%v: table buffers rows: %v", shards, buffered, got)
			}
			prep, err := tb.Prepare(RangeP("sel", Param[int64]("lo"), Param[int64]("hi")), SelectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			all, band := m.qualifying(1, 0), m.qualifying(10, 40)
			for _, col := range cols {
				for _, desc := range []bool{false, true} {
					order := Asc(col)
					if desc {
						order = Desc(col)
					}
					for _, k := range []int{1, 10, len(band) + 7} {
						for _, par := range []int{1, 2, 8} {
							opts := SelectOptions{Parallelism: par}
							tag := fmt.Sprintf("shards=%d buffered=%v order by %s limit %d par=%d", shards, buffered, order, k, par)
							for _, c := range []struct {
								name string
								mk   func() *Query
								want []uint32
							}{
								{"all", func() *Query { return tb.Select().Options(opts) }, m.rank[col](all, desc, k)},
								{"band", func() *Query { return tb.Select().Where(Range[int64]("sel", 10, 40)).Options(opts) }, m.rank[col](band, desc, k)},
								{"prepared band", func() *Query {
									return prep.Bind("lo", int64(10)).Bind("hi", int64(40)).Options(opts)
								}, m.rank[col](band, desc, k)},
							} {
								got, st, err := c.mk().OrderBy(order).Limit(k).IDs()
								if err != nil {
									t.Fatal(err)
								}
								if !slices.Equal(got, c.want) {
									t.Fatalf("%s %s:\n got %v\nwant %v", tag, c.name, got, c.want)
								}
								_, again, err := c.mk().OrderBy(order).Limit(k).IDs()
								if err != nil {
									t.Fatal(err)
								}
								if again != st {
									t.Fatalf("%s %s: QueryStats differ between two executions:\n%+v\n%+v", tag, c.name, st, again)
								}
							}
						}
					}
				}
			}
			// Rows and Batches rank through the same merge.
			for _, par := range []int{1, 8} {
				q := func() *Query {
					return tb.Select("s").Where(Range[int64]("sel", 10, 40)).Options(SelectOptions{Parallelism: par}).OrderBy(Desc("walk")).Limit(10)
				}
				want := m.rank["walk"](band, true, 10)
				if got := rowIDs(t, q()); !slices.Equal(got, want) {
					t.Fatalf("shards=%d buffered=%v par=%d: Rows\n got %v\nwant %v", shards, buffered, par, got, want)
				}
				if got := batchIDs(t, q()); !slices.Equal(got, want) {
					t.Fatalf("shards=%d buffered=%v par=%d: Batches\n got %v\nwant %v", shards, buffered, par, got, want)
				}
			}
		}
	}
}

// TestNumBoundEdges pins the θ-leaf at the edges of each numeric
// type: desc is col >= θ; asc is col < θ's successor, and no leaf at
// all where θ has none.
func TestNumBoundEdges(t *testing.T) {
	hi := func(l *leafPred) any {
		if l == nil {
			return nil
		}
		return l.high
	}
	for _, c := range []struct {
		name      string
		leaf      *leafPred
		wantKind  leafKind
		wantBound any
	}{
		{"int64 max", numBound("x", int64(math.MaxInt64), false), 0, nil},
		{"int64 min", numBound("x", int64(math.MinInt64), false), kindLessThan, int64(math.MinInt64 + 1)},
		{"uint64 max", numBound("x", uint64(math.MaxUint64), false), 0, nil},
		{"uint64 past int64", numBound("x", uint64(math.MaxInt64)+1, false), kindLessThan, uint64(math.MaxInt64) + 2},
		{"uint8 max", numBound("x", uint8(255), false), 0, nil},
		{"float64 +Inf", numBound("x", math.Inf(1), false), 0, nil},
		{"float64 max", numBound("x", math.MaxFloat64, false), kindLessThan, math.Inf(1)},
		{"float64 -0", numBound("x", math.Copysign(0, -1), false), kindLessThan, math.SmallestNonzeroFloat64},
		{"float64 1", numBound("x", 1.0, false), kindLessThan, math.Nextafter(1, 2)},
		{"float32 1", numBound("x", float32(1), false), kindLessThan, math.Nextafter32(1, 2)},
		{"float32 +Inf", numBound("x", float32(math.Inf(1)), false), 0, nil},
	} {
		if c.wantBound == nil {
			if c.leaf != nil {
				t.Errorf("%s: asc bound %v, want none", c.name, hi(c.leaf))
			}
			continue
		}
		if c.leaf == nil || c.leaf.kind != c.wantKind || c.leaf.high != c.wantBound {
			t.Errorf("%s: asc bound %+v, want < %v", c.name, c.leaf, c.wantBound)
		}
	}
	if l := numBound("x", int64(math.MinInt64), true); l.kind != kindAtLeast || l.low != int64(math.MinInt64) {
		t.Errorf("desc bound %+v, want >= MinInt64", l)
	}
}

// topkTable builds segs segments of segRows rows in the shape of the
// serving benchmark's top-k statement: a random-walk float64 price (the
// clustered order column) and a uniform int64 qty (the band).
func topkTable(tb testing.TB, segs, segRows int) *Table {
	tb.Helper()
	n := segs * segRows
	price, qty := make([]float64, n), make([]int64, n)
	rng := rand.New(rand.NewPCG(28, 2))
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
		qty[i] = rng.Int64N(1_000_000)
	}
	t := NewWithOptions("orders", TableOptions{SegmentRows: segRows})
	for _, err := range []error{
		AddColumn(t, "price", price, Imprints, core.Options{Seed: 1}),
		AddColumn(t, "qty", qty, Imprints, core.Options{Seed: 2}),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// TestTopKBoundPrunes pins what the bound buys: over a clustered order
// column and a uniform 20 % band, Limit(10) evaluates at most a quarter
// of the blocks the same ordering without a limit (a full sort, which
// has no bound) does. At parallelism P the first P units run before
// any bound exists, so the table has enough segments for P up to 4.
func TestTopKBoundPrunes(t *testing.T) {
	tb := topkTable(t, 32, 2048)
	for _, par := range []int{1, 2, 4} {
		q := func() *Query {
			return tb.Select().Where(Range[int64]("qty", 100_000, 300_000)).
				Options(SelectOptions{Parallelism: par}).OrderBy(Desc("price"))
		}
		_, full, err := q().IDs()
		if err != nil {
			t.Fatal(err)
		}
		_, top, err := q().Limit(10).IDs()
		if err != nil {
			t.Fatal(err)
		}
		if full.BlocksVectorized == 0 || top.BlocksVectorized*4 > full.BlocksVectorized {
			t.Fatalf("par=%d: Limit(10) evaluated %d blocks, the full sort %d: want at most a quarter",
				par, top.BlocksVectorized, full.BlocksVectorized)
		}
	}
}

// TestStrDeltaTopKBounded: the delta's string collector keeps k
// entries, not one per qualifying buffered row, and ranks them like a
// full sort.
func TestStrDeltaTopKBounded(t *testing.T) {
	const rows = 50_000
	tb := NewWithOptions("strdelta", TableOptions{})
	if err := tb.AddStringColumn("city", nil, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tb.Close() })
	rng := rand.New(rand.NewPCG(28, 3))
	city := make([]string, rows)
	for i := range city {
		city[i] = fmt.Sprintf("c%03d", rng.IntN(400))
	}
	b := tb.NewBatch()
	if err := b.AppendStrings("city", city); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if tb.DeltaRows() != rows {
		t.Fatalf("%d rows buffered, want %d", tb.DeltaRows(), rows)
	}
	ids := make([]uint32, rows)
	for i := range ids {
		ids[i] = uint32(i)
	}
	want := rankOracle(city, ids, true, 3)
	got, _, err := tb.Select().OrderBy(Desc("city")).Limit(3).IDs()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("top-3 by city desc = %v, want %v", got, want)
	}
	// The collector itself holds k entries after every buffered row.
	tb.mu.RLock()
	view := tb.deltaViewLocked()
	acc := tb.cols["city"].topkAcc(segRef{view: &view}, true, 3)
	acc.pushSpan(0, rows)
	tb.mu.RUnlock()
	if n := len(acc.partial().([]topEntry[string])); n != 3 {
		t.Fatalf("delta collector kept %d entries, want 3", n)
	}
}

// BenchmarkTopK times the serving benchmark's top-k statement — order
// by a random-walk price desc limit 10 under a uniform 20 % qty band —
// over 16 segments of 64K rows. blocks/op and probes/op report what the
// bound left to the kernels and to the imprints.
func BenchmarkTopK(b *testing.B) {
	tb := topkTable(b, 16, DefaultSegmentRows)
	q := tb.Select().Where(Range[int64]("qty", 100_000, 300_000)).
		Options(SelectOptions{Parallelism: 1}).OrderBy(Desc("price")).Limit(10)
	b.ReportAllocs()
	b.ResetTimer()
	var st core.QueryStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, st, err = q.IDs(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.BlocksVectorized), "blocks/op")
	b.ReportMetric(float64(st.Probes), "probes/op")
}
