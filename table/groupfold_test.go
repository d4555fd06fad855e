package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/core"
)

// gfRow is one live row of the grouped-fold test table, read back
// through the Query API, with its merge bucket as group_oracle_test.go
// defines it.
type gfRow struct {
	id, bucket int
	t, a       int64
	b          int16
	f, g       float64
	s          string
	n          int64
	u          uint64
	w          int64
}

// gfKeys are the group keys TestGroupFoldMatchesReference exercises: a
// string key (sealed codes read in place, buffered arrival-ordered
// codes), dense integer keys whose slot is v − min — negative int64,
// and uint64 straddling MaxInt64 — and a wide int64 key the map slots.
var gfKeys = []string{"s", "n", "u", "w"}

func (r gfRow) key(k string) any {
	switch k {
	case "s":
		return r.s
	case "n":
		return r.n
	case "u":
		return r.u
	}
	return r.w
}

// gfTable builds the test table: rows in regional runs of 8 sharing one
// key code, a sorted t (exact runs under a t band), an int64 a whose
// sums wrap, an int16 b (its lanes widened), a clean float f, and a
// float g with NaN and -0 sprinkled in. sealed rows go in with the
// columns — each shard's last sealed block ragged — and buffered more
// are committed after delta ingest is enabled.
func gfTable(t *testing.T, shards, sealed, buffered int) *Table {
	t.Helper()
	rng := rand.New(rand.NewPCG(30, 1))
	syms := make([]string, 24)
	for i := range syms {
		syms[i] = fmt.Sprintf("city-%02d", (i*7)%24)
	}
	type cols struct {
		t, a, n, w []int64
		b          []int16
		f, g       []float64
		s          []string
		u          []uint64
	}
	gen := func(from, rows int) (c cols) {
		code := 0
		for i := from; i < from+rows; i++ {
			if i%8 == 0 {
				code = rng.IntN(len(syms))
			}
			g := rng.Float64()*100 - 50
			switch rng.IntN(400) {
			case 0:
				g = math.NaN()
			case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
				g = math.Copysign(0, -1)
			}
			c.t = append(c.t, int64(i))
			c.a = append(c.a, int64(rng.Uint64())) // full range: sums wrap
			c.b = append(c.b, int16(rng.IntN(1<<16)))
			c.f = append(c.f, rng.Float64()*1000/7)
			c.g = append(c.g, g)
			c.s = append(c.s, syms[code])
			c.n = append(c.n, -1000-int64(code))
			c.u = append(c.u, math.MaxInt64-8+uint64(code))
			c.w = append(c.w, int64(code-12)*1_000_000_007)
		}
		return c
	}
	tb := NewWithOptions("groupfold", TableOptions{SegmentRows: 256, Shards: shards})
	t.Cleanup(func() { tb.Close() })
	c := gen(0, sealed)
	for _, err := range []error{
		AddColumn(tb, "t", c.t, Imprints, core.Options{Seed: 1}),
		AddColumn(tb, "a", c.a, Imprints, core.Options{Seed: 2}),
		AddColumn(tb, "b", c.b, NoIndex, core.Options{}),
		AddColumn(tb, "f", c.f, Zonemap, core.Options{}),
		AddColumn(tb, "g", c.g, NoIndex, core.Options{}),
		tb.AddStringColumn("s", c.s, Imprints, core.Options{Seed: 3}),
		AddColumn(tb, "n", c.n, Imprints, core.Options{Seed: 4}),
		AddColumn(tb, "u", c.u, NoIndex, core.Options{}),
		AddColumn(tb, "w", c.w, NoIndex, core.Options{}),
		tb.EnableDeltaIngest(IngestOptions{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	c = gen(sealed, buffered)
	bt := tb.NewBatch()
	for _, err := range []error{
		Append(bt, "t", c.t), Append(bt, "a", c.a), Append(bt, "b", c.b),
		Append(bt, "f", c.f), Append(bt, "g", c.g), bt.AppendStrings("s", c.s),
		Append(bt, "n", c.n), Append(bt, "u", c.u), Append(bt, "w", c.w), bt.Commit(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := tb.DeltaRows(); got != buffered {
		t.Fatalf("%d rows buffered, want %d", got, buffered)
	}
	return tb
}

// gfRows reads every live row back, in ascending id order.
func gfRows(t *testing.T, tb *Table) []gfRow {
	t.Helper()
	var rows []gfRow
	for id, row := range tb.Select("t", "a", "b", "f", "g", "s", "n", "u", "w").Rows() {
		r := gfRow{id: id, bucket: id / tb.segRows,
			t: row.Value(0).(int64), a: row.Value(1).(int64), b: row.Value(2).(int16),
			f: row.Value(3).(float64), g: row.Value(4).(float64), s: row.Value(5).(string),
			n: row.Value(6).(int64), u: row.Value(7).(uint64), w: row.Value(8).(int64)}
		c, lid, sealed := 0, id, tb.rows
		if tb.shard != nil {
			c, lid = tb.shard.decode(id)
			sealed = tb.shard.kids[c].rows
		}
		if lid >= sealed {
			r.bucket = refDeltaBucket + c
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	return rows
}

// gfSums folds one column per group the way the engine does — per
// (bucket, key) from zero in id order, the partials merged in bucket
// order, the first one taken as it is — so float sums compare by bits.
// rows are in ascending id order.
func gfSums[N int64 | float64](rows []gfRow, key string, val func(gfRow) N) map[any]N {
	type cell struct {
		bucket int
		key    any
	}
	parts := map[cell]N{}
	var cells []cell
	for _, r := range rows {
		c := cell{r.bucket, r.key(key)}
		if _, ok := parts[c]; !ok {
			cells = append(cells, c)
		}
		parts[c] += val(r)
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].bucket < cells[j].bucket })
	merged := map[any]N{}
	for _, c := range cells {
		if m, ok := merged[c.key]; ok {
			merged[c.key] = m + parts[c]
		} else {
			merged[c.key] = parts[c]
		}
	}
	return merged
}

// TestGroupFoldMatchesReference holds the one-pass grouped fold — slots
// read or computed per lane, counts and integer sums added in one walk,
// float sums and min/max folded in row order — to references that fold
// row by row: checkGroupsRef for the full operator list, and gfSums for
// narrower accumulator mixes (count only; two integer sums, one widened
// from int16, both wrapping; a float sum over NaN and -0, compared by
// bits). Every key kind the slotters tell apart is
// grouped, over a table with ragged last blocks, exact spans (a band
// over the sorted t, and no predicate at all) and buffered rows, before
// and after deletes, at shards 1/2 and parallelism 1/2/8.
func TestGroupFoldMatchesReference(t *testing.T) {
	mixes := [][]AggSpec{
		{CountAll()},
		{Sum("a"), CountAll(), Sum("b"), Avg("b")},
		{Sum("b"), CountAll()},
		{Sum("g"), Avg("g")},
	}
	preds := []struct {
		name  string
		pred  Predicate
		match func(r gfRow) bool
	}{
		{"all", nil, func(gfRow) bool { return true }},
		{"t band", Range[int64]("t", 100, 900), func(r gfRow) bool { return r.t >= 100 && r.t < 900 }},
		{"a band", Range[int64]("a", math.MinInt64/2, 0), func(r gfRow) bool { return r.a >= math.MinInt64/2 && r.a < 0 }},
		{"or", Or(Range[int64]("t", 0, 200), AtLeast[int64]("a", math.MaxInt64/4)), func(r gfRow) bool {
			return r.t < 200 || r.a >= math.MaxInt64/4
		}},
	}
	for _, shards := range []int{1, 2} {
		tb := gfTable(t, shards, 1000, 300)
		for _, stage := range []string{"buffered", "deleted"} {
			if stage == "deleted" {
				live := gfRows(t, tb)
				rng := rand.New(rand.NewPCG(uint64(shards), 9))
				for _, i := range rng.Perm(len(live))[:60] {
					if err := tb.Delete(live[i].id); err != nil {
						t.Fatal(err)
					}
				}
			}
			all := gfRows(t, tb)
			for _, p := range preds {
				var rows []gfRow
				for _, r := range all {
					if p.match(r) {
						rows = append(rows, r)
					}
				}
				for _, key := range gfKeys {
					ref := make([]refRow, len(rows))
					for i, r := range rows {
						ref[i] = refRow{id: r.id, bucket: r.bucket, a: r.a, f: r.f, s: r.s, key: r.key(key)}
					}
					counts := gfSums(rows, key, func(gfRow) int64 { return 1 })
					sumA := gfSums(rows, key, func(r gfRow) int64 { return r.a })
					sumB := gfSums(rows, key, func(r gfRow) int64 { return int64(r.b) })
					sumG := gfSums(rows, key, func(r gfRow) float64 { return r.g })
					for _, par := range []int{1, 2, 8} {
						tag := fmt.Sprintf("shards=%d %s %s key=%s par=%d", shards, stage, p.name, key, par)
						q := func() *Query { return tb.Select().Where(p.pred).Options(SelectOptions{Parallelism: par}) }
						full, _, err := q().GroupBy(key).Aggregate(refSpecs()...)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						checkGroupsRef(t, tag, full.Groups, ref)
						for _, specs := range mixes {
							res, _, err := q().GroupBy(key).Aggregate(specs...)
							if err != nil {
								t.Fatalf("%s %v: %v", tag, specs, err)
							}
							if len(res.Groups) != len(counts) {
								t.Fatalf("%s %v: %d groups, reference %d", tag, specs, len(res.Groups), len(counts))
							}
							for _, g := range res.Groups {
								n := counts[g.Key]
								if g.Rows != uint64(n) {
									t.Fatalf("%s %v: group %v has %d rows, reference %d", tag, specs, g.Key, g.Rows, n)
								}
								for i, spec := range specs {
									v, bad := g.Aggs[i], false
									switch spec.String() {
									case "count(*)":
										bad = v.Int != n
									case "sum(a)":
										bad = !v.IsInt || v.Int != sumA[g.Key]
									case "sum(b)":
										bad = !v.IsInt || v.Int != sumB[g.Key]
									case "avg(b)":
										bad = v.Float != float64(sumB[g.Key])/float64(n)
									case "sum(g)":
										bad = math.Float64bits(v.Float) != math.Float64bits(sumG[g.Key])
									case "avg(g)":
										bad = math.Float64bits(v.Float) != math.Float64bits(sumG[g.Key]/float64(n))
									default:
										t.Fatalf("no reference for %s", spec)
									}
									if bad || !v.Valid {
										t.Fatalf("%s %v: group %v %s = %v, reference: %d rows, sum(a) %d, sum(b) %d, sum(g) %v",
											tag, specs, g.Key, spec, v, n, sumA[g.Key], sumB[g.Key], sumG[g.Key])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkGroupBy times the serving benchmark's group-by statement —
// count(*), sum(v) … where v is in a 40 % band, group by city — over 16
// segments of 64K rows, at parallelism 1. city holds 8 regions of 8
// symbols, laid out in regional runs of 2K–16K rows; v is uniform. str
// is that statement (codes read in place, one int64 sum); uint8
// groups by the same codes held as a dense uint8 key (slots computed
// lane-wise); float sums a float64 column instead of v (the in-order
// walk). ns/row is per table row.
func BenchmarkGroupBy(b *testing.B) {
	const n = 16 * DefaultSegmentRows
	rng := rand.New(rand.NewPCG(40, 2))
	v, price := make([]int64, n), make([]float64, n)
	k, city := make([]uint8, n), make([]string, n)
	syms := make([]string, 64)
	for i := range syms {
		syms[i] = fmt.Sprintf("r%d-%d", i/8, i%8)
	}
	for i := 0; i < n; {
		region := rng.IntN(8)
		for end := min(n, i+2048+rng.IntN(14336)); i < end; i++ {
			code := region*8 + rng.IntN(8)
			v[i], price[i] = rng.Int64N(1_000_000), rng.Float64()*1000
			k[i], city[i] = uint8(code), syms[code]
		}
	}
	tb := New("groupby")
	for _, err := range []error{
		AddColumn(tb, "v", v, Imprints, core.Options{Seed: 1}),
		AddColumn(tb, "price", price, Imprints, core.Options{Seed: 2}),
		AddColumn(tb, "k", k, Imprints, core.Options{Seed: 3}),
		tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 4}),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	q := tb.Select().Where(Range[int64]("v", 300_000, 700_000)).Options(SelectOptions{Parallelism: 1})
	for _, c := range []struct {
		name, key string
		specs     []AggSpec
	}{
		{"str", "city", []AggSpec{CountAll(), Sum("v")}},
		{"uint8", "k", []AggSpec{CountAll(), Sum("v")}},
		{"float", "city", []AggSpec{CountAll(), Sum("price")}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := q.GroupBy(c.key)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := g.Aggregate(c.specs...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
