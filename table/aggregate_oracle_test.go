package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/core"
)

// The randomized aggregate oracle: Aggregate, GroupBy and
// OrderBy+Limit must equal a naive full-scan fold of the table's
// mirrored contents, across appends, updates (numeric and string),
// deletes and compaction, at parallelism 1, 2 and 8 — including stages
// where whole segments are answered purely from summaries. Grouped
// results are additionally held bit for bit against the per-segment
// reference fold of group_oracle_test.go, for string, narrow, wide and
// update-widened keys.

// aggMirror mirrors the table for the naive fold.
type aggMirror struct {
	a   []int64
	f   []float64
	s   []string
	k   []uint8 // group key: narrow unsigned
	w   []int64 // group key: wide and negative, takes the map slot path
	del []bool
}

func refreshAggMirror(t *testing.T, tb *Table) *aggMirror {
	t.Helper()
	m := &aggMirror{}
	var err error
	if m.a, err = Column[int64](tb, "a"); err != nil {
		t.Fatal(err)
	}
	if m.f, err = Column[float64](tb, "f"); err != nil {
		t.Fatal(err)
	}
	if m.s, err = tb.StringColumn("s"); err != nil {
		t.Fatal(err)
	}
	if m.k, err = Column[uint8](tb, "k"); err != nil {
		t.Fatal(err)
	}
	if m.w, err = Column[int64](tb, "w"); err != nil {
		t.Fatal(err)
	}
	m.del = make([]bool, len(m.a))
	for i := range m.del {
		m.del[i] = tb.IsDeleted(i)
	}
	return m
}

// naiveAgg folds every qualifying live row the slow way.
type naiveAgg struct {
	n             uint64
	sumA          int64
	minA, maxA    int64
	sumF          float64
	minS, maxS    string
	minIDsByFDesc []uint32 // ids ranked by (f desc, id asc)
	minIDsByAAsc  []uint32 // ids ranked by (a asc, id asc)
	groupCount    map[string]uint64
	groupSumA     map[string]int64
	groupCountByA map[int64]uint64
}

func naiveFold(m *aggMirror, match func(id int) bool) *naiveAgg {
	o := &naiveAgg{
		minA: math.MaxInt64, maxA: math.MinInt64,
		groupCount: map[string]uint64{}, groupSumA: map[string]int64{},
		groupCountByA: map[int64]uint64{},
	}
	var ids []uint32
	for i := range m.a {
		if m.del[i] || !match(i) {
			continue
		}
		if o.n == 0 {
			o.minS, o.maxS = m.s[i], m.s[i]
		} else {
			o.minS, o.maxS = min(o.minS, m.s[i]), max(o.maxS, m.s[i])
		}
		o.n++
		o.sumA += m.a[i]
		o.minA, o.maxA = min(o.minA, m.a[i]), max(o.maxA, m.a[i])
		o.sumF += m.f[i]
		o.groupCount[m.s[i]]++
		o.groupSumA[m.s[i]] += m.a[i]
		o.groupCountByA[m.a[i]]++
		ids = append(ids, uint32(i))
	}
	o.minIDsByFDesc = append([]uint32(nil), ids...)
	sort.SliceStable(o.minIDsByFDesc, func(x, y int) bool {
		a, b := o.minIDsByFDesc[x], o.minIDsByFDesc[y]
		if m.f[a] != m.f[b] {
			return m.f[a] > m.f[b]
		}
		return a < b
	})
	o.minIDsByAAsc = append([]uint32(nil), ids...)
	sort.SliceStable(o.minIDsByAAsc, func(x, y int) bool {
		a, b := o.minIDsByAAsc[x], o.minIDsByAAsc[y]
		if m.a[a] != m.a[b] {
			return m.a[a] < m.a[b]
		}
		return a < b
	})
	return o
}

// closeF compares floats with relative tolerance: the executor sums
// per segment before merging in segment order, the oracle sums
// sequentially, so the two roundings may differ in the last bits.
func closeF(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkAggOracle(t *testing.T, tb *Table, stage string, pred Predicate, match func(m *aggMirror, id int) bool) {
	t.Helper()
	m := refreshAggMirror(t, tb)
	want := naiveFold(m, func(id int) bool { return match(m, id) })
	for _, par := range []int{1, 2, 8} {
		opts := SelectOptions{Parallelism: par}
		tag := fmt.Sprintf("%s/par=%d", stage, par)

		res, _, err := tb.Select().Where(pred).Options(opts).
			Aggregate(CountAll(), Sum("a"), Min("a"), Max("a"), Sum("f"), Avg("f"), Min("s"), Max("s"))
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if res.At(0).Int != int64(want.n) || res.Rows != want.n {
			t.Fatalf("%s: count = %d (rows %d), want %d", tag, res.At(0).Int, res.Rows, want.n)
		}
		if want.n == 0 {
			for i := 1; i < res.Len(); i++ {
				if res.At(i).Valid {
					t.Fatalf("%s: empty selection yielded valid %v", tag, res.At(i))
				}
			}
		} else {
			if res.At(1).Int != want.sumA || res.At(2).Int != want.minA || res.At(3).Int != want.maxA {
				t.Fatalf("%s: int aggs %v/%v/%v, want %d/%d/%d",
					tag, res.At(1).Int, res.At(2).Int, res.At(3).Int, want.sumA, want.minA, want.maxA)
			}
			if !closeF(res.At(4).Float, want.sumF) || !closeF(res.At(5).Float, want.sumF/float64(want.n)) {
				t.Fatalf("%s: float aggs %v/%v, want %v/%v",
					tag, res.At(4).Float, res.At(5).Float, want.sumF, want.sumF/float64(want.n))
			}
			if res.At(6).Str != want.minS || res.At(7).Str != want.maxS {
				t.Fatalf("%s: string aggs %q/%q, want %q/%q",
					tag, res.At(6).Str, res.At(7).Str, want.minS, want.maxS)
			}
		}

		g, _, err := tb.Select().Where(pred).Options(opts).GroupBy("s").Aggregate(CountAll(), Sum("a"))
		if err != nil {
			t.Fatalf("%s: groupby: %v", tag, err)
		}
		if len(g.Groups) != len(want.groupCount) {
			t.Fatalf("%s: %d groups, want %d", tag, len(g.Groups), len(want.groupCount))
		}
		for i, grp := range g.Groups {
			key := grp.Key.(string)
			if grp.Rows != want.groupCount[key] || grp.Aggs[1].Int != want.groupSumA[key] {
				t.Fatalf("%s: group %q = %d rows sum %d, want %d/%d",
					tag, key, grp.Rows, grp.Aggs[1].Int, want.groupCount[key], want.groupSumA[key])
			}
			if i > 0 && g.Groups[i-1].Key.(string) >= key {
				t.Fatalf("%s: groups unsorted", tag)
			}
		}
		gi, _, err := tb.Select().Where(pred).Options(opts).GroupBy("a").Aggregate(CountAll())
		if err != nil {
			t.Fatalf("%s: int groupby: %v", tag, err)
		}
		if len(gi.Groups) != len(want.groupCountByA) {
			t.Fatalf("%s: %d int groups, want %d", tag, len(gi.Groups), len(want.groupCountByA))
		}
		for _, grp := range gi.Groups {
			if grp.Rows != want.groupCountByA[grp.Key.(int64)] {
				t.Fatalf("%s: int group %v = %d rows, want %d",
					tag, grp.Key, grp.Rows, want.groupCountByA[grp.Key.(int64)])
			}
		}

		// The grouped differential (group_oracle_test.go): every key
		// kind and operator against a per-segment row-order fold, float
		// bits included — cold and again warm (kernel caches and pools
		// hot), with the warm run's statistics equal to the cold one's.
		for _, key := range []string{"s", "a", "k", "w"} {
			var ref []refRow
			for id := range m.a {
				if m.del[id] || !match(m, id) {
					continue
				}
				r := refRow{id: id, bucket: id / tb.segRows, a: m.a[id], f: m.f[id], s: m.s[id]}
				switch key {
				case "s":
					r.key = m.s[id]
				case "a":
					r.key = m.a[id]
				case "k":
					r.key = int64(m.k[id])
				default:
					r.key = m.w[id]
				}
				ref = append(ref, r)
			}
			var first core.QueryStats
			for run, phase := range []string{"cold", "warm"} {
				gk, st, err := tb.Select().Where(pred).Options(opts).GroupBy(key).Aggregate(refSpecs()...)
				if err != nil {
					t.Fatalf("%s: group by %s: %v", tag, key, err)
				}
				checkGroupsRef(t, fmt.Sprintf("%s group by %s %s", tag, key, phase), gk.Groups, ref)
				st.ScratchReused = 0
				if run == 0 {
					first = st
				} else if st != first {
					t.Fatalf("%s: group by %s: warm stats diverge\ncold %+v\nwarm %+v", tag, key, first, st)
				}
			}
		}
		checkSharedAccs(t, tb, tag, pred, opts)

		for _, k := range []int{3, 17} {
			ids, _, err := tb.Select().Where(pred).Options(opts).OrderBy(Desc("f")).Limit(k).IDs()
			if err != nil {
				t.Fatalf("%s: topk: %v", tag, err)
			}
			wantIDs := want.minIDsByFDesc
			if len(wantIDs) > k {
				wantIDs = wantIDs[:k]
			}
			if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
				t.Fatalf("%s: top-%d by f desc = %v, want %v", tag, k, ids, wantIDs)
			}
		}
		ids, _, err := tb.Select().Where(pred).Options(opts).OrderBy(Asc("a")).IDs()
		if err != nil {
			t.Fatalf("%s: full order: %v", tag, err)
		}
		if fmt.Sprint(ids) != fmt.Sprint(want.minIDsByAAsc) {
			t.Fatalf("%s: full order by a asc diverged", tag)
		}
	}
}

// checkSharedAccs pins accumulator sharing: sum and avg of one column
// requested together fold the slab once, and must return exactly the
// bits — and count exactly the per-aggregate tier rows — of the same
// aggregates executed one per query, ungrouped and grouped, on an
// integer and a float column.
func checkSharedAccs(t *testing.T, tb *Table, tag string, pred Predicate, opts SelectOptions) {
	t.Helper()
	specs := []AggSpec{Sum("f"), Avg("f"), Avg("a"), Sum("a"), CountAll(), Sum("f")}
	q := func() *Query { return tb.Select().Where(pred).Options(opts) }
	shared, sst, err := q().Aggregate(specs...)
	if err != nil {
		t.Fatalf("%s: shared aggregate: %v", tag, err)
	}
	gshared, _, err := q().GroupBy("s").Aggregate(specs...)
	if err != nil {
		t.Fatalf("%s: shared groupby: %v", tag, err)
	}
	var summary, wholesale uint64
	for i, spec := range specs {
		one, ost, err := q().Aggregate(spec)
		if err != nil {
			t.Fatalf("%s: %s alone: %v", tag, spec, err)
		}
		summary += ost.SummaryAggRows
		wholesale += ost.WholesaleAggRows
		if g, w := shared.At(i), one.At(0); g != w || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
			t.Fatalf("%s: shared %v, alone %v", tag, g, w)
		}
		gone, _, err := q().GroupBy("s").Aggregate(spec)
		if err != nil {
			t.Fatalf("%s: grouped %s alone: %v", tag, spec, err)
		}
		for gi, grp := range gone.Groups {
			if g, w := gshared.Groups[gi].Aggs[i], grp.Aggs[0]; g != w || math.Float64bits(g.Float) != math.Float64bits(w.Float) {
				t.Fatalf("%s: group %v: shared %v, alone %v", tag, grp.Key, g, w)
			}
		}
	}
	if sst.SummaryAggRows != summary || sst.WholesaleAggRows != wholesale {
		t.Fatalf("%s: shared execution counted %d summary / %d wholesale agg rows, one-per-query executions %d / %d",
			tag, sst.SummaryAggRows, sst.WholesaleAggRows, summary, wholesale)
	}
}

func TestAggregateOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	const segRows = 192
	symbols := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}

	gen := func(n int) ([]int64, []float64, []string) {
		a := make([]int64, n)
		f := make([]float64, n)
		s := make([]string, n)
		for i := range a {
			a[i] = int64(rng.IntN(50))
			f[i] = rng.Float64() * 1000 / 7
			s[i] = symbols[rng.IntN(len(symbols))]
		}
		return a, f, s
	}
	// The extra group keys derive from a, so gen's callers stay as they are.
	keys := func(a []int64) ([]uint8, []int64) {
		k := make([]uint8, len(a))
		w := make([]int64, len(a))
		for i, v := range a {
			k[i] = uint8(v % 9)
			w[i] = (v%30 - 15) * 1_000_000_007
		}
		return k, w
	}
	appendKeys := func(b *Batch, a []int64) {
		t.Helper()
		k, w := keys(a)
		if err := Append(b, "k", k); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "w", w); err != nil {
			t.Fatal(err)
		}
	}

	tb := NewWithOptions("aggoracle", TableOptions{SegmentRows: segRows})
	a, f, s := gen(700)
	if err := AddColumn(tb, "a", a, Imprints, core.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "f", f, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", s, Imprints, core.Options{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	k, w := keys(a)
	if err := AddColumn(tb, "k", k, Imprints, core.Options{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "w", w, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}

	preds := func() []struct {
		name  string
		pred  Predicate
		match func(m *aggMirror, id int) bool
	} {
		lo := int64(rng.IntN(30))
		hi := lo + int64(rng.IntN(20)) + 1
		sym := symbols[rng.IntN(len(symbols))]
		return []struct {
			name  string
			pred  Predicate
			match func(m *aggMirror, id int) bool
		}{
			{"all", nil, func(m *aggMirror, id int) bool { return true }},
			{"range", Range[int64]("a", lo, hi), func(m *aggMirror, id int) bool {
				return m.a[id] >= lo && m.a[id] < hi
			}},
			{"or", Or(LessThan[int64]("a", lo), StrEquals("s", sym)), func(m *aggMirror, id int) bool {
				return m.a[id] < lo || m.s[id] == sym
			}},
		}
	}

	check := func(stage string) {
		t.Helper()
		for _, p := range preds() {
			checkAggOracle(t, tb, stage+"/"+p.name, p.pred, p.match)
		}
	}

	check("initial")

	// Append across a segment boundary.
	na, nf, ns := gen(500)
	b := tb.NewBatch()
	if err := Append(b, "a", na); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "f", nf); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("s", ns); err != nil {
		t.Fatal(err)
	}
	appendKeys(b, na)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	check("appended")

	// In-place updates, including values that widen summaries and novel
	// strings that re-encode a segment dictionary.
	for u := 0; u < 150; u++ {
		id := rng.IntN(tb.Rows())
		switch rng.IntN(4) {
		case 3: // widen the key summaries: the dense k span grows, w stays wide
			if err := Update(tb, "k", id, uint8(200+rng.IntN(40))); err != nil {
				t.Fatal(err)
			}
			if err := Update(tb, "w", id, -int64(rng.IntN(5))); err != nil {
				t.Fatal(err)
			}
		case 0:
			if err := Update(tb, "a", id, int64(rng.IntN(80))-10); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := Update(tb, "f", id, rng.Float64()*2000-500); err != nil {
				t.Fatal(err)
			}
		case 2:
			sym := symbols[rng.IntN(len(symbols))]
			if rng.IntN(4) == 0 {
				sym = fmt.Sprintf("novel-%d", u)
			}
			if err := tb.UpdateString("s", id, sym); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("updated")

	// Deletes disable the wholesale tiers but not correctness.
	for d := 0; d < 120; d++ {
		if err := tb.Delete(rng.IntN(tb.Rows())); err != nil {
			t.Fatal(err)
		}
	}
	check("deleted")

	// Compact renumbers ids and restores exact summaries.
	tb.Compact()
	check("compacted")

	// A final append after compaction.
	na, nf, ns = gen(260)
	b = tb.NewBatch()
	if err := Append(b, "a", na); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "f", nf); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("s", ns); err != nil {
		t.Fatal(err)
	}
	appendKeys(b, na)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	check("appended2")

	// The select-all stage after compaction must have exercised the
	// summary pushdown: prove it once explicitly.
	_, st, err := tb.Select().Aggregate(Min("a"), Max("a"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	if st.SummaryAggRows == 0 {
		t.Fatalf("compacted select-all never hit the summary tier: %+v", st)
	}
}
