package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// aggTestTable builds a four-segment table (SegmentRows 128) with an
// int64 qty, a float64 price, and a string city column.
func aggTestTable(t *testing.T, rows int) *Table {
	t.Helper()
	tb := NewWithOptions("agg", TableOptions{SegmentRows: 128})
	qty := make([]int64, rows)
	price := make([]float64, rows)
	city := make([]string, rows)
	cities := []string{"Amsterdam", "Berlin", "Cairo", "Delft"}
	for i := range qty {
		qty[i] = int64(i % 97)
		price[i] = float64(i%53) * 1.5
		city[i] = cities[i%len(cities)]
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "price", price, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestAggregateBasic(t *testing.T) {
	const rows = 500
	tb := aggTestTable(t, rows)

	res, st, err := tb.Select().Aggregate(Sum("qty"), Min("qty"), Max("qty"), Avg("price"), CountAll(), Min("city"), Max("city"))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	var psum float64
	minQ, maxQ := int64(math.MaxInt64), int64(math.MinInt64)
	for i := 0; i < rows; i++ {
		q := int64(i % 97)
		sum += q
		minQ, maxQ = min(minQ, q), max(maxQ, q)
		psum += float64(i%53) * 1.5
	}
	if got := res.At(0); !got.Valid || !got.IsInt || got.Int != sum {
		t.Fatalf("sum(qty) = %+v, want %d", got, sum)
	}
	if got := res.At(1); got.Int != minQ {
		t.Fatalf("min(qty) = %+v, want %d", got, minQ)
	}
	if got := res.At(2); got.Int != maxQ {
		t.Fatalf("max(qty) = %+v, want %d", got, maxQ)
	}
	if got := res.At(3); math.Abs(got.Float-psum/rows) > 1e-9 {
		t.Fatalf("avg(price) = %+v, want %v", got, psum/rows)
	}
	if got := res.At(4); got.Int != rows || !got.Valid {
		t.Fatalf("count(*) = %+v, want %d", got, rows)
	}
	if got := res.At(5); !got.IsStr || got.Str != "Amsterdam" {
		t.Fatalf("min(city) = %+v, want Amsterdam", got)
	}
	if got := res.At(6); got.Str != "Delft" {
		t.Fatalf("max(city) = %+v, want Delft", got)
	}
	if res.Rows != rows {
		t.Fatalf("res.Rows = %d, want %d", res.Rows, rows)
	}
	// Select-all over clean segments: min/max/count answer from
	// summaries, sum/avg fold wholesale; nothing is scanned row by row.
	if st.SummaryAggRows == 0 || st.WholesaleAggRows == 0 {
		t.Fatalf("expected summary and wholesale pushdown, stats %+v", st)
	}
	if st.Comparisons != 0 {
		t.Fatalf("select-all aggregation ran %d residual comparisons", st.Comparisons)
	}
}

func TestAggregateWithPredicate(t *testing.T) {
	const rows = 500
	tb := aggTestTable(t, rows)
	pred := Range[int64]("qty", 10, 50)

	res, _, err := tb.Select().Where(pred).Aggregate(Sum("qty"), CountAll(), Avg("qty"))
	if err != nil {
		t.Fatal(err)
	}
	var sum, n int64
	for i := 0; i < rows; i++ {
		q := int64(i % 97)
		if q >= 10 && q < 50 {
			sum += q
			n++
		}
	}
	if res.At(0).Int != sum || res.At(1).Int != n {
		t.Fatalf("got sum=%d count=%d, want %d/%d", res.At(0).Int, res.At(1).Int, sum, n)
	}
	if got, want := res.At(2).Float, float64(sum)/float64(n); math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg = %v, want %v", got, want)
	}

	// Empty selection: min/max/avg invalid, sum invalid, count valid 0.
	res, _, err = tb.Select().Where(Equals[int64]("qty", -5)).Aggregate(Min("qty"), Sum("qty"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0).Valid || res.At(1).Valid {
		t.Fatalf("empty selection produced valid min/sum: %v", res)
	}
	if !res.At(2).Valid || res.At(2).Int != 0 {
		t.Fatalf("empty selection count = %+v, want 0", res.At(2))
	}
}

// TestAggregateSummaryNeverTouchesSlab proves the acceptance criterion
// directly: a fully-selected, delete-free segment answers Min/Max from
// its summary. Corrupting the sealed segment's value slab (bypassing
// Update, so the summary stays) must not change the answer — the slab
// was never read.
func TestAggregateSummaryNeverTouchesSlab(t *testing.T) {
	tb := aggTestTable(t, 500)
	cs := tb.cols["qty"].(*colState[int64])

	before, st, err := tb.Select().Aggregate(Min("qty"), Max("qty"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(3 * 500); st.SummaryAggRows != want {
		t.Fatalf("SummaryAggRows = %d, want %d (3 aggs × 500 rows)", st.SummaryAggRows, want)
	}
	if st.WholesaleAggRows != 0 {
		t.Fatalf("WholesaleAggRows = %d, want 0", st.WholesaleAggRows)
	}

	// Poison every value of the first (sealed) segment behind the
	// summary's back.
	poisoned := cs.segs[0].vals
	saved := append([]int64(nil), poisoned...)
	for i := range poisoned {
		poisoned[i] = math.MaxInt64
	}
	after, _, err := tb.Select().Aggregate(Min("qty"), Max("qty"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	copy(poisoned, saved)
	if after.At(0) != before.At(0) || after.At(1) != before.At(1) || after.At(2) != before.At(2) {
		t.Fatalf("summary-answered aggregate read the value slab: %v vs %v", after, before)
	}

	// ExplainAggregate agrees: every segment summary-answered.
	plan, err := tb.Select().ExplainAggregate(Min("qty"), Max("qty"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.AggSegments) != tb.Segments() {
		t.Fatalf("AggSegments = %d, want %d", len(plan.AggSegments), tb.Segments())
	}
	for _, ap := range plan.AggSegments {
		if ap.Tier != "summary" {
			t.Fatalf("segment %d tier = %q, want summary", ap.Segment, ap.Tier)
		}
	}
	if !strings.Contains(plan.String(), "summary-answered") {
		t.Fatalf("plan text misses pushdown lines:\n%s", plan)
	}
}

// TestAggregateWidenedSummary: after an in-place update the summary may
// over-cover, so Min/Max must fall back to the value slab; Maintain's
// rebuild restores the summary tier.
func TestAggregateWidenedSummary(t *testing.T) {
	tb := aggTestTable(t, 500)
	// Raise one value, then lower it back: the summary now claims max
	// >= 1000 even though no row carries it.
	if err := Update(tb, "qty", 7, int64(1000)); err != nil {
		t.Fatal(err)
	}
	if err := Update(tb, "qty", 7, int64(3)); err != nil {
		t.Fatal(err)
	}
	res, st, err := tb.Select().Aggregate(Max("qty"))
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0).Int != 96 {
		t.Fatalf("max after widen = %d, want 96 (summary over-cover leaked)", res.At(0).Int)
	}
	// Segment 0 can no longer summary-answer; the others still do.
	if st.SummaryAggRows == 0 || st.WholesaleAggRows == 0 {
		t.Fatalf("expected mixed tiers after widening, stats %+v", st)
	}
	// A rebuild recomputes the summary exactly (the tiny positive limit
	// rebuilds any segment whose index absorbed an update).
	tb.Maintain(MaintainOptions{SaturationLimit: 1e-12})
	res2, st2, err := tb.Select().Aggregate(Max("qty"))
	if err != nil {
		t.Fatal(err)
	}
	if res2.At(0).Int != 96 || st2.WholesaleAggRows != 0 {
		t.Fatalf("post-rebuild max=%d stats %+v, want summary-only", res2.At(0).Int, st2)
	}
}

func TestAggregateDeletesDisableWholesaleCount(t *testing.T) {
	tb := aggTestTable(t, 500)
	for _, id := range []int{0, 130, 131, 499} {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := tb.Select().Aggregate(CountAll(), Sum("qty"))
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < 500; i++ {
		switch i {
		case 0, 130, 131, 499:
			continue
		}
		sum += int64(i % 97)
	}
	if res.At(0).Int != 496 || res.At(1).Int != sum {
		t.Fatalf("with deletes: count=%d sum=%d, want 496/%d", res.At(0).Int, res.At(1).Int, sum)
	}
}

func TestAggregateLimit(t *testing.T) {
	tb := aggTestTable(t, 500)
	// First 10 qualifying rows in id order.
	res, _, err := tb.Select().Where(AtLeast[int64]("qty", 1)).Limit(10).Aggregate(Sum("qty"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	n := 0
	for i := 0; i < 500 && n < 10; i++ {
		if q := int64(i % 97); q >= 1 {
			sum += q
			n++
		}
	}
	if res.At(1).Int != 10 || res.At(0).Int != sum {
		t.Fatalf("limited aggregate: count=%d sum=%d, want 10/%d", res.At(1).Int, res.At(0).Int, sum)
	}
	// Limit(0) selects nothing.
	res, _, err = tb.Select().Limit(0).Aggregate(CountAll())
	if err != nil || res.At(0).Int != 0 {
		t.Fatalf("Limit(0) aggregate = %v, %v", res, err)
	}
}

func TestAggregateErrors(t *testing.T) {
	tb := aggTestTable(t, 200)
	if _, _, err := tb.Select().Aggregate(); err == nil {
		t.Fatal("no specs accepted")
	}
	if _, _, err := tb.Select().Aggregate(Sum("nope")); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, _, err := tb.Select().Aggregate(Sum("city")); err == nil {
		t.Fatal("sum over string accepted")
	}
	if _, _, err := tb.Select().OrderBy(Desc("qty")).Aggregate(Sum("qty")); err == nil {
		t.Fatal("OrderBy + Aggregate accepted")
	}
	if _, _, err := tb.Select().GroupBy("price").Aggregate(CountAll()); err == nil {
		t.Fatal("float GroupBy key accepted")
	}
	if _, _, err := tb.Select().GroupBy("nope").Aggregate(CountAll()); err == nil {
		t.Fatal("unknown GroupBy key accepted")
	}
	if _, _, err := tb.Select().Limit(5).GroupBy("city").Aggregate(CountAll()); err == nil {
		t.Fatal("Limit + GroupBy accepted")
	}
	if _, _, err := tb.Select("nope").Aggregate(CountAll()); err == nil {
		t.Fatal("bad projection accepted")
	}
}

func TestGroupBy(t *testing.T) {
	const rows = 500
	tb := aggTestTable(t, rows)
	cities := []string{"Amsterdam", "Berlin", "Cairo", "Delft"}

	// String key, with a predicate.
	res, _, err := tb.Select().Where(LessThan[int64]("qty", 40)).GroupBy("city").Aggregate(CountAll(), Sum("qty"), Max("price"))
	if err != nil {
		t.Fatal(err)
	}
	type acc struct {
		n   uint64
		sum int64
		mx  float64
	}
	want := map[string]*acc{}
	for i := 0; i < rows; i++ {
		if q := int64(i % 97); q < 40 {
			c := cities[i%4]
			a := want[c]
			if a == nil {
				a = &acc{}
				want[c] = a
			}
			a.n++
			a.sum += q
			a.mx = max(a.mx, float64(i%53)*1.5)
		}
	}
	if len(res.Groups) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Groups), len(want))
	}
	for i, g := range res.Groups {
		w := want[g.Key.(string)]
		if w == nil || g.Rows != w.n || g.Aggs[0].Int != int64(w.n) || g.Aggs[1].Int != w.sum || g.Aggs[2].Float != w.mx {
			t.Fatalf("group %v = rows %d aggs %v, want %+v", g.Key, g.Rows, g.Aggs, w)
		}
		if i > 0 && !(res.Groups[i-1].Key.(string) < g.Key.(string)) {
			t.Fatalf("groups not sorted: %v", res.Groups)
		}
	}
	if _, ok := res.Find("Berlin"); !ok {
		t.Fatal("Find(Berlin) missed")
	}

	// Integer key.
	ires, _, err := tb.Select().GroupBy("qty").Aggregate(CountAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(ires.Groups) != 97 {
		t.Fatalf("int groups = %d, want 97", len(ires.Groups))
	}
	if k := ires.Groups[0].Key.(int64); k != 0 {
		t.Fatalf("first int group key = %d, want 0", k)
	}
}

// TestGroupByDictionaryRemap pins the per-segment dictionary remap: two
// segments whose dictionaries assign the same string different codes
// must merge into one global group.
func TestGroupByDictionaryRemap(t *testing.T) {
	tb := NewWithOptions("remap", TableOptions{SegmentRows: 64})
	// Segment 0: codes {apple:0, zebra:1}; segment 1: codes
	// {mango:0, zebra:1} — "zebra" has code 1 in one and the same code
	// space would alias "apple"/"mango" without the remap.
	vals := make([]string, 128)
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			vals[i] = "apple"
		} else {
			vals[i] = "zebra"
		}
	}
	for i := 64; i < 128; i++ {
		if i%2 == 0 {
			vals[i] = "mango"
		} else {
			vals[i] = "zebra"
		}
	}
	if err := tb.AddStringColumn("s", vals, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ones := make([]int64, 128)
	for i := range ones {
		ones[i] = 1
	}
	if err := AddColumn(tb, "one", ones, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	res, _, err := tb.Select().GroupBy("s").Aggregate(CountAll(), Sum("one"))
	if err != nil {
		t.Fatal(err)
	}
	wantGroups := map[string]uint64{"apple": 32, "mango": 32, "zebra": 64}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %v, want 3", res.Groups)
	}
	for _, g := range res.Groups {
		if g.Rows != wantGroups[g.Key.(string)] || g.Aggs[1].Int != int64(g.Rows) {
			t.Fatalf("group %v = %d rows (sum %d), want %d", g.Key, g.Rows, g.Aggs[1].Int, wantGroups[g.Key.(string)])
		}
	}
}

func TestOrderByTopK(t *testing.T) {
	const rows = 500
	tb := aggTestTable(t, rows)

	// Descending top-10 by price, ties broken by ascending id.
	ids, _, err := tb.Select().OrderBy(Desc("price")).Limit(10).IDs()
	if err != nil {
		t.Fatal(err)
	}
	var all []rankEnt
	for i := 0; i < rows; i++ {
		all = append(all, rankEnt{float64(i%53) * 1.5, i})
	}
	wantTop := topSort(all, true)[:10]
	if len(ids) != 10 {
		t.Fatalf("top-k returned %d ids", len(ids))
	}
	for i, id := range ids {
		if int(id) != wantTop[i].id {
			t.Fatalf("rank %d: id %d, want %d", i, id, wantTop[i].id)
		}
	}

	// Ascending, unbounded (full sort), with a predicate.
	ids, _, err = tb.Select().Where(LessThan[int64]("qty", 5)).OrderBy(Asc("price")).IDs()
	if err != nil {
		t.Fatal(err)
	}
	var filtered []rankEnt
	for i := 0; i < rows; i++ {
		if int64(i%97) < 5 {
			filtered = append(filtered, rankEnt{float64(i%53) * 1.5, i})
		}
	}
	wantAll := topSort(filtered, false)
	if len(ids) != len(wantAll) {
		t.Fatalf("ordered ids = %d, want %d", len(ids), len(wantAll))
	}
	for i, id := range ids {
		if int(id) != wantAll[i].id {
			t.Fatalf("rank %d: id %d, want %d", i, id, wantAll[i].id)
		}
	}

	// String ordering spans per-segment dictionaries.
	sids, _, err := tb.Select().OrderBy(Asc("city")).Limit(3).IDs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{0, 4, 8}; len(sids) != 3 || sids[0] != want[0] || sids[1] != want[1] || sids[2] != want[2] {
		t.Fatalf("city top-3 = %v, want %v", sids, want)
	}

	// Rows streams in rank order.
	got := []int{}
	q := tb.Select("price").OrderBy(Desc("price")).Limit(5)
	for id, row := range q.Rows() {
		got = append(got, id)
		if _, ok := row.Lookup("price"); !ok {
			t.Fatal("price not projected in ordered row")
		}
	}
	if q.Err() != nil {
		t.Fatal(q.Err())
	}
	for i := range got {
		if got[i] != wantTop[i].id {
			t.Fatalf("ordered Rows rank %d = id %d, want %d", i, got[i], wantTop[i].id)
		}
	}

	// Unknown order column errors.
	if _, _, err := tb.Select().OrderBy(Asc("nope")).IDs(); err == nil {
		t.Fatal("unknown order column accepted")
	}
	// Plan mentions the ordering.
	plan, err := tb.Select().OrderBy(Desc("price")).Limit(5).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.OrderBy != "price desc" || !strings.Contains(plan.String(), "order by price desc") {
		t.Fatalf("plan OrderBy = %q", plan.OrderBy)
	}
}

// rankEnt is the oracle's (value, id) pair for ordering tests.
type rankEnt struct {
	p  float64
	id int
}

// topSort is the test oracle's ranking: value direction, ties by id.
func topSort(all []rankEnt, desc bool) []rankEnt {
	out := append([]rankEnt(nil), all...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.p != b.p {
			if desc {
				return a.p > b.p
			}
			return a.p < b.p
		}
		return a.id < b.id
	})
	return out
}

func TestAggregateParallelismDeterminism(t *testing.T) {
	tb := aggTestTable(t, 2000)
	pred := Or(Range[int64]("qty", 5, 60), StrEquals("city", "Cairo"))
	var base *AggResult
	var baseG *GroupedResult
	var baseIDs []uint32
	for _, par := range []int{1, 2, 8} {
		opts := SelectOptions{Parallelism: par}
		res, _, err := tb.Select().Where(pred).Options(opts).Aggregate(Sum("price"), Min("qty"), Max("city"), Avg("price"), CountAll())
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := tb.Select().Where(pred).Options(opts).GroupBy("city").Aggregate(Sum("price"), CountAll())
		if err != nil {
			t.Fatal(err)
		}
		ids, _, err := tb.Select().Where(pred).Options(opts).OrderBy(Desc("price")).Limit(25).IDs()
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			base, baseG, baseIDs = res, g, ids
			continue
		}
		// Byte-identical: float sums merge in segment order regardless
		// of parallelism.
		if fmt.Sprintf("%v", res.Values()) != fmt.Sprintf("%v", base.Values()) {
			t.Fatalf("parallelism %d changed aggregates:\n%v\nvs\n%v", par, res, base)
		}
		if fmt.Sprintf("%v", g.Groups) != fmt.Sprintf("%v", baseG.Groups) {
			t.Fatalf("parallelism %d changed groups", par)
		}
		if fmt.Sprintf("%v", ids) != fmt.Sprintf("%v", baseIDs) {
			t.Fatalf("parallelism %d changed top-k ids", par)
		}
	}
}

func TestAggregatePrepared(t *testing.T) {
	tb := aggTestTable(t, 600)
	p, err := tb.Prepare(RangeP("qty", Param[int64]("lo"), Param[int64]("hi")), SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bounds := range [][2]int64{{10, 50}, {0, 97}} {
		res, _, err := p.Bind("lo", bounds[0]).Bind("hi", bounds[1]).Aggregate(Sum("qty"), CountAll())
		if err != nil {
			t.Fatal(err)
		}
		adhoc, _, err := tb.Select().Where(Range[int64]("qty", bounds[0], bounds[1])).Aggregate(Sum("qty"), CountAll())
		if err != nil {
			t.Fatal(err)
		}
		if res.At(0) != adhoc.At(0) || res.At(1) != adhoc.At(1) {
			t.Fatalf("prepared aggregate diverged from ad-hoc: %v vs %v", res, adhoc)
		}
	}
	// Grouped and ordered executions work on prepared statements too.
	g, _, err := p.Bind("lo", int64(0)).Bind("hi", int64(97)).GroupBy("city").Aggregate(CountAll())
	if err != nil || len(g.Groups) != 4 {
		t.Fatalf("prepared GroupBy: %v, %v", g, err)
	}
	ids, _, err := p.Bind("lo", int64(0)).Bind("hi", int64(97)).OrderBy(Desc("qty")).Limit(5).IDs()
	if err != nil || len(ids) != 5 {
		t.Fatalf("prepared top-k: %v, %v", ids, err)
	}
}

func TestRowLookup(t *testing.T) {
	tb := aggTestTable(t, 100)
	for _, row := range tb.Select("qty").Limit(1).Rows() {
		if v, ok := row.Lookup("qty"); !ok || v.(int64) != 0 {
			t.Fatalf("Lookup(qty) = %v, %v", v, ok)
		}
		if v, ok := row.Lookup("price"); ok || v != nil {
			t.Fatalf("Lookup(price) on unprojected column = %v, %v", v, ok)
		}
		if row.Get("price") != nil {
			t.Fatal("Get(price) on unprojected column != nil")
		}
	}
}

// TestBatchesAllocs pins the batch path's allocation-free row
// iteration: released batches recycle, so what one execution allocates
// does not depend on how many rows it returns.
func TestBatchesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const rows = 4 * rowBatchSize
	tb := aggTestTable(t, rows)
	iterate := func(limit int) float64 {
		q := tb.Select("qty", "price").Options(SelectOptions{Parallelism: 1}).Limit(limit)
		return testing.AllocsPerRun(10, func() {
			n := 0
			for b := range q.Batches() {
				n += len(b.Cols[0].Ints)
				b.Release()
			}
			if n != limit {
				t.Fatalf("iterated %d rows, want %d", n, limit)
			}
		})
	}
	few, many := iterate(rowBatchSize/2), iterate(rows)
	if many > few+4 {
		t.Fatalf("%d rows made %.0f allocs vs %.0f for %d rows — batches not recycled", rows, many, few, rowBatchSize/2)
	}
}

// BenchmarkAggregate measures the pushdown tiers on a multi-segment
// table: the summary tier (select-all min/max/count — no slab reads),
// the wholesale tier (select-all sum), and the scanned tier (an
// unselective band forcing residual checks).
func BenchmarkAggregate(b *testing.B) {
	n := 512 * 1024
	price := make([]float64, n)
	qty := make([]int64, n)
	for i := range price {
		price[i] = float64((i*2654435761)%100000) / 100
		qty[i] = int64(i % 1000)
	}
	tb := New("bench")
	if err := AddColumn(tb, "price", price, Imprints, core.Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 2}); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		pred  Predicate
		specs []AggSpec
	}{
		{"summary", nil, []AggSpec{Min("price"), Max("price"), CountAll()}},
		{"wholesale", nil, []AggSpec{Sum("price"), Avg("qty")}},
		{"scanned", Range[float64]("price", 100, 600), []AggSpec{Sum("price"), CountAll()}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			q := tb.Select().Where(c.pred).Options(SelectOptions{Parallelism: 4})
			for i := 0; i < b.N; i++ {
				if _, _, err := q.Aggregate(c.specs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("topk", func(b *testing.B) {
		q := tb.Select().OrderBy(Desc("price")).Limit(10).Options(SelectOptions{Parallelism: 4})
		for i := 0; i < b.N; i++ {
			if _, _, err := q.IDs(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("groupby", func(b *testing.B) {
		q := tb.Select().Options(SelectOptions{Parallelism: 4})
		for i := 0; i < b.N; i++ {
			if _, _, err := q.GroupBy("qty").Aggregate(CountAll(), Sum("price")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestOrderByNaN: NaN breaks <'s totality, so the ranking defines it
// to sort after every real value in either direction — the top-k must
// never return a NaN row while real candidates remain.
func TestOrderByNaN(t *testing.T) {
	tb := NewWithOptions("nan", TableOptions{SegmentRows: 64})
	vals := make([]float64, 130)
	for i := range vals {
		vals[i] = float64(i)
	}
	vals[0] = math.NaN() // first row of segment 0 seeds the heap
	vals[70] = math.NaN()
	if err := AddColumn(tb, "v", vals, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	ids, _, err := tb.Select().OrderBy(Desc("v")).Limit(3).IDs()
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{129, 128, 127}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("desc top-3 with NaNs = %v, want %v", ids, want)
	}
	ids, _, err = tb.Select().OrderBy(Asc("v")).IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 130 || ids[0] != 1 || ids[128] != 0 || ids[129] != 70 {
		t.Fatalf("asc full order with NaNs = first %d, last two %v %v", ids[0], ids[128], ids[129])
	}
}

// TestExplainAggregateMirrorsExecutor: plans must not advertise
// pushdown an execution would not run — OrderBy is rejected exactly
// like Aggregate rejects it, and a Limit-ed aggregation (which folds
// row by row through the id path) carries no tier lines.
func TestExplainAggregateMirrorsExecutor(t *testing.T) {
	tb := aggTestTable(t, 300)
	if _, err := tb.Select().OrderBy(Desc("qty")).ExplainAggregate(Sum("qty")); err == nil {
		t.Fatal("ExplainAggregate accepted OrderBy that Aggregate rejects")
	}
	plan, err := tb.Select().Limit(10).ExplainAggregate(Sum("qty"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.AggSegments) != 0 {
		t.Fatalf("Limit-ed aggregate plan advertises %d pushdown segments", len(plan.AggSegments))
	}
	if plan.Limit != 10 || len(plan.Aggregates) != 1 {
		t.Fatalf("plan limit/aggs = %d/%v", plan.Limit, plan.Aggregates)
	}
}

// TestOrderByBlockPush holds the block-level top-k (pushMask/pushSpan
// with the one-compare reject against a full heap's root) to a full
// sort: heavy ties on the order value within and across segments (ids
// ascending), NaN rows in both directions, k from 1 to beyond the
// qualifying rows, and no Limit at all (the unbounded collector) —
// through walked blocks (a residual predicate), wholesale exact spans
// (no predicate) and a string order column, unsharded and sharded.
func TestOrderByBlockPush(t *testing.T) {
	const rows = 1000
	rng := rand.New(rand.NewPCG(0x70b, 11))
	vals := make([]float64, rows)
	sel := make([]int64, rows)
	strs := make([]string, rows)
	for i := range vals {
		vals[i] = float64(rng.IntN(12)) / 4 // twelve distinct values: ties everywhere
		if rng.IntN(9) == 0 {
			vals[i] = math.NaN()
		}
		sel[i] = int64(rng.IntN(100))
		strs[i] = fmt.Sprintf("s%02d", rng.IntN(7))
	}
	// rank is the oracle's order: value in the requested direction, NaN
	// after every real value either way, ties by ascending id.
	rank := func(ids []uint32, less func(a, b uint32) int) []uint32 {
		out := append([]uint32(nil), ids...)
		sort.SliceStable(out, func(x, y int) bool {
			if c := less(out[x], out[y]); c != 0 {
				return c < 0
			}
			return out[x] < out[y]
		})
		return out
	}
	byVal := func(desc bool) func(a, b uint32) int {
		return func(a, b uint32) int {
			va, vb := vals[a], vals[b]
			switch aN, bN := va != va, vb != vb; {
			case aN && bN:
				return 0
			case aN:
				return 1
			case bN:
				return -1
			case va == vb:
				return 0
			case (va < vb) != desc:
				return -1
			}
			return 1
		}
	}
	byStr := func(desc bool) func(a, b uint32) int {
		return func(a, b uint32) int {
			c := strings.Compare(strs[a], strs[b])
			if desc {
				c = -c
			}
			return c
		}
	}
	for _, shards := range []int{1, 2} {
		tb := NewWithOptions("topk", TableOptions{SegmentRows: 128, Shards: shards})
		for _, err := range []error{
			AddColumn(tb, "v", vals, NoIndex, core.Options{}),
			AddColumn(tb, "sel", sel, Imprints, core.Options{Seed: 9}),
			tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 10}),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		var all, some []uint32
		for i := range vals {
			all = append(all, uint32(i))
			if sel[i] < 35 {
				some = append(some, uint32(i))
			}
		}
		for _, c := range []struct {
			name string
			pred Predicate
			ids  []uint32
		}{{"spans", nil, all}, {"masks", LessThan[int64]("sel", 35), some}} {
			for _, desc := range []bool{false, true} {
				for _, col := range []string{"v", "s"} {
					less, order := byVal(desc), Asc(col)
					if col == "s" {
						less = byStr(desc)
					}
					if desc {
						order = Desc(col)
					}
					want := rank(c.ids, less)
					for _, k := range []int{1, 3, 10, 64, len(c.ids) + 5, -1} {
						for _, par := range []int{1, 2, 8} {
							q := tb.Select().Where(c.pred).Options(SelectOptions{Parallelism: par}).OrderBy(order)
							w := want
							if k >= 0 {
								q.Limit(k)
								w = want[:min(k, len(want))]
							}
							got, _, err := q.IDs()
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(got, w) {
								t.Fatalf("shards=%d %s order by %s k=%d par=%d:\n got %v\nwant %v", shards, c.name, order, k, par, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupByUint64Keys: keys at and above 2^63 do not fit int64, so a
// uint64 key column reports Group.Key as uint64 and orders unsigned —
// on the map slot path (a segment spanning the whole domain), the dense
// path (a narrow segment above 2^63) and for buffered delta rows alike.
func TestGroupByUint64Keys(t *testing.T) {
	const top = uint64(1) << 63
	for _, shards := range []int{1, 2} {
		tb := NewWithOptions("u64", TableOptions{SegmentRows: 64, Shards: shards})
		keys := []uint64{1, top, math.MaxUint64, 1}
		for i := 0; i < 60; i++ {
			keys = append(keys, []uint64{1, top, math.MaxUint64}[i%3])
		}
		for i := 0; i < 64; i++ { // segment 1: dense, entirely above 2^63
			keys = append(keys, top+uint64(i%5))
		}
		ones := make([]int64, len(keys))
		for i := range ones {
			ones[i] = 1
		}
		if err := AddColumn(tb, "k", keys, Imprints, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := AddColumn(tb, "one", ones, NoIndex, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		b := tb.NewBatch()
		delta := []uint64{math.MaxUint64 - 1, top + 1, 0}
		if err := Append(b, "k", delta); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "one", []int64{1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		want := map[uint64]uint64{}
		for _, k := range append(keys, delta...) {
			want[k]++
		}
		order := make([]uint64, 0, len(want))
		for k := range want {
			order = append(order, k)
		}
		slices.Sort(order)
		for _, par := range []int{1, 2, 8} {
			res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).GroupBy("k").Aggregate(CountAll(), Sum("one"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) != len(order) {
				t.Fatalf("shards=%d: %d groups, want %d: %v", shards, len(res.Groups), len(order), res.Groups)
			}
			for i, g := range res.Groups {
				k, ok := g.Key.(uint64)
				if !ok || k != order[i] || g.Rows != want[k] || g.Aggs[1].Int != int64(want[k]) {
					t.Fatalf("shards=%d par=%d: group %d = %v (%T) × %d, want %d × %d", shards, par, i, g.Key, g.Key, g.Rows, order[i], want[order[i]])
				}
			}
			if g, ok := res.Find(top); !ok || g.Rows != want[top] {
				t.Fatalf("Find(uint64(1<<63)) = %v, %v", g, ok)
			}
		}
	}
}

// TestGroupByAllocs pins the grouped fold's allocation shape: per
// segment a handful of slot-indexed slabs and one parts slab, so the
// allocations of GroupBy(...).Aggregate(...) do not depend on how many
// rows qualify, and stay within a small constant per segment plus the
// per-group result cells.
func TestGroupByAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const segs, segRows, groups = 16, 1024, 64
	rng := rand.New(rand.NewPCG(5, 6))
	qty := make([]int64, segs*segRows)
	city := make([]string, len(qty))
	for i := range qty {
		qty[i] = rng.Int64N(1000)
		city[i] = fmt.Sprintf("city-%02d", rng.IntN(groups))
	}
	tb := NewWithOptions("allocs", TableOptions{SegmentRows: segRows})
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	prep, err := tb.Prepare(And(AtLeastP("qty", Param[int64]("lo")), LessThanP("qty", Param[int64]("hi"))),
		SelectOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(lo, hi int64) (allocs float64, rows uint64) {
		allocs = testing.AllocsPerRun(10, func() {
			res, _, err := prep.Bind("lo", lo).Bind("hi", hi).GroupBy("city").Aggregate(CountAll(), Sum("qty"), Avg("qty"), Max("city"))
			if err != nil || len(res.Groups) != groups {
				t.Fatalf("%d groups (%v), want %d", len(res.Groups), err, groups)
			}
			rows = 0
			for _, g := range res.Groups {
				rows += g.Rows
			}
		})
		return allocs, rows
	}
	few, fewRows := measure(100, 200)
	many, manyRows := measure(0, 950)
	if manyRows < 8*fewRows {
		t.Fatalf("bands select %d and %d rows; want them far apart", fewRows, manyRows)
	}
	if many > few+2 {
		t.Fatalf("%d qualifying rows made %.0f allocs, %d rows %.0f — the fold allocates per row", manyRows, many, fewRows, few)
	}
	if limit := float64(20*segs + 4*groups + 40); many > limit {
		t.Fatalf("grouped aggregation made %.0f allocs over %d segments and %d groups, want at most %.0f", many, segs, groups, limit)
	}
	t.Logf("%.0f allocs (%d rows) vs %.0f allocs (%d rows), %d segments, %d groups", few, fewRows, many, manyRows, segs, groups)
}
