package table

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
)

// cities is a small categorical vocabulary with shared prefixes so
// prefix and range predicates have interesting shapes.
var cities = []string{
	"Amsterdam", "Antwerp", "Athens", "Berlin", "Bern",
	"Lisbon", "London", "Lyon", "Madrid", "Milan",
	"Paris", "Porto", "Prague", "Rome", "Rotterdam",
}

// mkMixedTable builds a relation with numeric and string columns:
// qty (int64 walk, imprints), price (float64, imprints), city (string,
// code imprint), tag (string, unindexed).
func mkMixedTable(t *testing.T, n int, seed uint64) (*Table, []int64, []float64, []string, []string) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5715))
	qty := make([]int64, n)
	price := make([]float64, n)
	city := make([]string, n)
	tag := make([]string, n)
	v := int64(1000)
	for i := 0; i < n; i++ {
		v += int64(rng.IntN(21)) - 10
		qty[i] = v
		price[i] = rng.Float64() * 100
		// Locally clustered cities: runs of the same value, the shape
		// imprints exploit.
		city[i] = cities[(i/97+rng.IntN(2))%len(cities)]
		tag[i] = []string{"new", "seen", "done"}[rng.IntN(3)]
	}
	tb := New("orders")
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "price", price, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("tag", tag, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb, qty, price, city, tag
}

func wantIDs(n int, oracle func(i int) bool) []uint32 {
	var want []uint32
	for i := 0; i < n; i++ {
		if oracle(i) {
			want = append(want, uint32(i))
		}
	}
	return want
}

func TestStringLeafKinds(t *testing.T) {
	tb, _, _, city, tag := mkMixedTable(t, 4000, 1)
	for _, tc := range []struct {
		name   string
		pred   Predicate
		oracle func(i int) bool
	}{
		{"range", StrRange("city", "Berlin", "Madrid"),
			func(i int) bool { return city[i] >= "Berlin" && city[i] <= "Madrid" }},
		{"atleast", StrAtLeast("city", "Paris"),
			func(i int) bool { return city[i] >= "Paris" }},
		{"lessthan", StrLessThan("city", "Bern"),
			func(i int) bool { return city[i] < "Bern" }},
		{"equals", StrEquals("city", "London"),
			func(i int) bool { return city[i] == "London" }},
		{"in", StrIn("city", "Lyon", "Rome", "Nowhere"),
			func(i int) bool { return city[i] == "Lyon" || city[i] == "Rome" }},
		{"prefix", StrPrefix("city", "A"),
			func(i int) bool { return strings.HasPrefix(city[i], "A") }},
		{"prefix-multi", StrPrefix("city", "Ro"),
			func(i int) bool { return strings.HasPrefix(city[i], "Ro") }},
		{"empty-range", StrRange("city", "X", "Y"), func(i int) bool { return false }},
		{"unindexed-equals", StrEquals("tag", "seen"),
			func(i int) bool { return tag[i] == "seen" }},
		{"unindexed-prefix", StrPrefix("tag", "s"),
			func(i int) bool { return strings.HasPrefix(tag[i], "s") }},
	} {
		got, _, err := tb.Select().Where(tc.pred).IDs()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		equalIDs(t, got, wantIDs(4000, tc.oracle), tc.name)
	}
}

func TestMixedStringNumericTrees(t *testing.T) {
	tb, qty, price, city, tag := mkMixedTable(t, 6000, 2)
	pred := Or(
		And(
			Range[int64]("qty", 950, 1100),
			StrPrefix("city", "A"),
			LessThan[float64]("price", 60.0),
		),
		AndNot(
			StrIn("city", "Paris", "Rome"),
			Or(AtLeast[float64]("price", 20.0), StrEquals("tag", "done")),
		),
	)
	got, _, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	want := wantIDs(6000, func(i int) bool {
		a := qty[i] >= 950 && qty[i] < 1100 && strings.HasPrefix(city[i], "A") && price[i] < 60
		b := (city[i] == "Paris" || city[i] == "Rome") && !(price[i] >= 20 || tag[i] == "done")
		return a || b
	})
	equalIDs(t, got, want, "mixed string/numeric tree")

	n, _, err := tb.Select().Where(pred).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(want)) {
		t.Errorf("Count = %d, want %d", n, len(want))
	}
}

func TestStringTypeMismatches(t *testing.T) {
	tb, _, _, _, _ := mkMixedTable(t, 500, 3)
	if _, _, err := tb.Select().Where(Range[int64]("city", 1, 2)).IDs(); err == nil {
		t.Error("numeric bound on string column accepted")
	}
	if _, _, err := tb.Select().Where(StrRange("qty", "a", "b")).IDs(); err == nil {
		t.Error("string bound on numeric column accepted")
	}
	if _, _, err := tb.Select().Where(StrPrefix("qty", "a")).IDs(); err == nil {
		t.Error("prefix on numeric column accepted")
	}
	if _, _, err := tb.Select().Where(In[int64]("city", 5)).IDs(); err == nil {
		t.Error("numeric IN-list on string column accepted")
	}
}

func TestValuesPerCachelineValidation(t *testing.T) {
	tb := New("vpc")
	// Non-divisors of BlockRows (and overshoots) are rejected up front:
	// they would break the cacheline-to-block run renormalization.
	for _, bad := range []int{3, 48, 65, 128, -8} {
		if err := AddColumn(tb, "v", []int64{1, 2, 3}, Imprints, core.Options{ValuesPerCacheline: bad}); err == nil {
			t.Errorf("ValuesPerCacheline=%d accepted", bad)
		}
		if err := tb.AddStringColumn("s", []string{"a", "b", "c"}, Imprints, core.Options{ValuesPerCacheline: bad}); err == nil {
			t.Errorf("string ValuesPerCacheline=%d accepted", bad)
		}
	}
	// Invalid MaxBins errors instead of panicking inside rebuild.
	for _, bad := range []int{7, -8, 65, 128} {
		if err := AddColumn(tb, "v", []int64{1, 2, 3}, Imprints, core.Options{MaxBins: bad}); err == nil {
			t.Errorf("MaxBins=%d accepted", bad)
		}
	}
	// Divisors work end to end.
	if err := AddColumn(tb, "v", []int64{5, 6, 7, 8}, Imprints, core.Options{ValuesPerCacheline: 16}); err != nil {
		t.Fatal(err)
	}
	ids, _, err := tb.Select().Where(Equals[int64]("v", 6)).IDs()
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Errorf("vpc=16 query: %v %v", ids, err)
	}
}

func TestUnindexedStringEmptyLeafShortCircuit(t *testing.T) {
	tb, _, _, _, _ := mkMixedTable(t, 2000, 20)
	// "tag" is unindexed; a value outside the dictionary is provably
	// empty and must not scan a single row.
	ids, st, err := tb.Select().Where(StrEquals("tag", "no-such-tag")).IDs()
	if err != nil || len(ids) != 0 {
		t.Fatalf("absent tag: %v %v", ids, err)
	}
	if st.Comparisons != 0 {
		t.Errorf("provably-empty leaf spent %d comparisons", st.Comparisons)
	}
}

func TestCompactToZeroThenAppend(t *testing.T) {
	tb := New("drain")
	if err := AddColumn(tb, "v", []int64{1, 2, 3}, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", []string{"a", "b", "c"}, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if removed := tb.Compact(); removed != 3 {
		t.Fatalf("Compact removed %d", removed)
	}
	// Appending into the drained table must not hit a stale index.
	b := tb.NewBatch()
	if err := Append(b, "v", []int64{10, 11}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("s", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	ids, _, err := tb.Select().Where(And(AtLeast[int64]("v", 10), StrEquals("s", "y"))).IDs()
	if err != nil || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("query after drain+append: %v %v", ids, err)
	}
}

func TestQueryRowsIteration(t *testing.T) {
	tb, qty, _, city, _ := mkMixedTable(t, 3000, 4)
	q := tb.Select("qty", "city").Where(AtLeast[int64]("qty", 1000))
	want := wantIDs(3000, func(i int) bool { return qty[i] >= 1000 })

	var got []uint32
	for id, row := range q.Rows() {
		if row.Get("qty") != qty[id] || row.Get("city") != city[id] {
			t.Fatalf("row %d: %v, want qty=%d city=%s", id, row, qty[id], city[id])
		}
		if row.Get("price") != nil {
			t.Fatalf("row %d: unprojected column leaked: %v", id, row)
		}
		if row.ID() != id {
			t.Fatalf("row id %d != key %d", row.ID(), id)
		}
		got = append(got, uint32(id))
	}
	if q.Err() != nil {
		t.Fatal(q.Err())
	}
	equalIDs(t, got, want, "Rows() full iteration")

	// Mid-stream break stops cleanly (and releases the read lock: the
	// writer call below would deadlock otherwise).
	seen := 0
	for range q.Rows() {
		seen++
		if seen == 7 {
			break
		}
	}
	if seen != 7 {
		t.Errorf("broke after %d rows, want 7", seen)
	}
	if err := tb.Delete(0); err != nil {
		t.Fatalf("write after broken iteration: %v", err)
	}

	// Limit caps Rows, IDs and Count alike.
	limited := 0
	for range tb.Select().Where(AtLeast[int64]("qty", 1000)).Limit(5).Rows() {
		limited++
	}
	if limited != 5 {
		t.Errorf("Limit(5) yielded %d rows", limited)
	}
	ids, _, err := tb.Select().Where(AtLeast[int64]("qty", 1000)).Limit(5).IDs()
	if err != nil || len(ids) != 5 {
		t.Errorf("Limit(5).IDs() = %d ids (%v)", len(ids), err)
	}
	n, _, err := tb.Select().Where(AtLeast[int64]("qty", 1000)).Limit(5).Count()
	if err != nil || n != 5 {
		t.Errorf("Limit(5).Count() = %d (%v)", n, err)
	}

	// Limit(0) and negative limits mean "no rows", not "unlimited" —
	// the value a pagination remainder naturally produces.
	for _, zero := range []int{0, -3} {
		ids, _, err := tb.Select().Limit(zero).IDs()
		if err != nil || len(ids) != 0 {
			t.Errorf("Limit(%d).IDs() = %d rows (%v)", zero, len(ids), err)
		}
		zn, _, err := tb.Select().Limit(zero).Count()
		if err != nil || zn != 0 {
			t.Errorf("Limit(%d).Count() = %d (%v)", zero, zn, err)
		}
		got := 0
		for range tb.Select().Limit(zero).Rows() {
			got++
		}
		if got != 0 {
			t.Errorf("Limit(%d).Rows() yielded %d", zero, got)
		}
	}
}

func TestQueryNoPredicate(t *testing.T) {
	tb, _, _, _, _ := mkMixedTable(t, 300, 5)
	ids, st, err := tb.Select().IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 300 {
		t.Fatalf("match-all returned %d of 300", len(ids))
	}
	if st.Comparisons != 0 {
		t.Errorf("match-all spent %d comparisons", st.Comparisons)
	}
	if err := tb.Delete(5); err != nil {
		t.Fatal(err)
	}
	n, _, err := tb.Select().Count()
	if err != nil || n != 299 {
		t.Errorf("match-all count after delete = %d (%v)", n, err)
	}
}

func TestQueryErrors(t *testing.T) {
	tb, _, _, _, _ := mkMixedTable(t, 100, 6)
	if _, _, err := tb.Select("nope").IDs(); err == nil {
		t.Error("unknown projected column accepted")
	}
	if _, _, err := tb.Select("nope").Count(); err == nil {
		t.Error("unknown projected column accepted by Count")
	}
	if _, err := tb.Select("nope").Explain(); err == nil {
		t.Error("unknown projected column accepted by Explain")
	}
	q := tb.Select("nope")
	for range q.Rows() {
		t.Fatal("Rows yielded despite projection error")
	}
	if q.Err() == nil {
		t.Error("Rows did not record projection error")
	}
	q2 := tb.Select().Where(Range[int64]("nope", 0, 1))
	for range q2.Rows() {
		t.Fatal("Rows yielded despite plan error")
	}
	if q2.Err() == nil {
		t.Error("Rows did not record plan error")
	}
}

func TestExplainShape(t *testing.T) {
	tb, _, _, _, _ := mkMixedTable(t, 5000, 7)
	// A scan-only column rides along to show up in the plan.
	ts := make([]int64, 5000)
	for i := range ts {
		ts[i] = int64(i)
	}
	if err := AddColumn(tb, "ts", ts, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	q := tb.Select("qty", "city").Where(And(
		Range[int64]("qty", 990, 1010),
		StrPrefix("city", "A"),
		Range[int64]("ts", 100, 4000),
		AtLeast[float64]("price", 0.0), // unselective: should become a scan
	)).Limit(10)
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Table != "orders" || plan.TotalRows != 5000 {
		t.Errorf("plan header: %+v", plan)
	}
	if len(plan.Columns) != 2 || plan.Columns[0] != "qty" || plan.Columns[1] != "city" {
		t.Errorf("plan projection: %v", plan.Columns)
	}
	if plan.Root.Op != "and" || len(plan.Root.Children) != 4 {
		t.Fatalf("plan root: %s with %d children", plan.Root.Op, len(plan.Root.Children))
	}
	access, reason := map[string]string{}, map[string]string{}
	for _, kid := range plan.Root.Children {
		access[kid.Column], reason[kid.Column] = kid.Access, kid.Reason
	}
	if access["qty"] != "imprints" || access["city"] != "imprints" || access["ts"] != "scan" || reason["ts"] != "" {
		t.Errorf("access paths: %v, reasons: %v", access, reason)
	}
	if access["price"] != "scan" {
		t.Errorf("unselective leaf access = %q, want scan", access["price"])
	}
	if plan.Stats.Probes == 0 {
		t.Error("plan recorded no index probes")
	}
	text := plan.String()
	for _, want := range []string{
		"select qty, city from orders limit 10",
		"and:", "imprints", "ts in [100, 4000): scan →", "scan (unselective)",
		`city prefix "A"`, "est=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan text missing %q:\n%s", want, text)
		}
	}
	// The rendering is a tree: one root, one branch glyph per node.
	if strings.Count(text, "├─")+strings.Count(text, "└─") != 5 {
		t.Errorf("plan tree glyphs wrong:\n%s", text)
	}
}

func TestStringColumnBatchAppend(t *testing.T) {
	tb, _, _, city, _ := mkMixedTable(t, 1000, 8)
	all := append([]string(nil), city...)

	// Fast path: appended strings already in the dictionary.
	b := tb.NewBatch()
	known := []string{"Paris", "Rome", "Lisbon", "Paris"}
	if err := Append(b, "qty", []int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "price", []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("city", known); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("tag", []string{"new", "new", "seen", "done"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	all = append(all, known...)

	// Slow path: a novel string forces re-encode + rebuild.
	b = tb.NewBatch()
	novel := []string{"Zagreb", "Amsterdam"}
	if err := Append(b, "qty", []int64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "price", []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("city", novel); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("tag", []string{"new", "done"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	all = append(all, novel...)

	if tb.Rows() != 1006 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	got, _, err := tb.Select().Where(StrAtLeast("city", "Rome")).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, got, wantIDs(1006, func(i int) bool { return all[i] >= "Rome" }), "after appends")

	// Type confusion across Append flavors errors cleanly.
	b = tb.NewBatch()
	if err := Append(b, "city", []int64{1}); err == nil {
		t.Error("numeric append to string column accepted")
	}
	if err := b.AppendStrings("qty", []string{"x"}); err == nil {
		t.Error("string append to numeric column accepted")
	}
}

func TestUpdateString(t *testing.T) {
	tb, _, _, city, _ := mkMixedTable(t, 2000, 9)
	live := append([]string(nil), city...)

	// In-dictionary update widens the imprint.
	if err := tb.UpdateString("city", 42, "Paris"); err != nil {
		t.Fatal(err)
	}
	live[42] = "Paris"
	// Novel string forces re-encode.
	if err := tb.UpdateString("city", 43, "Utrecht"); err != nil {
		t.Fatal(err)
	}
	live[43] = "Utrecht"

	got, _, err := tb.Select().Where(StrRange("city", "Paris", "Utrecht")).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, got, wantIDs(2000, func(i int) bool { return live[i] >= "Paris" && live[i] <= "Utrecht" }), "after string updates")

	if err := tb.UpdateString("city", 99999, "X"); err == nil {
		t.Error("out-of-range string update accepted")
	}
	if err := tb.UpdateString("qty", 0, "X"); err == nil {
		t.Error("string update on numeric column accepted")
	}

	vals, err := tb.StringColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	for i := range live {
		if vals[i] != live[i] {
			t.Fatalf("StringColumn[%d] = %q, want %q", i, vals[i], live[i])
		}
	}
}

func TestStringColumnDeleteCompactMaintain(t *testing.T) {
	tb, qty, _, city, _ := mkMixedTable(t, 3000, 10)
	deleted := map[int]bool{}
	rng := rand.New(rand.NewPCG(11, 11))
	for d := 0; d < 900; d++ {
		id := rng.IntN(3000)
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted[id] = true
	}
	pred := And(StrPrefix("city", "P"), AtLeast[int64]("qty", 0))
	got, _, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, got, wantIDs(3000, func(i int) bool {
		return !deleted[i] && strings.HasPrefix(city[i], "P")
	}), "string pred with deletes")

	rep := tb.Maintain(MaintainOptions{DeletedFraction: 0.1})
	if !rep.Compacted || rep.RowsRemoved != len(deleted) {
		t.Fatalf("Maintain report: %+v, want compaction of %d", rep, len(deleted))
	}
	var liveCity []string
	for i := range city {
		if !deleted[i] {
			liveCity = append(liveCity, city[i])
		}
	}
	got, _, err = tb.Select().Where(StrPrefix("city", "P")).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, got, wantIDs(len(liveCity), func(i int) bool {
		return strings.HasPrefix(liveCity[i], "P")
	}), "string pred after compact")
	_ = qty
}

func TestStringColumnPersistence(t *testing.T) {
	tb, _, _, city, tag := mkMixedTable(t, 2500, 12)
	_ = tag
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 2500 || len(got.Columns()) != 4 {
		t.Fatalf("loaded %d rows, %v", got.Rows(), got.Columns())
	}
	pred := Or(StrPrefix("city", "L"), StrEquals("tag", "done"))
	a, _, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	b, st, err := got.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, b, a, "persisted string query")
	if st.Probes == 0 {
		t.Error("persisted code imprint did not probe")
	}
	vals, err := got.StringColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	for i := range city {
		if vals[i] != city[i] {
			t.Fatalf("persisted city[%d] = %q, want %q", i, vals[i], city[i])
		}
	}
}

// Random mixed trees against a naive oracle, string leaves included.
func TestRandomMixedTrees(t *testing.T) {
	tb, qty, price, city, tag := mkMixedTable(t, 3000, 13)
	rng := rand.New(rand.NewPCG(14, 14))
	leaf := func() (Predicate, func(i int) bool) {
		switch rng.IntN(6) {
		case 0:
			lo := int64(850 + rng.IntN(300))
			hi := lo + int64(rng.IntN(200))
			return Range[int64]("qty", lo, hi), func(i int) bool { return qty[i] >= lo && qty[i] < hi }
		case 1:
			x := rng.Float64() * 100
			return LessThan[float64]("price", x), func(i int) bool { return price[i] < x }
		case 2:
			c := cities[rng.IntN(len(cities))]
			return StrEquals("city", c), func(i int) bool { return city[i] == c }
		case 3:
			p := cities[rng.IntN(len(cities))][:1+rng.IntN(2)]
			return StrPrefix("city", p), func(i int) bool { return strings.HasPrefix(city[i], p) }
		case 4:
			lo, hi := cities[rng.IntN(len(cities))], cities[rng.IntN(len(cities))]
			if lo > hi {
				lo, hi = hi, lo
			}
			return StrRange("city", lo, hi), func(i int) bool { return city[i] >= lo && city[i] <= hi }
		default:
			s := []string{"new", "seen", "done"}[rng.IntN(3)]
			return StrEquals("tag", s), func(i int) bool { return tag[i] == s }
		}
	}
	for trial := 0; trial < 50; trial++ {
		p1, f1 := leaf()
		p2, f2 := leaf()
		p3, f3 := leaf()
		var pred Predicate
		var oracle func(i int) bool
		switch rng.IntN(3) {
		case 0:
			pred = And(p1, Or(p2, p3))
			oracle = func(i int) bool { return f1(i) && (f2(i) || f3(i)) }
		case 1:
			pred = Or(p1, AndNot(p2, p3))
			oracle = func(i int) bool { return f1(i) || (f2(i) && !f3(i)) }
		default:
			pred = AndNot(And(p1, p2), p3)
			oracle = func(i int) bool { return f1(i) && f2(i) && !f3(i) }
		}
		got, _, err := tb.Select().Where(pred).IDs()
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, got, wantIDs(3000, oracle), "random mixed tree")
	}
}
