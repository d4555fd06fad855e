package table

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// Tests of the execution frame (exec.go): the ordered merge of sealed
// and buffered ids, holes in the global segment space, the one
// validation order, and the frame's single lock acquisition.

// frameRow is the brute-force model's view of one row.
type frameRow struct {
	qty  int64
	city string
}

var frameCities = []string{"Amsterdam", "Berlin", "Lisbon", "Oslo", "Rome"}

func frameRowAt(i int) frameRow {
	return frameRow{qty: int64(i*37%1000 - 200), city: frameCities[i*7%len(frameCities)]}
}

// frameTable builds an empty table with the model's two columns.
func frameTable(t *testing.T, shards int, ingest bool) *Table {
	t.Helper()
	tb := NewWithOptions("frame", TableOptions{SegmentRows: 128, Shards: shards})
	if err := AddColumn(tb, "qty", []int64(nil), Imprints, core.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", nil, Imprints, core.Options{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if ingest {
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tb.Close() })
	}
	return tb
}

// frameCommit appends rows [from, to) of the model to tb (a table or,
// to bypass commit routing, one shard of it).
func frameCommit(t *testing.T, tb *Table, from, to int) {
	t.Helper()
	qty := make([]int64, 0, to-from)
	city := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		r := frameRowAt(i)
		qty = append(qty, r.qty)
		city = append(city, r.city)
	}
	b := tb.NewBatch()
	if err := Append(b, "qty", qty); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("city", city); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// batchIDs drains a Batches iteration down to its row ids.
func batchIDs(t *testing.T, q *Query) []uint32 {
	t.Helper()
	var ids []uint32
	for b := range q.Batches() {
		ids = append(ids, b.IDs...)
		b.Release()
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// rowIDs drains a Rows iteration down to its row ids.
func rowIDs(t *testing.T, q *Query) []uint32 {
	t.Helper()
	var ids []uint32
	for id := range q.Rows() {
		ids = append(ids, uint32(id))
	}
	if err := q.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// checkLimitPrefix requires Limit(n) through IDs, Rows, Batches and
// Aggregate (a sum over the int64 column col, whose model value valOf
// returns) to cover exactly the first n ids of the unlimited answer all.
func checkLimitPrefix(t *testing.T, tag string, mk func() *Query, all []uint32, n int, col string, valOf func(id uint32) int64) {
	t.Helper()
	want := all[:min(n, len(all))]
	ids, _, err := mk().Limit(n).IDs()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, want) {
		t.Fatalf("%s: Limit(%d).IDs()\n got %v\nwant %v", tag, n, ids, want)
	}
	if got := rowIDs(t, mk().Limit(n)); !slices.Equal(got, want) {
		t.Fatalf("%s: Limit(%d).Rows()\n got %v\nwant %v", tag, n, got, want)
	}
	if got := batchIDs(t, mk().Limit(n)); !slices.Equal(got, want) {
		t.Fatalf("%s: Limit(%d).Batches()\n got %v\nwant %v", tag, n, got, want)
	}
	res, _, err := mk().Limit(n).Aggregate(Sum(col), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, id := range want {
		sum += valOf(id)
	}
	if res.Rows != uint64(len(want)) || res.At(1).Int != int64(len(want)) || (len(want) > 0 && res.At(0).Int != sum) {
		t.Fatalf("%s: Limit(%d).Aggregate = %v over %d rows, want sum %d over %d", tag, n, res, res.Rows, sum, len(want))
	}
}

// TestLimitUnderSealLag is the regression test of the limited-IDs bug:
// with independent per-shard sealers one shard's rows can be sealed
// while a neighbour's — which precede them in the global id space — are
// still buffered, and a limit the sealed ids alone fill must not skip
// them.
func TestLimitUnderSealLag(t *testing.T) {
	for _, shards := range []int{2, 4} {
		tb := frameTable(t, shards, true)
		total := 128*(shards+1) + 40
		for from := 0; from < total; from += 96 {
			frameCommit(t, tb, from, min(from+96, total))
		}
		// Only shard 0 seals: global segments 0 and N are sealed, the
		// segments between them (and the ragged tail) stay buffered.
		if got := tb.shard.kids[0].SealDelta(); got != 256 {
			t.Fatalf("shards=%d: sealed %d rows of shard 0, want 256", shards, got)
		}
		qtyOf := func(id uint32) int64 { return frameRowAt(int(id)).qty }
		preds := map[string]Predicate{"all": nil, "qty>=100": AtLeast[int64]("qty", 100)}
		for name, pred := range preds {
			for _, par := range []int{1, 2, 8} {
				mk := func() *Query {
					return tb.Select("qty").Where(pred).Options(SelectOptions{Parallelism: par})
				}
				all, _, err := mk().IDs()
				if err != nil {
					t.Fatal(err)
				}
				var want []uint32
				for i := 0; i < total; i++ {
					if pred == nil || frameRowAt(i).qty >= 100 {
						want = append(want, uint32(i))
					}
				}
				if !slices.Equal(all, want) {
					t.Fatalf("shards=%d %s par=%d: unlimited ids\n got %v\nwant %v", shards, name, par, all, want)
				}
				// Limits ending inside the first sealed segment, on its
				// boundary, inside a buffered global segment, on the boundary
				// to the next sealed one, inside that one, and past the end.
				for _, n := range []int{1, 100, 128, 129, 138, 255, 256, 128 * shards, 128*shards + 10, 128 * (shards + 1), total - 1, total, total + 5} {
					tag := fmt.Sprintf("shards=%d %s par=%d", shards, name, par)
					checkLimitPrefix(t, tag, mk, all, n, "qty", qtyOf)
				}
			}
		}
	}
}

// TestLimitFilledBySealedRowsScansNoDelta pins the other half of the
// ordered merge: a part's buffered rows are consulted only once the
// rows before them left the limit unfilled.
func TestLimitFilledBySealedRowsScansNoDelta(t *testing.T) {
	for _, shards := range []int{1, 2} {
		tb := frameTable(t, shards, true)
		frameCommit(t, tb, 0, 128*2*shards)
		tb.SealDelta()
		frameCommit(t, tb, 128*2*shards, 128*2*shards+50)
		for _, par := range []int{1, 2} {
			opts := SelectOptions{Parallelism: par}
			_, st, err := tb.Select().Options(opts).Limit(100).IDs()
			if err != nil {
				t.Fatal(err)
			}
			if st.DeltaRowsScanned != 0 {
				t.Errorf("shards=%d par=%d: Limit(100).IDs scanned %d delta rows, want 0", shards, par, st.DeltaRowsScanned)
			}
			_, st, err = tb.Select().Options(opts).Limit(100).Aggregate(Sum("qty"))
			if err != nil {
				t.Fatal(err)
			}
			if st.DeltaRowsScanned != 0 {
				t.Errorf("shards=%d par=%d: Limit(100).Aggregate scanned %d delta rows, want 0", shards, par, st.DeltaRowsScanned)
			}
			_, st, err = tb.Select().Options(opts).IDs()
			if err != nil {
				t.Fatal(err)
			}
			if st.DeltaRowsScanned != 50 {
				t.Errorf("shards=%d par=%d: unlimited IDs scanned %d delta rows, want 50", shards, par, st.DeltaRowsScanned)
			}
		}
	}
}

// TestGlobalSegmentHoles commits directly to single shards of a
// 3-shard table — bypassing the router, as racing committers
// effectively do — so the global segment space has holes, and checks
// every executor against brute force at several parallelism levels.
func TestGlobalSegmentHoles(t *testing.T) {
	type layout struct {
		name   string
		ingest bool
		// fill[c] is the number of rows committed directly to shard c;
		// sealed[c] how many of them are sealed afterwards (ingest only).
		fill   [3]int
		sealed [3]bool
	}
	layouts := []layout{
		{name: "only shard 1", fill: [3]int{0, 128, 0}},
		{name: "ragged 0, two segments on 1, empty 2", fill: [3]int{40, 256, 0}},
		{name: "sealed 1, buffered 2, empty 0", ingest: true, fill: [3]int{0, 128, 50}, sealed: [3]bool{false, true, false}},
		{name: "buffered 1 past a hole, sealed 2", ingest: true, fill: [3]int{0, 300, 128}, sealed: [3]bool{false, false, true}},
	}
	for _, lay := range layouts {
		tb := frameTable(t, 3, lay.ingest)
		sh := tb.shard
		model := map[int]frameRow{} // global id -> row
		next := 0
		units := 0
		for c, n := range lay.fill {
			if n == 0 {
				continue
			}
			frameCommit(t, sh.kids[c], next, next+n)
			for lid := 0; lid < n; lid++ {
				model[sh.gidOf(c, lid)] = frameRowAt(next + lid)
			}
			next += n
			sh.rows[c].Store(int64(n))
			if lay.sealed[c] {
				sh.kids[c].SealDelta()
			}
			units += sh.kids[c].Segments()
		}
		gids := make([]int, 0, len(model))
		for gid := range model {
			gids = append(gids, gid)
		}
		sort.Ints(gids)
		const lo = 100
		var want []uint32
		var sum int64
		groups := map[string]uint64{}
		for _, gid := range gids {
			if r := model[gid]; r.qty >= lo {
				want = append(want, uint32(gid))
				sum += r.qty
				groups[r.city]++
			}
		}
		top := slices.Clone(want)
		sort.SliceStable(top, func(i, j int) bool { return model[int(top[i])].qty > model[int(top[j])].qty })
		top = top[:min(5, len(top))]
		for _, par := range []int{1, 2, 8} {
			tag := fmt.Sprintf("%s par=%d", lay.name, par)
			mk := func() *Query {
				return tb.Select("qty", "city").Where(AtLeast[int64]("qty", lo)).Options(SelectOptions{Parallelism: par})
			}
			ids, _, err := mk().IDs()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ids, want) {
				t.Fatalf("%s: IDs\n got %v\nwant %v", tag, ids, want)
			}
			if n, _, err := mk().Count(); err != nil || n != uint64(len(want)) {
				t.Fatalf("%s: Count = %d, %v; want %d", tag, n, err, len(want))
			}
			q := mk()
			i := 0
			for id, row := range q.Rows() {
				r := model[id]
				if i >= len(want) || uint32(id) != want[i] || row.Get("qty") != r.qty || row.Get("city") != r.city {
					t.Fatalf("%s: Rows[%d] = %d %v, model %v", tag, i, id, row, r)
				}
				i++
			}
			if err := q.Err(); err != nil || i != len(want) {
				t.Fatalf("%s: Rows yielded %d rows, %v; want %d", tag, i, err, len(want))
			}
			if got, _, err := mk().OrderBy(Desc("qty")).Limit(5).IDs(); err != nil || !slices.Equal(got, top) {
				t.Fatalf("%s: OrderBy.Limit = %v, %v; want %v", tag, got, err, top)
			}
			res, _, err := mk().Aggregate(Sum("qty"), CountAll())
			if err != nil {
				t.Fatal(err)
			}
			if res.At(0).Int != sum || res.At(1).Int != int64(len(want)) {
				t.Fatalf("%s: Aggregate = %v, want sum %d over %d rows", tag, res, sum, len(want))
			}
			gres, _, err := mk().GroupBy("city").Aggregate(CountAll())
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]uint64{}
			for _, g := range gres.Groups {
				got[g.Key.(string)] = g.Rows
			}
			if !reflect.DeepEqual(got, groups) {
				t.Fatalf("%s: GroupBy = %v, want %v", tag, got, groups)
			}
			plan, err := mk().Explain()
			if err != nil {
				t.Fatal(err)
			}
			if plan.Segments != units || plan.TotalRows != len(model) {
				t.Fatalf("%s: Explain reports %d segments / %d rows, want %d / %d", tag, plan.Segments, plan.TotalRows, units, len(model))
			}
			qtyOf := func(id uint32) int64 { return model[int(id)].qty }
			for _, n := range []int{1, len(want) / 2, len(want)} {
				checkLimitPrefix(t, tag, mk, want, n, "qty", qtyOf)
			}
		}
	}
}

// TestExecutorValidationOrder pins the one validation order — the
// projection, then the order / group / aggregate columns, then the
// Limit(0) short-circuit, then the predicate — and that every executor
// reports a bad query with the same text at every shard count.
func TestExecutorValidationOrder(t *testing.T) {
	badBound := Predicate(Range[int32]("qty", 1, 2)) // qty is int64
	build := func(shards int) (*Table, *Prepared) {
		tb := frameTable(t, shards, false)
		frameCommit(t, tb, 0, 300)
		prep, err := tb.Prepare(EqualsP("qty", Param[int64]("v")), SelectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tb, prep
	}
	type run func(q *Query) error
	executors := []struct {
		name string
		run  run
	}{
		{"IDs", func(q *Query) error { _, _, err := q.IDs(); return err }},
		{"Count", func(q *Query) error { _, _, err := q.Count(); return err }},
		{"Batches", drainBatches},
		{"OrderBy.IDs", func(q *Query) error { _, _, err := q.OrderBy(Asc("qty")).IDs(); return err }},
		{"Aggregate", func(q *Query) error { _, _, err := q.Aggregate(Sum("qty")); return err }},
		{"GroupBy", func(q *Query) error { _, _, err := q.GroupBy("city").Aggregate(CountAll()); return err }},
		{"Explain", func(q *Query) error { _, err := q.Explain(); return err }},
		{"ExplainAggregate", func(q *Query) error { _, err := q.ExplainAggregate(Sum("qty")); return err }},
	}
	// want is the error every listed executor must report; executors
	// not listed must succeed. "*" stands for all of them.
	cases := []struct {
		name string
		mk   func(tb *Table, prep *Prepared) *Query
		run  map[string]run // overrides: the case needs its own executor call
		want map[string]string
	}{
		{
			name: "unknown projected column",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select("nope") },
			want: map[string]string{"*": `no column "nope"`},
		},
		{
			name: "unknown order column",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select().OrderBy(Asc("nope")) },
			run: map[string]run{
				"OrderBy.IDs": func(q *Query) error { _, _, err := q.IDs(); return err },
			},
			want: map[string]string{
				"IDs": `no column "nope"`, "OrderBy.IDs": `no column "nope"`, "Batches": `no column "nope"`, "Explain": `no column "nope"`,
				"Aggregate": "OrderBy does not apply", "GroupBy": "OrderBy does not apply", "ExplainAggregate": "OrderBy does not apply",
			},
		},
		{
			name: "unknown group key",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select() },
			run: map[string]run{
				"GroupBy": func(q *Query) error { _, _, err := q.GroupBy("nope").Aggregate(CountAll()); return err },
			},
			want: map[string]string{"GroupBy": `no column "nope"`},
		},
		{
			name: "bad aggregate column",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select() },
			run: map[string]run{
				"Aggregate":        func(q *Query) error { _, _, err := q.Aggregate(Sum("city")); return err },
				"GroupBy":          func(q *Query) error { _, _, err := q.GroupBy("city").Aggregate(Avg("nope")); return err },
				"ExplainAggregate": func(q *Query) error { _, err := q.ExplainAggregate(Sum("city")); return err },
			},
			want: map[string]string{
				"Aggregate": "sum needs a numeric column", "GroupBy": `no column "nope"`, "ExplainAggregate": "sum needs a numeric column",
			},
		},
		{
			name: "type-mismatched bound",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select().Where(badBound) },
			want: map[string]string{"*": "int32"},
		},
		{
			name: "unbound $param",
			mk:   func(_ *Table, prep *Prepared) *Query { return prep.Exec() },
			want: map[string]string{"*": "unbound parameters: $v"},
		},
		{
			name: "OrderBy on Aggregate beats everything",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select("nope").Where(badBound).OrderBy(Asc("qty")) },
			want: map[string]string{
				"Aggregate": "OrderBy does not apply", "GroupBy": "OrderBy does not apply", "ExplainAggregate": "OrderBy does not apply",
				"IDs": `no column "nope"`, "Count": `no column "nope"`, "Batches": `no column "nope"`, "OrderBy.IDs": `no column "nope"`, "Explain": `no column "nope"`,
			},
		},
		{
			name: "Limit>0 on GroupBy",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select().Limit(3) },
			want: map[string]string{"GroupBy": "Limit does not apply to GroupBy"},
		},
		{
			name: "projection before order column before predicate",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select("nope").Where(badBound) },
			run: map[string]run{
				"OrderBy.IDs": func(q *Query) error { _, _, err := q.OrderBy(Asc("nada")).IDs(); return err },
			},
			want: map[string]string{"*": `no column "nope"`},
		},
		{
			name: "order and aggregate columns before predicate",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select().Where(badBound) },
			run: map[string]run{
				"OrderBy.IDs":      func(q *Query) error { _, _, err := q.OrderBy(Asc("nada")).IDs(); return err },
				"Batches":          func(q *Query) error { q.OrderBy(Asc("nada")); return drainBatches(q) },
				"Aggregate":        func(q *Query) error { _, _, err := q.Aggregate(Sum("nada")); return err },
				"GroupBy":          func(q *Query) error { _, _, err := q.GroupBy("nada").Aggregate(CountAll()); return err },
				"ExplainAggregate": func(q *Query) error { _, err := q.ExplainAggregate(Sum("nada")); return err },
			},
			want: map[string]string{
				"*": "int32", "OrderBy.IDs": `no column "nada"`, "Batches": `no column "nada"`,
				"Aggregate": `no column "nada"`, "GroupBy": `no column "nada"`, "ExplainAggregate": `no column "nada"`,
			},
		},
		{
			name: "Limit(0) short-circuits the predicate, not the columns",
			mk:   func(tb *Table, _ *Prepared) *Query { return tb.Select().Where(badBound).Limit(0) },
			run: map[string]run{
				"OrderBy.IDs": func(q *Query) error { _, _, err := q.OrderBy(Asc("nada")).IDs(); return err },
			},
			// Explain executes no rows, so Limit(0) cuts nothing short there.
			want: map[string]string{"OrderBy.IDs": `no column "nada"`, "Explain": "int32", "ExplainAggregate": "int32"},
		},
	}
	tb1, prep1 := build(1)
	tb2, prep2 := build(2)
	for _, tc := range cases {
		for _, ex := range executors {
			run := ex.run
			if r, ok := tc.run[ex.name]; ok {
				run = r
			}
			text := func(err error) string {
				if err == nil {
					return ""
				}
				return err.Error()
			}
			got1 := text(run(tc.mk(tb1, prep1)))
			got2 := text(run(tc.mk(tb2, prep2)))
			if got1 != got2 {
				t.Errorf("%s / %s: error text differs by shard count\n shards=1: %q\n shards=2: %q", tc.name, ex.name, got1, got2)
			}
			want, ok := tc.want[ex.name]
			if !ok {
				want = tc.want["*"]
			}
			switch {
			case want == "" && got1 != "":
				t.Errorf("%s / %s: unexpected error %q", tc.name, ex.name, got1)
			case want != "" && !strings.Contains(got1, want):
				t.Errorf("%s / %s: error %q, want one mentioning %q", tc.name, ex.name, got1, want)
			}
		}
	}
}

// drainBatches drains a Batches iteration and returns its error.
func drainBatches(q *Query) error {
	for b := range q.Batches() {
		b.Release()
	}
	return q.Err()
}

// TestFrameLocksOnce: the frame read-locks an unsharded table exactly
// once per execution. sync.RWMutex is not reentrant — a second RLock
// behind a queued writer deadlocks — so (1) a Batches iteration that
// sees a writer queue up mid-iteration must still run to its end, and
// (2) every executor must keep finishing while a writer keeps queueing
// on the same lock.
func TestFrameLocksOnce(t *testing.T) {
	tb := frameTable(t, 1, true)
	frameCommit(t, tb, 0, 128*20)
	tb.SealDelta()
	frameCommit(t, tb, 128*20, 128*20+300)
	total := 128*20 + 300
	done := make(chan struct{})
	go func() { // t.Error only in here: not the test's own goroutine
		defer close(done)
		for _, par := range []int{1, 2} {
			// (1) Queue a writer while the iteration holds its lock, then
			// let the fan-out, the gathers and the delta scan finish.
			wrote := make(chan error, 1)
			queued := false
			rows := 0
			q := tb.Select().Options(SelectOptions{Parallelism: par})
			for b := range q.Batches() {
				rows += len(b.IDs)
				b.Release()
				if !queued {
					queued = true
					go func() { wrote <- Update(tb, "qty", 5, int64(7)) }()
					for tb.mu.TryRLock() { // fails once the writer waits
						tb.mu.RUnlock()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
			if err := q.Err(); err != nil || rows != total {
				t.Errorf("par=%d: Batches yielded %d rows, %v; want %d", par, rows, err, total)
			}
			if err := <-wrote; err != nil {
				t.Error(err)
			}
			// (2) A writer that keeps queueing while every executor runs.
			stop := make(chan struct{})
			writer := make(chan struct{})
			go func() {
				defer close(writer)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := Update(tb, "qty", i%total, int64(i%500)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			mk := func() *Query {
				return tb.Select("qty").Where(AtLeast[int64]("qty", 100)).Options(SelectOptions{Parallelism: par})
			}
			for i := 0; i < 60; i++ {
				if _, _, err := mk().IDs(); err != nil {
					t.Error(err)
				}
				if _, _, err := mk().Count(); err != nil {
					t.Error(err)
				}
				if err := drainBatches(mk().Limit(1500)); err != nil {
					t.Error(err)
				}
				if _, _, err := mk().OrderBy(Desc("qty")).Limit(5).IDs(); err != nil {
					t.Error(err)
				}
				if _, _, err := mk().Aggregate(Sum("qty")); err != nil {
					t.Error(err)
				}
				if _, _, err := mk().Limit(2000).Aggregate(Sum("qty")); err != nil {
					t.Error(err)
				}
				if _, _, err := mk().GroupBy("city").Aggregate(CountAll()); err != nil {
					t.Error(err)
				}
				if _, err := mk().Explain(); err != nil {
					t.Error(err)
				}
				if _, err := mk().ExplainAggregate(Sum("qty")); err != nil {
					t.Error(err)
				}
			}
			close(stop)
			<-writer
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("executors deadlocked behind a queued writer: the frame re-acquired a read lock it already held")
	}
}
