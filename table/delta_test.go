package table

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// oraCities is the categorical domain shared by the delta tests.
var oraCities = []string{
	"amsterdam", "athens", "berlin", "bern", "lisbon",
	"madrid", "oslo", "paris", "prague", "rome",
}

// mkDeltaPair builds the equivalence twins: dt holds the first `base`
// rows columnar and the remaining `extra` rows buffered in the delta
// store (ingest enabled, no background sealer so tests stage the
// transitions explicitly); twin holds all base+extra rows fully
// columnar. Every query must answer identically on both. qty is a
// shuffled permutation of 0..n-1, so ordering comparisons are tie-free.
func mkDeltaPair(t *testing.T, base, extra int) (dt, twin *Table, qty []int64, city []string) {
	t.Helper()
	n := base + extra
	rng := rand.New(rand.NewPCG(0xde17a, 0x5eed))
	qty = make([]int64, n)
	price := make([]float64, n)
	city = make([]string, n)
	for i, p := range rng.Perm(n) {
		qty[i] = int64(p)
		price[i] = rng.Float64() * 1000
		city[i] = oraCities[rng.IntN(len(oraCities))]
	}
	mk := func(rows int) *Table {
		tb := NewWithOptions("orders", TableOptions{SegmentRows: 256})
		if err := AddColumn(tb, "qty", qty[:rows], Imprints, core.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := AddColumn(tb, "price", price[:rows], Imprints, core.Options{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddStringColumn("city", city[:rows], Imprints, core.Options{Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	twin = mk(n)
	dt = mk(base)
	if err := dt.EnableDeltaIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	for off := base; off < n; off += 97 {
		end := off + 97
		if end > n {
			end = n
		}
		b := dt.NewBatch()
		if err := Append(b, "qty", qty[off:end]); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "price", price[off:end]); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendStrings("city", city[off:end]); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return dt, twin, qty, city
}

// assertEquivalent runs every executor over both tables at parallelism
// 1, 2 and 8 and fails on any divergence. Aggregates stick to exact
// domains (integer sums, float min/max) so twin-vs-delta comparisons
// are bit-exact regardless of segmentation.
func assertEquivalent(t *testing.T, dt, twin *Table, ctx string) {
	t.Helper()
	if g, w := dt.Rows(), twin.Rows(); g != w {
		t.Fatalf("%s: Rows = %d, want %d", ctx, g, w)
	}
	if g, w := dt.LiveRows(), twin.LiveRows(); g != w {
		t.Fatalf("%s: LiveRows = %d, want %d", ctx, g, w)
	}
	preds := []struct {
		name string
		p    Predicate
	}{
		{"all", nil},
		{"band", Range[int64]("qty", 200, 700)},
		{"and", And(Range[int64]("qty", 100, 1200), StrPrefix("city", "b"))},
		{"or", Or(StrEquals("city", "lisbon"), LessThan[float64]("price", 120))},
		{"andnot", AndNot(AtLeast[int64]("qty", 50), StrIn("city", "rome", "oslo"))},
	}
	specs := []AggSpec{
		CountAll(), Sum("qty"), Min("qty"), Max("qty"), Avg("qty"),
		Min("price"), Max("price"), Min("city"), Max("city"),
	}
	for _, par := range []int{1, 2, 8} {
		opts := SelectOptions{Parallelism: par}
		for _, pc := range preds {
			label := fmt.Sprintf("%s/p%d/%s", ctx, par, pc.name)
			mk := func(tb *Table) *Query {
				q := tb.Select("qty", "city").Options(opts)
				if pc.p != nil {
					q = q.Where(pc.p)
				}
				return q
			}
			gc, _, err := mk(dt).Count()
			if err != nil {
				t.Fatalf("%s: delta Count: %v", label, err)
			}
			wc, _, err := mk(twin).Count()
			if err != nil {
				t.Fatalf("%s: twin Count: %v", label, err)
			}
			if gc != wc {
				t.Fatalf("%s: Count = %d, want %d", label, gc, wc)
			}
			gids, _, err := mk(dt).IDs()
			if err != nil {
				t.Fatalf("%s: delta IDs: %v", label, err)
			}
			wids, _, err := mk(twin).IDs()
			if err != nil {
				t.Fatalf("%s: twin IDs: %v", label, err)
			}
			equalIDs(t, gids, wids, label)

			got := rowStrings(t, label+" delta", func() *Query { return mk(dt) })
			want := rowStrings(t, label+" twin", func() *Query { return mk(twin) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Rows diverge:\n got %v\nwant %v", label, got, want)
			}
			lgot := rowStrings(t, label+" delta ordered", func() *Query { return mk(dt).OrderBy(Desc("qty")).Limit(9) })
			lwant := rowStrings(t, label+" twin ordered", func() *Query { return mk(twin).OrderBy(Desc("qty")).Limit(9) })
			if !reflect.DeepEqual(lgot, lwant) {
				t.Fatalf("%s: ordered Rows diverge:\n got %v\nwant %v", label, lgot, lwant)
			}

			ga, _, err := mk(dt).Aggregate(specs...)
			if err != nil {
				t.Fatalf("%s: delta Aggregate: %v", label, err)
			}
			wa, _, err := mk(twin).Aggregate(specs...)
			if err != nil {
				t.Fatalf("%s: twin Aggregate: %v", label, err)
			}
			if !reflect.DeepEqual(ga.Values(), wa.Values()) {
				t.Fatalf("%s: Aggregate diverges:\n got %v\nwant %v", label, ga, wa)
			}

			gg, _, err := mk(dt).GroupBy("city").Aggregate(CountAll(), Sum("qty"))
			if err != nil {
				t.Fatalf("%s: delta GroupBy: %v", label, err)
			}
			wg, _, err := mk(twin).GroupBy("city").Aggregate(CountAll(), Sum("qty"))
			if err != nil {
				t.Fatalf("%s: twin GroupBy: %v", label, err)
			}
			if !reflect.DeepEqual(gg.Groups, wg.Groups) {
				t.Fatalf("%s: GroupBy diverges:\n got %v\nwant %v", label, gg.Groups, wg.Groups)
			}

			for _, ord := range []OrderSpec{Asc("qty"), Desc("qty")} {
				oids, _, err := mk(dt).OrderBy(ord).Limit(9).IDs()
				if err != nil {
					t.Fatalf("%s: delta OrderBy: %v", label, err)
				}
				tids, _, err := mk(twin).OrderBy(ord).Limit(9).IDs()
				if err != nil {
					t.Fatalf("%s: twin OrderBy: %v", label, err)
				}
				equalIDs(t, oids, tids, label+"/orderby")
			}
		}
	}
}

// TestDeltaEquivalenceStates walks the write path through its states —
// buffered, mutated in place, partially sealed, fully flushed,
// compacted — asserting after each that every executor at every
// parallelism level answers exactly like a fully-columnar twin.
func TestDeltaEquivalenceStates(t *testing.T) {
	const base, extra = 1000, 700
	dt, twin, _, _ := mkDeltaPair(t, base, extra)
	n := base + extra
	if got := dt.DeltaRows(); got != extra {
		t.Fatalf("DeltaRows = %d, want %d", got, extra)
	}
	assertEquivalent(t, dt, twin, "buffered")

	// Identical mutations on both: updates and deletes touching sealed
	// rows and buffered rows alike (replacement qty values stay unique
	// so ordering comparisons remain tie-free).
	mutate := func(tb *Table) {
		if err := Update(tb, "qty", 37, int64(n)); err != nil {
			t.Fatal(err)
		}
		if err := Update(tb, "qty", n-3, int64(n+1)); err != nil {
			t.Fatal(err)
		}
		if err := tb.UpdateString("city", 40, "utrecht"); err != nil {
			t.Fatal(err)
		}
		if err := tb.UpdateString("city", base+5, "zagreb"); err != nil {
			t.Fatal(err)
		}
		if err := tb.Delete(5); err != nil {
			t.Fatal(err)
		}
		if err := tb.Delete(base + 10); err != nil {
			t.Fatal(err)
		}
	}
	mutate(dt)
	mutate(twin)
	if !dt.IsDeleted(base+10) || !twin.IsDeleted(base+10) {
		t.Fatal("delete of a buffered row not visible")
	}
	assertEquivalent(t, dt, twin, "mutated")

	if sealed := dt.SealDelta(); sealed == 0 {
		t.Fatal("SealDelta sealed nothing")
	}
	if got := dt.DeltaRows(); got == 0 || got >= dt.SegmentRows() {
		t.Fatalf("after SealDelta: %d delta rows, want a partial remainder", got)
	}
	assertEquivalent(t, dt, twin, "sealed")

	// A second round of mutations against the now-smaller buffered
	// remainder, then a full flush.
	mutate2 := func(tb *Table) {
		if err := Update(tb, "qty", n-2, int64(n+2)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Delete(n - 5); err != nil {
			t.Fatal(err)
		}
	}
	mutate2(dt)
	mutate2(twin)
	if dt.FlushDelta() == 0 {
		t.Fatal("FlushDelta moved nothing")
	}
	if got := dt.DeltaRows(); got != 0 {
		t.Fatalf("after FlushDelta: %d delta rows, want 0", got)
	}
	assertEquivalent(t, dt, twin, "flushed")

	st := dt.IngestStats()
	switch {
	case !st.Enabled:
		t.Fatal("IngestStats.Enabled = false")
	case st.Seals == 0 || st.SealedRows == 0 || st.SealedSegments == 0:
		t.Fatalf("seal counters empty: %+v", st)
	case st.Flushes == 0 || st.FlushedRows == 0:
		t.Fatalf("flush counters empty: %+v", st)
	}

	gr := dt.Compact()
	wr := twin.Compact()
	if gr != wr || gr != 3 {
		t.Fatalf("Compact removed %d / %d rows, want 3", gr, wr)
	}
	assertEquivalent(t, dt, twin, "compacted")
}

// TestDeltaVisibility asserts the headline snapshot property: a
// committed batch is queryable immediately, before any seal.
func TestDeltaVisibility(t *testing.T) {
	dt, _, _, _ := mkDeltaPair(t, 300, 0)
	if err := dt.EnableDeltaIngest(IngestOptions{}); err == nil {
		t.Fatal("second EnableDeltaIngest did not fail")
	}
	b := dt.NewBatch()
	if err := Append(b, "qty", []int64{9_000_001}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "price", []float64{12.5}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("city", []string{"nicosia"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := dt.Rows(); got != 301 {
		t.Fatalf("Rows = %d, want 301", got)
	}
	cnt, st, err := dt.Select().Where(Equals[int64]("qty", 9_000_001)).Count()
	if err != nil || cnt != 1 {
		t.Fatalf("Count over buffered row = %d (%v), want 1", cnt, err)
	}
	if st.DeltaRowsScanned == 0 {
		t.Fatal("QueryStats.DeltaRowsScanned = 0, want > 0")
	}
	row, err := dt.ReadRow(300)
	if err != nil || row["city"] != "nicosia" || row["qty"] != int64(9_000_001) {
		t.Fatalf("ReadRow(300) = %v (%v)", row, err)
	}

	// A batch missing a column must be rejected whole.
	b2 := dt.NewBatch()
	if err := Append(b2, "qty", []int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := b2.Commit(); err == nil || !strings.Contains(err.Error(), "missing column") {
		t.Fatalf("partial batch commit error = %v", err)
	}
}

// TestDeltaSaveUnderIngest is the persistence satellite: Write on a
// table with a non-empty delta drains it first, and the round-tripped
// image answers exactly like the live table.
func TestDeltaSaveUnderIngest(t *testing.T) {
	dt, twin, _, _ := mkDeltaPair(t, 400, 300)
	var buf bytes.Buffer
	if err := dt.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := dt.DeltaRows(); got != 0 {
		t.Fatalf("after Write: %d delta rows, want 0 (drained)", got)
	}
	rt, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rt.IngestStats().Enabled {
		t.Fatal("re-read table reports delta ingest enabled")
	}
	assertEquivalent(t, rt, twin, "reread")
	gq, err := Column[int64](rt, "qty")
	if err != nil {
		t.Fatal(err)
	}
	wq, err := Column[int64](twin, "qty")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gq, wq) {
		t.Fatal("round-tripped qty column diverges")
	}
}

// TestDeltaExplain asserts plans surface the delta scan: TotalRows
// includes buffered rows, DeltaRows is set, and the rendering names it.
func TestDeltaExplain(t *testing.T) {
	dt, _, _, _ := mkDeltaPair(t, 300, 120)
	p, err := dt.Select().Where(Range[int64]("qty", 0, 420)).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if p.DeltaRows != 120 {
		t.Fatalf("Plan.DeltaRows = %d, want 120", p.DeltaRows)
	}
	if p.TotalRows != 420 {
		t.Fatalf("Plan.TotalRows = %d, want 420", p.TotalRows)
	}
	if s := p.String(); !strings.Contains(s, "delta: 120 rows") {
		t.Fatalf("Plan.String() missing delta clause: %q", s)
	}
}

// TestDeltaMaintainReport asserts Maintain reports write-path health.
func TestDeltaMaintainReport(t *testing.T) {
	dt, _, _, _ := mkDeltaPair(t, 300, 77)
	rep := dt.Maintain(MaintainOptions{})
	if rep.DeltaRows != 77 {
		t.Fatalf("MaintenanceReport.DeltaRows = %d, want 77", rep.DeltaRows)
	}
	if s := rep.String(); !strings.Contains(s, "delta row(s) buffered") {
		t.Fatalf("MaintenanceReport.String() = %q", s)
	}
}

// TestDeltaAddColumnFlushesFirst: layout changes drain the delta so the
// new column covers buffered rows too, and subsequent batches must
// carry the new column.
func TestDeltaAddColumnFlushesFirst(t *testing.T) {
	dt, _, _, _ := mkDeltaPair(t, 300, 50)
	bonus := make([]int64, 350)
	for i := range bonus {
		bonus[i] = int64(i % 7)
	}
	if err := AddColumn(dt, "bonus", bonus, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := dt.DeltaRows(); got != 0 {
		t.Fatalf("after AddColumn: %d delta rows, want 0", got)
	}
	b := dt.NewBatch()
	for _, err := range []error{
		Append(b, "qty", []int64{42}),
		Append(b, "price", []float64{1}),
		b.AppendStrings("city", []string{"turin"}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Commit(); err == nil {
		t.Fatal("batch without the new column committed")
	}
	if err := Append(b, "bonus", []int64{99}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	cnt, _, err := dt.Select().Where(Equals[int64]("bonus", 99)).Count()
	if err != nil || cnt != 1 {
		t.Fatalf("Count over new column = %d (%v), want 1", cnt, err)
	}
}

// TestDeltaPrepared runs a compiled statement over buffered rows.
func TestDeltaPrepared(t *testing.T) {
	dt, twin, _, _ := mkDeltaPair(t, 500, 230)
	pred := RangeP("qty", Param[int64]("lo"), Param[int64]("hi"))
	pd, err := dt.Prepare(pred, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := twin.Prepare(pred, SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range [][2]int64{{0, 100}, {300, 650}, {700, 730}} {
		gids, _, err := pd.Bind("lo", band[0]).Bind("hi", band[1]).IDs()
		if err != nil {
			t.Fatal(err)
		}
		wids, _, err := pt.Bind("lo", band[0]).Bind("hi", band[1]).IDs()
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, gids, wids, fmt.Sprintf("prepared[%d,%d)", band[0], band[1]))
	}
}

// TestDeltaAutoSeal exercises the background sealer end to end: after
// enough commits the worker drains the delta below one segment without
// any manual call, and Close is idempotent.
func TestDeltaAutoSeal(t *testing.T) {
	tb := NewWithOptions("stream", TableOptions{SegmentRows: 128})
	seedVals := make([]int64, 128)
	for i := range seedVals {
		seedVals[i] = int64(i)
	}
	if err := AddColumn(tb, "a", seedVals, Imprints, core.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: true}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < 10*128; off += 64 {
		vals := make([]int64, 64)
		for i := range vals {
			vals[i] = int64(off + i)
		}
		b := tb.NewBatch()
		if err := Append(b, "a", vals); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for tb.DeltaRows() >= 128 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := tb.DeltaRows(); got >= 128 {
		t.Fatalf("background sealer left %d delta rows (>= one segment)", got)
	}
	if st := tb.IngestStats(); st.Seals == 0 || st.SealedRows == 0 {
		t.Fatalf("no background seals recorded: %+v", st)
	}
	if got := tb.Rows(); got != 11*128 {
		t.Fatalf("Rows = %d, want %d", got, 11*128)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommit is what one batch costs the write path, staging
// included, per seal policy: "immediate" is a table that never called
// EnableDeltaIngest (append to the store, flush, all under the write
// lock — rows indexed on return), "buffered" one that did, without a
// sealer (append under the read lock — rows left in the store). The
// shapes are mixed-ingest's /insert batch (512 rows of the benchmark's
// five columns, 64 distinct cities) and one whole segment's worth, on
// an unsharded table and on 2 shards (each batch routed in
// segment-bounded chunks). Tables are replaced outside the timer once
// they pass a million rows.
func BenchmarkCommit(b *testing.B) {
	const pool = 1 << 16
	rng := rand.New(rand.NewPCG(23, 23))
	ts, qty := make([]int64, pool), make([]int64, pool)
	price, pri, city := make([]float64, pool), make([]uint8, pool), make([]string, pool)
	for i := range ts {
		ts[i], qty[i] = int64(i), rng.Int64N(1000)
		price[i], pri[i] = rng.Float64()*500, uint8(rng.IntN(5))
		city[i] = fmt.Sprint("city-", rng.IntN(64))
	}
	fresh := func(buffered bool, shards int) *Table {
		tb := NewWithOptions("orders", TableOptions{Shards: shards})
		add := func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		}
		add(AddColumn(tb, "ts", []int64{}, Imprints, core.Options{Seed: 1}))
		add(AddColumn(tb, "qty", []int64{}, Imprints, core.Options{Seed: 2}))
		add(AddColumn(tb, "price", []float64{}, Imprints, core.Options{Seed: 3}))
		add(AddColumn(tb, "pri", []uint8{}, Imprints, core.Options{Seed: 4}))
		add(tb.AddStringColumn("city", []string{}, Imprints, core.Options{Seed: 5}))
		if buffered {
			add(tb.EnableDeltaIngest(IngestOptions{}))
		}
		return tb
	}
	for _, rows := range []int{512, pool} {
		for _, policy := range []string{"immediate", "buffered"} {
			for _, shards := range []int{1, 2} {
				b.Run(fmt.Sprintf("rows=%d/%s/shards=%d", rows, policy, shards), func(b *testing.B) {
					tb := fresh(policy == "buffered", shards)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if tb.Rows() >= 1<<20 {
							b.StopTimer()
							tb = fresh(policy == "buffered", shards)
							b.StartTimer()
						}
						lo := (i * rows) % pool
						bt := tb.NewBatch()
						err := errors.Join(
							Append(bt, "ts", ts[lo:lo+rows]), Append(bt, "qty", qty[lo:lo+rows]),
							Append(bt, "price", price[lo:lo+rows]), Append(bt, "pri", pri[lo:lo+rows]),
							bt.AppendStrings("city", city[lo:lo+rows]))
						if err = errors.Join(err, bt.Commit()); err != nil {
							b.Fatal(err)
						}
					}
					if policy == "immediate" && tb.DeltaRows() != 0 {
						b.Fatal("an immediate commit left rows buffered")
					}
				})
			}
		}
	}
}
