package table

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
)

// vecTestTable builds an n-row table with a uniform random int64 column
// "v" in [0, 1e6) (inexact-run heavy under narrow ranges) and a second
// float64 column "price".
func vecTestTable(tb testing.TB, n int, opts TableOptions) *Table {
	tb.Helper()
	rng := rand.New(rand.NewPCG(11, 13))
	v := make([]int64, n)
	price := make([]float64, n)
	for i := range v {
		v[i] = rng.Int64N(1_000_000)
		price[i] = rng.Float64() * 1000
	}
	t := NewWithOptions("vec", opts)
	if err := AddColumn(t, "v", v, Imprints, core.Options{Seed: 5}); err != nil {
		tb.Fatal(err)
	}
	if err := AddColumn(t, "price", price, Imprints, core.Options{Seed: 6}); err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestScalarOptionEquivalence pins that SelectOptions.Scalar changes
// nothing observable except BlocksVectorized: ids, counts and every
// other statistic are identical, and only the vectorized run reports
// kernel blocks.
func TestScalarOptionEquivalence(t *testing.T) {
	tb := vecTestTable(t, 30_000, TableOptions{SegmentRows: 8192})
	for i := 0; i < 500; i += 97 {
		if err := tb.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	preds := []Predicate{
		Range[int64]("v", 100_000, 200_000),
		And(Range[int64]("v", 0, 900_000), Range[float64]("price", 100, 120)),
		Or(Range[int64]("v", 0, 50_000), AtLeast[int64]("v", 950_000)),
		AndNot(Range[int64]("v", 0, 500_000), Range[float64]("price", 0, 700)),
	}
	for pi, pred := range preds {
		for _, par := range []int{1, 2, 8} {
			ctx := fmt.Sprintf("pred %d par %d", pi, par)
			vec := SelectOptions{Parallelism: par}
			sca := SelectOptions{Parallelism: par, Scalar: true}
			idsV, stV, err := tb.Select().Where(pred).Options(vec).IDs()
			if err != nil {
				t.Fatal(err)
			}
			idsS, stS, err := tb.Select().Where(pred).Options(sca).IDs()
			if err != nil {
				t.Fatal(err)
			}
			equalIDs(t, idsV, idsS, ctx+": vectorized vs scalar ids")
			if stS.BlocksVectorized != 0 {
				t.Errorf("%s: scalar run reported %d vectorized blocks", ctx, stS.BlocksVectorized)
			}
			if stV.BlocksVectorized == 0 {
				t.Errorf("%s: vectorized run reported no kernel blocks", ctx)
			}
			// ScratchReused depends on sync.Pool warmth, not the plan.
			stV.BlocksVectorized, stV.ScratchReused, stS.ScratchReused = 0, 0, 0
			if stV != stS {
				t.Errorf("%s: stats diverge\nvectorized %+v\nscalar     %+v", ctx, stV, stS)
			}
			nV, cstV, err := tb.Select().Where(pred).Options(vec).Count()
			if err != nil {
				t.Fatal(err)
			}
			nS, cstS, err := tb.Select().Where(pred).Options(sca).Count()
			if err != nil {
				t.Fatal(err)
			}
			if nV != nS || nV != uint64(len(idsV)) {
				t.Errorf("%s: Count vectorized=%d scalar=%d ids=%d", ctx, nV, nS, len(idsV))
			}
			cstV.BlocksVectorized, cstV.ScratchReused, cstS.ScratchReused = 0, 0, 0
			if cstV != cstS {
				t.Errorf("%s: count stats diverge\nvectorized %+v\nscalar     %+v", ctx, cstV, cstS)
			}
		}
	}
}

// TestExplainBlocksVectorizedPreview pins that the plan's vectorized
// preview matches what the execution actually reports, and that the
// rendering mentions it.
func TestExplainBlocksVectorizedPreview(t *testing.T) {
	tb := vecTestTable(t, 20_000, TableOptions{SegmentRows: 8192})
	pred := Range[int64]("v", 100_000, 200_000)
	q := tb.Select().Where(pred).Options(SelectOptions{Parallelism: 2})
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := q.Count()
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksVectorized == 0 {
		t.Fatal("execution vectorized no blocks; test table too selective?")
	}
	if plan.BlocksVectorized != st.BlocksVectorized {
		t.Errorf("Plan.BlocksVectorized = %d, execution reported %d", plan.BlocksVectorized, st.BlocksVectorized)
	}
	if want := fmt.Sprintf("vectorized: %d blocks", plan.BlocksVectorized); !strings.Contains(plan.String(), want) {
		t.Errorf("plan rendering lacks %q:\n%s", want, plan.String())
	}
	scalarPlan, err := tb.Select().Where(pred).Options(SelectOptions{Scalar: true}).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if scalarPlan.BlocksVectorized != 0 {
		t.Errorf("scalar plan previews %d vectorized blocks, want 0", scalarPlan.BlocksVectorized)
	}
}

// TestVectorizedAllocs pins the allocation hygiene of the vectorized
// hot path: with the run-scratch pool, the per-segment kernel caches
// and the prepared statement's static execution tree, a steady-state
// serial Count or IDs allocates only the execution frame and the
// closures its fan-out hands the (shared serial/parallel) worker pool —
// a small constant that does not grow with the segments walked or the
// rows that qualify; IDs adds exactly its result slice.
func TestVectorizedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation pin runs without -race")
	}
	const maxAllocs = 8
	measure := func(rows int, pred Predicate) (count, ids float64, qualifying int) {
		t.Helper()
		tb := vecTestTable(t, rows, TableOptions{SegmentRows: 16384})
		prep, err := tb.Prepare(pred, SelectOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		cq := prep.Exec()
		if _, _, err := cq.Count(); err != nil {
			t.Fatal(err)
		}
		count = testing.AllocsPerRun(100, func() {
			if _, _, err := cq.Count(); err != nil {
				t.Fatal(err)
			}
		})
		iq := prep.Exec()
		got, _, err := iq.IDs()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("selection matched no rows")
		}
		ids = testing.AllocsPerRun(100, func() {
			if _, _, err := iq.IDs(); err != nil {
				t.Fatal(err)
			}
		})
		return count, ids, len(got)
	}
	narrow := Range[int64]("v", 100_000, 200_000) // ~10% of the rows
	count3, ids3, n3 := measure(40_000, narrow)   // 3 segments
	count30, ids30, n30 := measure(480_000, narrow)
	if count3 > maxAllocs || ids3 > maxAllocs {
		t.Errorf("vectorized Count made %.1f and IDs %.1f allocs/run, want <= %d", count3, ids3, maxAllocs)
	}
	if count3 != count30 || ids3 != ids30 {
		t.Errorf("allocs/run grow with segments: Count %.1f -> %.1f, IDs %.1f -> %.1f (3 -> 30 segments, %d -> %d rows)",
			count3, count30, ids3, ids30, n3, n30)
	}
	// Same table, 1.6K vs 16K qualifying rows.
	countFew, _, few := measure(40_000, Range[int64]("v", 100_000, 140_000))
	countMany, _, many := measure(40_000, Range[int64]("v", 100_000, 500_000))
	if few > 2_000 || many < 14_000 {
		t.Fatalf("fixture drifted: %d and %d qualifying rows, want ~1.6K and ~16K", few, many)
	}
	if countFew != countMany {
		t.Errorf("Count allocs/run grow with qualifying rows: %.1f at %d rows, %.1f at %d", countFew, few, countMany, many)
	}
}

// TestDeltaScanAllocs pins the same hygiene for buffered rows: a Count
// and a grouped aggregate over a table with rows in the delta store
// allocate a small constant — the delta's kernels, slotter and folds
// are built once per execution over its typed vectors — that does not
// grow with the rows buffered (a per-row box, closure or map entry
// would).
func TestDeltaScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation pin runs without -race")
	}
	measure := func(buffered int) (count, grouped float64) {
		t.Helper()
		tb := vecTestTable(t, 20_000, TableOptions{})
		kind := make([]int64, 20_000)
		if err := AddColumn(tb, "kind", kind, NoIndex, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddStringColumn("city", make([]string, 20_000), Imprints, core.Options{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, 4))
		for left := buffered; left > 0; left -= 500 {
			n := min(left, 500)
			v, price, kind, city := make([]int64, n), make([]float64, n), make([]int64, n), make([]string, n)
			for i := range v {
				v[i], price[i] = rng.Int64N(1_000_000), rng.Float64()*1000
				kind[i], city[i] = rng.Int64N(40), oraCities[rng.IntN(len(oraCities))]
			}
			b := tb.NewBatch()
			for _, err := range []error{Append(b, "v", v), Append(b, "price", price),
				Append(b, "kind", kind), b.AppendStrings("city", city), b.Commit()} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if tb.DeltaRows() != buffered {
			t.Fatalf("%d rows buffered, want %d", tb.DeltaRows(), buffered)
		}
		prep, err := tb.Prepare(And(Range[int64]("v", 100_000, 600_000), StrAtLeast("city", "b")),
			SelectOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := prep.Exec()
		if n, st, err := q.Count(); err != nil || n == 0 || st.DeltaRowsScanned != uint64(buffered) {
			t.Fatalf("Count = %d, %d buffered rows scanned of %d (%v)", n, st.DeltaRowsScanned, buffered, err)
		}
		count = testing.AllocsPerRun(50, func() {
			if _, _, err := q.Count(); err != nil {
				t.Fatal(err)
			}
		})
		for _, key := range []string{"kind", "city"} {
			g := prep.Exec().GroupBy(key)
			grouped += testing.AllocsPerRun(50, func() {
				if _, _, err := g.Aggregate(CountAll(), Sum("v"), Max("price"), Min("city")); err != nil {
					t.Fatal(err)
				}
			})
		}
		return count, grouped
	}
	count5, grouped5 := measure(5_000)
	count50, grouped50 := measure(50_000)
	if count5 > 16 {
		t.Errorf("Count over buffered rows made %.1f allocs/run, want <= 16", count5)
	}
	if count5 != count50 || grouped5 != grouped50 {
		t.Errorf("allocs/run grow with the rows buffered: Count %.1f -> %.1f, GroupBy %.1f -> %.1f (5K -> 50K rows)",
			count5, count50, grouped5, grouped50)
	}
}

// TestKernelCacheInvalidation pins that cached kernels follow the data:
// updates in place, appends that grow or move the slab, dictionary
// re-encodes and compactions must all be visible to the next execution
// of an already-prepared statement.
func TestKernelCacheInvalidation(t *testing.T) {
	tb := New("kerncache")
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = int64(i)
	}
	strs := make([]string, 200)
	for i := range strs {
		strs[i] = fmt.Sprintf("city-%03d", i%7)
	}
	if err := AddColumn(tb, "v", vals, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	prep, err := tb.Prepare(And(Range[int64]("v", 50, 150), StrEquals("s", "city-003")), SelectOptions{ScanThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	naive := func() []uint32 {
		v, _ := Column[int64](tb, "v")
		s, _ := tb.StringColumn("s")
		var want []uint32
		for id := range v {
			if !tb.IsDeleted(id) && v[id] >= 50 && v[id] < 150 && s[id] == "city-003" {
				want = append(want, uint32(id))
			}
		}
		return want
	}
	checkStep := func(step string) {
		t.Helper()
		got, _, err := prep.Exec().IDs()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		equalIDs(t, got, naive(), step)
	}
	checkStep("initial")

	if err := Update(tb, "v", 10, int64(60)); err != nil { // in-place slab mutation
		t.Fatal(err)
	}
	checkStep("after numeric update")

	if err := tb.UpdateString("s", 11, "city-003"); err != nil { // same dict, code update
		t.Fatal(err)
	}
	checkStep("after string update")

	if err := tb.UpdateString("s", 12, "novel-town"); err != nil { // re-encode, gen bump
		t.Fatal(err)
	}
	checkStep("after dictionary re-encode")

	b := tb.NewBatch() // tail append: slab grows (and may move)
	if err := Append(b, "v", []int64{70, 71, 72}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("s", []string{"city-003", "city-004", "city-003"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	checkStep("after append")

	if err := tb.Delete(60); err != nil {
		t.Fatal(err)
	}
	checkStep("after delete")

	tb.Compact() // segments rebuilt wholesale
	checkStep("after compact")
}

// benchSelectTable is the shared fixture of the vectorized micro-
// benches: 512K uniform rows, one segment per 64K.
func benchSelectTable(b *testing.B) (*Table, Predicate) {
	b.Helper()
	t := vecTestTable(b, 512*1024, TableOptions{})
	// ~10% selectivity over uniform [0, 1e6): inexact-run heavy.
	return t, Range[int64]("v", 450_000, 550_000)
}

// BenchmarkVectorizedSelect compares the block-kernel residual path
// against the scalar closure baseline for IDs and Count at ~10%
// selectivity (single-threaded, the acceptance workload).
func BenchmarkVectorizedSelect(b *testing.B) {
	t, pred := benchSelectTable(b)
	for _, mode := range []struct {
		name string
		opts SelectOptions
	}{
		{"scalar", SelectOptions{Parallelism: 1, Scalar: true}},
		{"kernel", SelectOptions{Parallelism: 1}},
	} {
		b.Run("ids/"+mode.name, func(b *testing.B) {
			q := t.Select().Where(pred).Options(mode.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := q.IDs(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("count/"+mode.name, func(b *testing.B) {
			q := t.Select().Where(pred).Options(mode.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := q.Count(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVectorizedAggregate compares the two residual paths under a
// mask-consuming aggregation (sum+count over a ~10% band).
func BenchmarkVectorizedAggregate(b *testing.B) {
	t, pred := benchSelectTable(b)
	for _, mode := range []struct {
		name string
		opts SelectOptions
	}{
		{"scalar", SelectOptions{Parallelism: 1, Scalar: true}},
		{"kernel", SelectOptions{Parallelism: 1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			q := t.Select().Where(pred).Options(mode.opts)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := q.Aggregate(Sum("price"), CountAll()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
