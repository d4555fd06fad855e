package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/coltype"
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

// TestComparisonsCountLiveLanes pins QueryStats.Comparisons to its
// Figure-11 meaning — one comparison per live row the residual kernel
// evaluates — on a table where every segment is scanned: three full
// segments and a ragged one (itself ending in a ragged block), with
// deletes in many blocks of each. Deleted lanes are cleared before the
// kernel runs, so they must not count; every block of every segment
// goes through a kernel once, and the index is never probed.
func TestComparisonsCountLiveLanes(t *testing.T) {
	const rows, segRows = 30_000, 8192
	tb := vecTestTable(t, rows, TableOptions{SegmentRows: segRows})
	deleted := 0
	for id := 5; id < rows; id += 97 {
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	var blocks uint64
	for lo := 0; lo < rows; lo += segRows {
		blocks += uint64((min(segRows, rows-lo) + BlockRows - 1) / BlockRows)
	}
	live := uint64(rows - deleted)
	pred := Range[int64]("v", 0, 900_000)
	for _, par := range []int{1, 2, 8} {
		// The histogram estimates ~90 % of every segment qualifies, far
		// above the threshold: each segment is one inexact scan run.
		q := tb.Select().Where(pred).Options(SelectOptions{Parallelism: par, ScanThreshold: 0.001})
		plan, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		if plan.BlocksVectorized != blocks {
			t.Errorf("par %d: Plan.BlocksVectorized = %d, want %d", par, plan.BlocksVectorized, blocks)
		}
		ids, st, err := q.IDs()
		if err != nil {
			t.Fatal(err)
		}
		n, cst, err := q.Count()
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(ids)) || n == 0 || n == live {
			t.Fatalf("par %d: Count %d, IDs %d, live rows %d: want a nonempty proper subset", par, n, len(ids), live)
		}
		for op, st := range map[string]core.QueryStats{"IDs": st, "Count": cst} {
			if st.Comparisons != live {
				t.Errorf("par %d %s: Comparisons = %d, want one per live row (%d)", par, op, st.Comparisons, live)
			}
			if st.BlocksVectorized != blocks {
				t.Errorf("par %d %s: BlocksVectorized = %d, want %d", par, op, st.BlocksVectorized, blocks)
			}
			if st.Probes != 0 {
				t.Errorf("par %d %s: Probes = %d on a scanned table", par, op, st.Probes)
			}
		}
	}
}

// TestAutoSealedSegmentsStayVectorized: under AutoSeal ingest the
// sealed segments keep answering through the block kernels while the
// delta store holds rows, and once the buffered rows are sealed every
// block of the table does, with the count unchanged.
func TestAutoSealedSegmentsStayVectorized(t *testing.T) {
	const sealed, segRows, batches, batchRows = 16384, 8192, 6, 2048
	tb := vecTestTable(t, sealed, TableOptions{SegmentRows: segRows})
	t.Cleanup(func() { tb.Close() })
	if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: true, MaxSealSegments: 1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(17, 19))
	for range batches {
		v, price := make([]int64, batchRows), make([]float64, batchRows)
		for i := range v {
			v[i], price[i] = rng.Int64N(1_000_000), rng.Float64()*1000
		}
		b := tb.NewBatch()
		for _, err := range []error{Append(b, "v", v), Append(b, "price", price), b.Commit()} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func() (uint64, core.QueryStats) {
		t.Helper()
		n, st, err := tb.Select().Where(Range[int64]("v", 0, 900_000)).
			Options(SelectOptions{Parallelism: 1, ScanThreshold: 0.001}).Count()
		if err != nil {
			t.Fatal(err)
		}
		return n, st
	}
	buffered, st := count()
	if st.BlocksVectorized < sealed/BlockRows {
		t.Errorf("with rows buffered: BlocksVectorized = %d, want at least the sealed segments' %d",
			st.BlocksVectorized, sealed/BlockRows)
	}
	tb.FlushDelta()
	if got := tb.DeltaRows(); got != 0 {
		t.Fatalf("%d rows buffered after FlushDelta", got)
	}
	n, st := count()
	if n != buffered {
		t.Errorf("count %d after sealing, %d before", n, buffered)
	}
	if want := uint64(sealed+batches*batchRows) / BlockRows; st.BlocksVectorized != want {
		t.Errorf("all sealed: BlocksVectorized = %d, want %d", st.BlocksVectorized, want)
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

// BenchmarkVectorizedSelect times IDs and Count through the block
// kernels at ~10% selectivity (single-threaded, inexact-run heavy).
func BenchmarkVectorizedSelect(b *testing.B) {
	t, pred := benchSelectTable(b)
	q := t.Select().Where(pred).Options(SelectOptions{Parallelism: 1})
	b.Run("ids/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := q.IDs(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("count/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Count(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVectorizedAggregate times a mask-consuming aggregation
// (sum+count over the same ~10% band).
func BenchmarkVectorizedAggregate(b *testing.B) {
	t, pred := benchSelectTable(b)
	q := t.Select().Where(pred).Options(SelectOptions{Parallelism: 1})
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := q.Aggregate(Sum("price"), CountAll()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// leafHolds is the row-at-a-time reference the kernels answer to: it
// evaluates the leaf as written — its kind, its untyped low/high, its
// raw IN-list compared with == — and shares none of compileLeaf's
// translation (typed bounds, deduplicated set, member map, band
// arithmetic).
func leafHolds[V coltype.Value](p *leafPred, v V) bool {
	switch p.kind {
	case kindRange:
		return v >= p.low.(V) && v < p.high.(V)
	case kindAtLeast:
		return v >= p.low.(V)
	case kindLessThan:
		return v < p.high.(V)
	case kindEquals:
		return v == p.low.(V)
	case kindIn:
		for _, m := range p.low.([]V) {
			if v == m {
				return true
			}
		}
		return false
	}
	panic(fmt.Sprintf("leaf kind %d", p.kind))
}

// kernelOracle holds every numeric leaf kernel over V to leafHolds,
// lane for lane, at every block width: whole (n = 64) and ragged (n = 1..63), the ragged block
// both ending the slab — a segment's tail — and followed by further rows
// — a delta stretch cut inside its vector — where an unmasked lane
// would show as a qualifying row past the block. vals holds 3*BlockRows
// values; the second block is the one evaluated.
func kernelOracle[V coltype.Value](t *testing.T, vals []V, bounds []V) {
	t.Helper()
	c := &colState[V]{name: "v", segs: []*segment[V]{{vals: vals}}}
	leaves := []*leafPred{{col: "v", kind: kindIn, low: []V{}}}
	for i, lo := range bounds {
		hi := bounds[(i+1)%len(bounds)]
		leaves = append(leaves,
			&leafPred{col: "v", kind: kindRange, low: lo, high: hi},
			&leafPred{col: "v", kind: kindRange, low: hi, high: lo},
			&leafPred{col: "v", kind: kindAtLeast, low: lo},
			&leafPred{col: "v", kind: kindLessThan, high: lo},
			&leafPred{col: "v", kind: kindEquals, low: lo},
			&leafPred{col: "v", kind: kindIn, low: []V{lo, hi}},                      // compared directly
			&leafPred{col: "v", kind: kindIn, low: append([]V{lo, hi}, vals[:7]...)}, // probed in the member map
		)
	}
	for _, leaf := range leaves {
		p, err := c.compileLeaf(leaf)
		if err != nil {
			t.Fatal(err)
		}
		pl := p.(*numLeafPlan[V])
		for _, slab := range [][]V{vals[:2*BlockRows], vals} {
			for n := 1; n <= BlockRows; n++ {
				from := BlockRows
				cut := slab[: from+n : from+n]
				if len(slab) > 2*BlockRows {
					cut = slab // rows past the block stay readable
				}
				var want uint64
				for i := 0; i < n; i++ {
					if leafHolds(leaf, slab[from+i]) {
						want |= 1 << uint(i)
					}
				}
				if got := pl.kernel(cut)(from, from+n); got != want {
					t.Fatalf("%T %s, %d-row block, slab of %d: kernel %064b\nreference             %064b",
						vals[0], leaf.describe(nil), n, len(cut), got, want)
				}
			}
		}
	}
}

// TestLeafKernelsMatchScalarChecks runs kernelOracle over all ten
// numeric types — the floats with NaN, ±Inf and -0 among values and
// bounds, uint64 with values above MaxInt64 (the wrap-around range
// compare's blind spot, were it signed) — and the dictionary-code
// kernels a string leaf uses: the int32 instantiation and the delta's
// membership table.
func TestLeafKernelsMatchScalarChecks(t *testing.T) {
	rng := rand.New(rand.NewPCG(64, 1))
	ints := func(lo, hi int64) []int64 { // small domain: every predicate hits and misses
		out := make([]int64, 3*BlockRows)
		for i := range out {
			out[i] = lo + rng.Int64N(min(hi-lo, 40))
		}
		return out
	}
	t.Run("int8", func(t *testing.T) {
		kernelOracle(t, castAll[int8](ints(math.MinInt8, math.MaxInt8), math.MinInt8, math.MaxInt8), []int8{math.MinInt8, -100, math.MaxInt8})
	})
	t.Run("int16", func(t *testing.T) {
		kernelOracle(t, castAll[int16](ints(-20, 20), math.MinInt16, math.MaxInt16), []int16{-7, 0, 9, math.MaxInt16})
	})
	t.Run("int32", func(t *testing.T) { // also a sealed string segment's codes
		kernelOracle(t, castAll[int32](ints(0, 40), math.MinInt32, math.MaxInt32), []int32{0, 5, 31, math.MinInt32})
	})
	t.Run("int64", func(t *testing.T) {
		kernelOracle(t, castAll[int64](ints(-20, 20), math.MinInt64, math.MaxInt64), []int64{-7, 9, math.MinInt64, math.MaxInt64})
	})
	t.Run("uint8", func(t *testing.T) {
		kernelOracle(t, castAll[uint8](ints(0, 5), 0, math.MaxUint8), []uint8{0, 1, 3, math.MaxUint8})
	})
	t.Run("uint16", func(t *testing.T) {
		kernelOracle(t, castAll[uint16](ints(0, 40), 0, math.MaxUint16), []uint16{0, 11, 30, math.MaxUint16})
	})
	t.Run("uint32", func(t *testing.T) {
		kernelOracle(t, castAll[uint32](ints(0, 40), 0, math.MaxUint32), []uint32{3, 17, math.MaxUint32})
	})
	t.Run("uint64", func(t *testing.T) {
		vals := castAll[uint64](ints(0, 40), 0, math.MaxUint64)
		for i := 0; i < len(vals); i += 3 {
			vals[i] += math.MaxInt64 // straddle the sign bit
		}
		kernelOracle(t, vals, []uint64{5, math.MaxInt64, math.MaxInt64 + 20, math.MaxUint64})
	})
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	t.Run("float32", func(t *testing.T) {
		vals := castAll[float32](ints(-20, 20), float32(-inf), float32(inf))
		vals[70], vals[100], vals[130] = float32(nan), float32(negZero), 0
		kernelOracle(t, vals, []float32{-3, float32(negZero), 7.5, float32(nan), float32(inf), float32(-inf)})
	})
	t.Run("float64", func(t *testing.T) {
		vals := castAll[float64](ints(-20, 20), -inf, inf)
		vals[70], vals[100], vals[130] = nan, negZero, 0
		kernelOracle(t, vals, []float64{-3, negZero, 7.5, nan, inf, -inf})
	})
	t.Run("member", func(t *testing.T) { // a delta slab's arrival-ordered codes
		codes := castAll[int32](ints(0, 40), 0, 39)
		member := make([]bool, 40)
		for code := range member {
			member[code] = rng.IntN(3) == 0
		}
		k := memberKernel(codes, member)
		for n := 1; n <= BlockRows; n++ {
			var want uint64
			for i := 0; i < n; i++ {
				if member[codes[BlockRows+i]] {
					want |= 1 << uint(i)
				}
			}
			if got := k(BlockRows, BlockRows+n); got != want {
				t.Fatalf("%d-row block: kernel %064b\nmember table      %064b", n, got, want)
			}
		}
	})
}

// TestCarryChainKernelEdges runs kernelOracle where the integer band's
// arithmetic wraps: at-least and less-than bounds at each type's
// extremes — the band from the type's minimum is then empty or the
// whole domain — with uint64 values straddling the sign bit, and
// equality on 0 and -1 (all ones for the unsigned types).
func TestCarryChainKernelEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(65, 2))
	// vals mixes picks — the extremes, their neighbours, 0 and ±1 — with
	// a small domain around zero, so every predicate hits and misses.
	vals := func(picks ...int64) []int64 {
		out := make([]int64, 3*BlockRows)
		for i := range out {
			if rng.IntN(2) == 0 {
				out[i] = picks[rng.IntN(len(picks))]
			} else {
				out[i] = rng.Int64N(9) - 4
			}
		}
		return out
	}
	signed := func(lo, hi int64) []int64 { return vals(lo, lo+1, hi-1, hi, 0, -1, 1) }
	t.Run("int8", func(t *testing.T) {
		kernelOracle(t, castAll[int8](signed(math.MinInt8, math.MaxInt8), math.MinInt8, math.MaxInt8),
			[]int8{math.MinInt8, math.MaxInt8, 0, -1})
	})
	t.Run("int16", func(t *testing.T) {
		kernelOracle(t, castAll[int16](signed(math.MinInt16, math.MaxInt16), math.MinInt16, math.MaxInt16),
			[]int16{math.MinInt16, math.MaxInt16, 0, -1})
	})
	t.Run("int32", func(t *testing.T) {
		kernelOracle(t, castAll[int32](signed(math.MinInt32, math.MaxInt32), math.MinInt32, math.MaxInt32),
			[]int32{math.MinInt32, math.MaxInt32, 0, -1})
	})
	t.Run("int64", func(t *testing.T) {
		kernelOracle(t, castAll[int64](signed(math.MinInt64, math.MaxInt64), math.MinInt64, math.MaxInt64),
			[]int64{math.MinInt64, math.MaxInt64, 0, -1})
	})
	t.Run("uint8", func(t *testing.T) {
		kernelOracle(t, castAll[uint8](vals(0, 1, math.MaxUint8-1, math.MaxUint8), 0, math.MaxUint8),
			[]uint8{0, math.MaxUint8, 1})
	})
	t.Run("uint16", func(t *testing.T) {
		kernelOracle(t, castAll[uint16](vals(0, 1, math.MaxUint16-1, math.MaxUint16), 0, math.MaxUint16),
			[]uint16{0, math.MaxUint16, 1})
	})
	t.Run("uint32", func(t *testing.T) {
		kernelOracle(t, castAll[uint32](vals(0, 1, math.MaxUint32-1, math.MaxUint32), 0, math.MaxUint32),
			[]uint32{0, math.MaxUint32, 1})
	})
	t.Run("uint64", func(t *testing.T) {
		u := castAll[uint64](vals(0, 1, -2, -1, math.MaxInt64, math.MinInt64), 0, math.MaxUint64)
		kernelOracle(t, u, []uint64{0, math.MaxUint64, math.MaxInt64, math.MaxInt64 + 1})
	})
}

// castAll converts the test values to V and splices the type's extremes
// into the block the oracle evaluates.
func castAll[V coltype.Value](in []int64, lowest, highest V) []V {
	out := make([]V, len(in))
	for i, v := range in {
		out[i] = V(v)
	}
	out[BlockRows+1], out[BlockRows+40] = lowest, highest
	return out
}

// kernSink keeps the kernels' masks observable to the compiler.
var kernSink uint64

// planKernel compiles one leaf over vals and returns the kernel
// numLeafPlan.kernel dispatches to — the one a table runs.
func planKernel[V coltype.Value](tb testing.TB, vals []V, kind leafKind, low, high any) blockKernel {
	tb.Helper()
	c := &colState[V]{name: "v", segs: []*segment[V]{{vals: vals}}}
	p, err := c.compileLeaf(&leafPred{col: "v", kind: kind, low: low, high: high})
	if err != nil {
		tb.Fatal(err)
	}
	return p.(*numLeafPlan[V]).kernel(vals)
}

// BenchmarkLeafKernels times every leaf kernel alone, in ns per row,
// over one 64K-row slab: whole blocks (the steady state) and ragged
// 37-row blocks (the padded tail every segment or delta stretch can end
// in — one block per unit, so its higher per-row cost is noise). Each
// kernel is the one the table dispatches to for the leaf;
// intRange/codes is a string leaf's, over int32 dictionary codes.
func BenchmarkLeafKernels(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewPCG(21, 22))
	ints, floats, codes := make([]int64, n), make([]float64, n), make([]int32, n)
	for i := range ints {
		ints[i], floats[i], codes[i] = rng.Int64N(1_000_000), rng.Float64()*1000, rng.Int32N(64)
	}
	big := make([]int64, 9)
	for i := range big {
		big[i] = int64(i) * 100_000
	}
	evens := make([]bool, 64)
	for i := range evens {
		evens[i] = i%2 == 0
	}
	for _, c := range []struct {
		name string
		k    blockKernel
	}{
		{"intRange", planKernel(b, ints, kindRange, int64(450_000), int64(550_000))},
		{"intRange/codes", intRangeKernel(codes, 16, 40)},
		{"range", planKernel(b, floats, kindRange, 450.0, 550.0)},
		{"atLeast", planKernel(b, ints, kindAtLeast, int64(900_000), nil)},
		{"lessThan", planKernel(b, floats, kindLessThan, nil, 100.0)},
		{"equals", planKernel(b, ints, kindEquals, int64(123_456), nil)},
		{"in/small", planKernel(b, ints, kindIn, big[:3], nil)},
		{"in/map", planKernel(b, ints, kindIn, big, nil)},
		{"member", memberKernel(codes, evens)},
	} {
		for _, w := range []struct {
			name string
			rows int
		}{{"full", BlockRows}, {"ragged", 37}} {
			b.Run(c.name+"/"+w.name, func(b *testing.B) {
				var acc uint64
				for i := 0; i < b.N; i++ {
					for from := 0; from < n; from += BlockRows {
						acc += c.k(from, from+w.rows)
					}
				}
				kernSink = acc
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n/BlockRows*w.rows), "ns/row")
			})
		}
	}
}
