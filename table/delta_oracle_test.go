package table

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/coltype"
	"repro/internal/core"
)

// Snapshot-isolation oracle for the write path, once per seal policy:
// one writer streams randomized atomic mutations (batch appends,
// updates, string updates, deletes) while — auto — the background
// sealer concurrently moves rows from the delta store into sealed
// segments, or — manual — the writer seals by hand every few
// operations, or — immediate — every commit seals itself under its own
// write lock, and reader goroutines
// probe the table with single-call aggregates, ungrouped and grouped
// by turns. Every probe is one
// snapshot (one read-lock acquisition), so its result must equal the
// table's state after exactly k writer operations, for some k between
// the operations known applied before the probe and those possibly
// started by its end. Any torn batch, half-installed seal, or
// delta/segment double-count produces a tuple matching no version.
// Afterwards the same operation log replays serially into a fresh
// table and both images must serialize byte-identically.

// oraSummary is the exact state fingerprint probed by readers:
// count/sum/min/max over the live rows of the int64 column.
type oraSummary struct {
	count, sum, min, max int64
}

// oraOp is one recorded writer operation, replayable serially.
type oraOp struct {
	kind byte // 'a' append, 'u' update, 's' string update, 'd' delete
	id   int
	val  int64
	str  string
	rows []int64
	strs []string
}

// oraApply applies one operation to a table; mutations are atomic with
// respect to concurrent readers.
func oraApply(tb *Table, op oraOp) error {
	switch op.kind {
	case 'a':
		b := tb.NewBatch()
		if err := Append(b, "a", op.rows); err != nil {
			return err
		}
		if err := b.AppendStrings("s", op.strs); err != nil {
			return err
		}
		return b.Commit()
	case 'u':
		return Update(tb, "a", op.id, op.val)
	case 's':
		return tb.UpdateString("s", op.id, op.str)
	default:
		return tb.Delete(op.id)
	}
}

// oraMirror is the writer's serial model of the table.
type oraMirror struct {
	vals    []int64
	deleted []bool
}

func (m *oraMirror) apply(op oraOp) {
	switch op.kind {
	case 'a':
		m.vals = append(m.vals, op.rows...)
		m.deleted = append(m.deleted, make([]bool, len(op.rows))...)
	case 'u':
		m.vals[op.id] = op.val
	case 'd':
		m.deleted[op.id] = true
	}
}

func (m *oraMirror) summary() oraSummary {
	var s oraSummary
	first := true
	for i, v := range m.vals {
		if m.deleted[i] {
			continue
		}
		s.count++
		s.sum += v
		if first || v < s.min {
			s.min = v
		}
		if first || v > s.max {
			s.max = v
		}
		first = false
	}
	return s
}

func oraGen(rng *rand.Rand, total int) oraOp {
	switch r := rng.IntN(100); {
	case r < 50:
		n := 16 + rng.IntN(48)
		rows := make([]int64, n)
		strs := make([]string, n)
		for i := range rows {
			rows[i] = rng.Int64N(1_000_000)
			strs[i] = oraCities[rng.IntN(len(oraCities))]
		}
		return oraOp{kind: 'a', rows: rows, strs: strs}
	case r < 70:
		return oraOp{kind: 'u', id: rng.IntN(total), val: rng.Int64N(1_000_000)}
	case r < 80:
		return oraOp{kind: 's', id: rng.IntN(total), str: oraCities[rng.IntN(len(oraCities))]}
	default:
		return oraOp{kind: 'd', id: rng.IntN(total)}
	}
}

func mkLSMOracleTable(t *testing.T, vals []int64, strs []string, policy sealPolicy) *Table {
	t.Helper()
	tb := NewWithOptions("oracle", TableOptions{SegmentRows: 128})
	if err := AddColumn(tb, "a", vals, Imprints, core.Options{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 12}); err != nil {
		t.Fatal(err)
	}
	policy.apply(t, tb)
	return tb
}

// oraProbe takes the fingerprint with one ungrouped aggregate call.
func oraProbe(tb *Table, par int) (oraSummary, error) {
	res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).
		Aggregate(CountAll(), Sum("a"), Min("a"), Max("a"))
	if err != nil {
		return oraSummary{}, err
	}
	return oraSummary{count: res.At(0).Int, sum: res.At(1).Int, min: res.At(2).Int, max: res.At(3).Int}, nil
}

// oraGroupedProbe takes the same fingerprint through one grouped call
// (still one snapshot): the per-city groups — sealed slots plus delta
// partials — must add up to exactly one version too.
func oraGroupedProbe(tb *Table, par int) (oraSummary, error) {
	res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).
		GroupBy("s").Aggregate(CountAll(), Sum("a"), Min("a"), Max("a"))
	if err != nil {
		return oraSummary{}, err
	}
	var s oraSummary
	for i, g := range res.Groups {
		s.count += g.Aggs[0].Int
		s.sum += g.Aggs[1].Int
		if i == 0 || g.Aggs[2].Int < s.min {
			s.min = g.Aggs[2].Int
		}
		if i == 0 || g.Aggs[3].Int > s.max {
			s.max = g.Aggs[3].Int
		}
	}
	return s, nil
}

func TestDeltaSnapshotIsolationOracle(t *testing.T) {
	ops := 320
	if raceEnabled {
		ops = 120
	}
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			for _, policy := range sealPolicies {
				t.Run(fmt.Sprintf("policy=%s", policy), func(t *testing.T) { deltaSnapshotOracle(t, par, policy, ops) })
			}
		})
	}
}

func deltaSnapshotOracle(t *testing.T, par int, policy sealPolicy, ops int) {
	const n0 = 1024
	rng := rand.New(rand.NewPCG(0x04ac1e, uint64(par)))
	vals := make([]int64, n0)
	strs := make([]string, n0)
	for i := range vals {
		vals[i] = rng.Int64N(1_000_000)
		strs[i] = oraCities[rng.IntN(len(oraCities))]
	}
	dt := mkLSMOracleTable(t, vals, strs, policy)

	// versions[k] is the exact summary after k operations; it is
	// written before hiV publishes k, and readers only index
	// versions up to a published hiV, so the slots they read are
	// complete. applied publishes k only after the table mutation
	// finished, bounding a probe's version from below.
	mirror := &oraMirror{vals: append([]int64(nil), vals...), deleted: make([]bool, n0)}
	versions := make([]oraSummary, ops+1)
	versions[0] = mirror.summary()
	opLog := make([]oraOp, 0, ops)
	var hiV, applied atomic.Int64
	done := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for k := 1; k <= ops; k++ {
			op := oraGen(rng, len(mirror.vals))
			mirror.apply(op)
			versions[k] = mirror.summary()
			opLog = append(opLog, op)
			hiV.Store(int64(k))
			if err := oraApply(dt, op); err != nil {
				t.Errorf("writer op %d: %v", k, err)
				return
			}
			applied.Store(int64(k))
			if policy == sealManual && k%16 == 0 {
				dt.SealDelta()
			}
			if policy == sealImmediate && dt.DeltaRows() != 0 {
				t.Errorf("writer op %d left %d rows buffered under the immediate policy", k, dt.DeltaRows())
				return
			}
		}
	}()

	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			probes := 0
			for {
				select {
				case <-done:
					if probes >= 25 {
						return
					}
				default:
				}
				probes++
				lo := applied.Load()
				var got oraSummary
				var err error
				if probes%2 == 0 {
					got, err = oraProbe(dt, par)
				} else {
					got, err = oraGroupedProbe(dt, par)
				}
				hi := hiV.Load()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				ok := false
				for v := lo; v <= hi; v++ {
					if versions[v] == got {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("reader %d: snapshot %+v matches no version in [%d,%d] — torn read",
						r, got, lo, hi)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Serial replay: the same operations against a plain columnar
	// table must land on the same final state, byte-identical
	// after both images fold their deletes.
	sr := mkLSMOracleTable(t, vals, strs, sealImmediate)
	for k, op := range opLog {
		if err := oraApply(sr, op); err != nil {
			t.Fatalf("replay op %d: %v", k, err)
		}
	}
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}
	if g, w := dt.Compact(), sr.Compact(); g != w {
		t.Fatalf("Compact removed %d rows, serial replay %d", g, w)
	}
	var live, serial bytes.Buffer
	if err := dt.Write(&live); err != nil {
		t.Fatal(err)
	}
	if err := sr.Write(&serial); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), serial.Bytes()) {
		t.Fatalf("concurrent image (%d bytes) differs from serial replay (%d bytes)",
			live.Len(), serial.Len())
	}
}

// ---- buffered vs flushed ----

// Columnar-delta oracle: the same rows, once buffered in the delta
// store and once flushed into columnar storage, must give every
// executor byte-identical answers — the buffered rows are evaluated by
// the segment kernels and folds over the delta's typed vectors, so a
// leaf, fold or gather that reads them differently shows up as a
// divergence. Covered: all ten numeric types under every leaf kind,
// string leaves over symbols that exist only in the delta (whose
// dictionary is arrival-ordered, not sorted), trees of both, at shard
// counts 1 and 3 and parallelism 1 and 2, with deletes and in-place
// updates on both sides of the watermark. Aggregates stay in exact
// domains (integer-valued floats), so segmentation cannot move a bit.

// dcoCols names the numeric columns, one per supported type.
var dcoCols = []string{"i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64", "f32", "f64"}

// dcoSealedSyms appear in sealed and buffered rows, dcoDeltaSyms only
// in buffered ones ("novel…" arrives by update).
var (
	dcoSealedSyms = []string{"delta", "alpha", "echo", "bravo", "charlie"}
	dcoDeltaSyms  = []string{"mike", "kilo", "lima", "juliet", "november", "kilogram"}
)

func dcoVal(i int) int { return (i*37 + 11) % 100 }

func dcoSym(i, sealed int) string {
	if i < sealed || i%3 == 0 {
		return dcoSealedSyms[i%len(dcoSealedSyms)]
	}
	return dcoDeltaSyms[i%len(dcoDeltaSyms)]
}

// dcoCast fills one typed vector with dcoVal(from..to).
func dcoCast[V coltype.Value](from, to int) []V {
	out := make([]V, to-from)
	for i := range out {
		out[i] = V(dcoVal(from + i))
	}
	return out
}

// mkDeltaColumnarTable builds the fixture: sealed rows by AddColumn,
// the rest by batch commits with one SealDelta in between (so sealed
// storage holds delta-born segments too), then deletes and updates on
// both sides of the watermark. flush folds everything buffered.
func mkDeltaColumnarTable(t *testing.T, shards int, flush bool) *Table {
	t.Helper()
	const sealed, total = 300, 1000
	tb := NewWithOptions("dco", TableOptions{SegmentRows: 128, Shards: shards})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	opts := core.Options{Seed: 5}
	must(AddColumn(tb, "i8", dcoCast[int8](0, sealed), Imprints, opts))
	must(AddColumn(tb, "i16", dcoCast[int16](0, sealed), NoIndex, opts))
	must(AddColumn(tb, "i32", dcoCast[int32](0, sealed), NoIndex, opts))
	must(AddColumn(tb, "i64", dcoCast[int64](0, sealed), Imprints, opts))
	must(AddColumn(tb, "u8", dcoCast[uint8](0, sealed), Imprints, opts))
	must(AddColumn(tb, "u16", dcoCast[uint16](0, sealed), Imprints, opts))
	must(AddColumn(tb, "u32", dcoCast[uint32](0, sealed), Imprints, opts))
	must(AddColumn(tb, "u64", dcoCast[uint64](0, sealed), Imprints, opts))
	must(AddColumn(tb, "f32", dcoCast[float32](0, sealed), Imprints, opts))
	must(AddColumn(tb, "f64", dcoCast[float64](0, sealed), Imprints, opts))
	syms := make([]string, total)
	for i := range syms {
		syms[i] = dcoSym(i, sealed)
	}
	must(tb.AddStringColumn("s", syms[:sealed], Imprints, opts))
	must(tb.EnableDeltaIngest(IngestOptions{}))
	for from := sealed; from < total; from += 97 {
		to := min(from+97, total)
		b := tb.NewBatch()
		must(Append(b, "i8", dcoCast[int8](from, to)))
		must(Append(b, "i16", dcoCast[int16](from, to)))
		must(Append(b, "i32", dcoCast[int32](from, to)))
		must(Append(b, "i64", dcoCast[int64](from, to)))
		must(Append(b, "u8", dcoCast[uint8](from, to)))
		must(Append(b, "u16", dcoCast[uint16](from, to)))
		must(Append(b, "u32", dcoCast[uint32](from, to)))
		must(Append(b, "u64", dcoCast[uint64](from, to)))
		must(Append(b, "f32", dcoCast[float32](from, to)))
		must(Append(b, "f64", dcoCast[float64](from, to)))
		must(b.AppendStrings("s", syms[from:to]))
		must(b.Commit())
		if from == sealed+2*97 {
			tb.SealDelta()
		}
	}
	for _, id := range []int{5, 131, 299, 640, 801, 802, 999} {
		must(tb.Delete(id))
	}
	for _, id := range []int{17, 700, 950} {
		must(Update(tb, "i64", id, int64(48)))
		must(Update(tb, "f32", id, float32(48)))
		must(Update(tb, "u8", id, uint8(3)))
		must(tb.UpdateString("s", id, "novel-"+fmt.Sprint(id)))
	}
	if flush {
		tb.FlushDelta()
		if tb.DeltaRows() != 0 {
			t.Fatalf("FlushDelta left %d rows buffered", tb.DeltaRows())
		}
	} else if tb.DeltaRows() < 400 {
		t.Fatalf("fixture buffers only %d rows", tb.DeltaRows())
	}
	return tb
}

// dcoNumLeaves is every leaf kind on one numeric column: a band, both
// half-lines, a point, a small IN (compared directly) and a large one
// (probed through the member map), an empty band.
func dcoNumLeaves[V coltype.Value](col string) []Predicate {
	return []Predicate{
		Range[V](col, 20, 60), AtLeast[V](col, 90), LessThan[V](col, 7), Equals[V](col, 48),
		In[V](col, 3, 48, 97), In[V](col, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89), Range[V](col, 60, 20),
		And(AtLeast[V](col, 30), LessThan[V](col, 33)), // fuses into one band
	}
}

func TestDeltaColumnarOracle(t *testing.T) {
	type namedPred struct {
		name string
		p    Predicate
	}
	var preds []namedPred
	add := func(col string, ps []Predicate) {
		for i, p := range ps {
			preds = append(preds, namedPred{fmt.Sprintf("%s/%d", col, i), p})
		}
	}
	add("i8", dcoNumLeaves[int8]("i8"))
	add("i16", dcoNumLeaves[int16]("i16"))
	add("i32", dcoNumLeaves[int32]("i32"))
	add("i64", dcoNumLeaves[int64]("i64"))
	add("u8", dcoNumLeaves[uint8]("u8"))
	add("u16", dcoNumLeaves[uint16]("u16"))
	add("u32", dcoNumLeaves[uint32]("u32"))
	add("u64", dcoNumLeaves[uint64]("u64"))
	add("f32", dcoNumLeaves[float32]("f32"))
	add("f64", dcoNumLeaves[float64]("f64"))
	add("s", []Predicate{
		StrEquals("s", "kilo"), StrEquals("s", "novel-700"), StrEquals("s", "absent"),
		StrIn("s", "mike", "absent", "novel-950"),
		StrIn("s", "juliet", "kilo", "lima", "mike", "november", "alpha", "nope"),
		StrRange("s", "kilo", "lima"), StrRange("s", "j", "kilogram"),
		StrPrefix("s", "kilo"), StrPrefix("s", "novel-"), StrPrefix("s", ""),
		StrAtLeast("s", "lima"), StrLessThan("s", "bravo"), StrLessThan("s", "kilogram"),
	})
	add("tree", []Predicate{
		nil,
		And(Range[int16]("i16", 10, 80), StrPrefix("s", "k")),
		Or(StrEquals("s", "november"), LessThan[float64]("f64", 4), Equals[uint64]("u64", 99)),
		AndNot(AtLeast[uint32]("u32", 25), StrIn("s", "kilo", "alpha")),
		And(Or(Equals[int8]("i8", 48), StrAtLeast("s", "mike")), AndNot(LessThan[float32]("f32", 70), StrPrefix("s", "novel"))),
	})

	aggSpecs := []AggSpec{CountAll(), Min("s"), Max("s")}
	for _, c := range dcoCols {
		aggSpecs = append(aggSpecs, Sum(c), Min(c), Max(c), Avg(c))
	}
	groupSpecs := []AggSpec{CountAll(), Sum("i64"), Min("f64"), Max("f32"), Avg("u16"), Min("s"), Max("s")}

	for _, shards := range []int{1, 3} {
		buffered := mkDeltaColumnarTable(t, shards, false)
		flushed := mkDeltaColumnarTable(t, shards, true)
		liveBuffered := uint64(buffered.DeltaRows() - 4) // ids 640, 801, 802, 999 are deleted
		for _, par := range []int{1, 2} {
			for _, pc := range preds {
				label := fmt.Sprintf("shards=%d par=%d %s", shards, par, pc.name)
				mk := func(tb *Table, cols ...string) *Query {
					return tb.Select(cols...).Where(pc.p).Options(SelectOptions{Parallelism: par})
				}
				same := func(what string, run func(tb *Table) (any, error)) {
					t.Helper()
					got, err := run(buffered)
					if err != nil {
						t.Fatalf("%s: %s buffered: %v", label, what, err)
					}
					want, err := run(flushed)
					if err != nil {
						t.Fatalf("%s: %s flushed: %v", label, what, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %s diverges\nbuffered %v\n flushed %v", label, what, got, want)
					}
				}
				same("IDs", func(tb *Table) (any, error) { ids, _, err := mk(tb).IDs(); return ids, err })
				same("IDs limit", func(tb *Table) (any, error) { ids, _, err := mk(tb).Limit(333).IDs(); return ids, err })
				same("Count", func(tb *Table) (any, error) { n, _, err := mk(tb).Count(); return n, err })
				same("Batches", func(tb *Table) (any, error) {
					return rowStrings(t, label, func() *Query { return mk(tb) }), nil
				})
				for _, ord := range []OrderSpec{Desc("f32"), Asc("u8"), Desc("s"), Asc("s")} {
					same("top-k "+ord.String(), func(tb *Table) (any, error) {
						ids, _, err := mk(tb).OrderBy(ord).Limit(9).IDs()
						return ids, err
					})
				}
				same("ordered rows", func(tb *Table) (any, error) {
					return rowStrings(t, label, func() *Query { return mk(tb, "s", "i64", "u8").OrderBy(Desc("i64")) }), nil
				})
				same("Aggregate", func(tb *Table) (any, error) {
					res, _, err := mk(tb).Aggregate(aggSpecs...)
					if err != nil {
						return nil, err
					}
					return res.Values(), nil
				})
				same("Aggregate limit", func(tb *Table) (any, error) {
					res, _, err := mk(tb).Limit(450).Aggregate(aggSpecs...)
					if err != nil {
						return nil, err
					}
					return res.Values(), nil
				})
				for _, key := range []string{"s", "i16", "u64"} {
					same("GroupBy "+key, func(tb *Table) (any, error) {
						res, _, err := mk(tb).GroupBy(key).Aggregate(groupSpecs...)
						if err != nil {
							return nil, err
						}
						return res.Groups, nil
					})
				}
				// Explain cannot render alike (one plan has a delta line):
				// both must describe the same table, and the buffered plan
				// must account for every live buffered row, like an execution.
				bp, err := mk(buffered).Explain()
				if err != nil {
					t.Fatalf("%s: Explain buffered: %v", label, err)
				}
				fp, err := mk(flushed).Explain()
				if err != nil {
					t.Fatalf("%s: Explain flushed: %v", label, err)
				}
				_, st, _ := mk(buffered).Count()
				if bp.TotalRows != fp.TotalRows || fp.DeltaRows != 0 || bp.DeltaRows != buffered.DeltaRows() ||
					bp.Stats.DeltaRowsScanned != liveBuffered || st.DeltaRowsScanned != liveBuffered {
					t.Fatalf("%s: Explain: total %d/%d, delta %d/%d, scanned %d (count scanned %d), want %d live buffered",
						label, bp.TotalRows, fp.TotalRows, bp.DeltaRows, fp.DeltaRows,
						bp.Stats.DeltaRowsScanned, st.DeltaRowsScanned, liveBuffered)
				}
			}
		}
	}
}
