package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
)

// Randomized sharded query oracle: the same operation log runs against
// an unsharded table and sharded tables (2 and 4 shards), and every
// probe — ids, counts, rows, aggregates, groups (every key kind and
// operator, float sums bit for bit — see group_oracle_test.go), top-k,
// limited aggregates — must match a serial model that replicates the global-id
// mapping (including chunked commit routing and shard-local compaction)
// with plain loops. Each probe also runs at parallelism 1, 2 and 8 and
// the three results must be deeply identical, pinning the deterministic
// (shard, segment) merge.

// soRow is one live row of the model. f, k and n are derived from the
// a value the row was appended with (soDerive): a float column for
// bit-exact grouped sums and two more group keys — a uint8 and a
// negative narrow-range int64 — beside the string s and the wide a
// (which takes the map slot path).
type soRow struct {
	a int64
	s string
	f float64
	k uint8
	n int64
}

func soDerive(a int64) (f float64, k uint8, n int64) {
	return float64(a)/7 + 0.1, uint8(a % 11), -(a % 40) - 1
}

// soWiden is the out-of-range n value an update of a also writes, so
// sealed segments' n summaries get widened by updates.
func soWiden(val int64) int64 { return -(val % 90) - 1 }

// soMirror is the serial model of one table variant. It tracks rows by
// global id using the same gid arithmetic as shardState, so it predicts
// exact ids even after shard-local compaction leaves holes.
type soMirror struct {
	sh   *shardState // gid math only (nshards, segRows)
	cnt  []int       // per-shard local row counts, deleted slots included
	rows map[int]soRow
	dead map[int]bool
}

func newSoMirror(shards, segRows int) *soMirror {
	return &soMirror{
		sh:   &shardState{nshards: shards, segRows: segRows},
		cnt:  make([]int, shards),
		rows: map[int]soRow{},
		dead: map[int]bool{},
	}
}

// append replicates Batch.Commit's serial routing: segment-bounded
// chunks land on the shard whose next free global id is lowest.
func (m *soMirror) append(vals []int64, strs []string) {
	for from := 0; from < len(vals); {
		c := 0
		for k := 1; k < m.sh.nshards; k++ {
			if m.sh.gidOf(k, m.cnt[k]) < m.sh.gidOf(c, m.cnt[c]) {
				c = k
			}
		}
		n := min(len(vals)-from, m.sh.segRows-m.cnt[c]%m.sh.segRows)
		for i := 0; i < n; i++ {
			f, k, n := soDerive(vals[from+i])
			m.rows[m.sh.gidOf(c, m.cnt[c]+i)] = soRow{a: vals[from+i], s: strs[from+i], f: f, k: k, n: n}
		}
		m.cnt[c] += n
		from += n
	}
}

func (m *soMirror) liveIDs() []int {
	ids := make([]int, 0, len(m.rows))
	for id := range m.rows {
		if !m.dead[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// compact replicates shard-local compaction: each shard's live rows
// re-pack into local ids 0..n-1 preserving local order.
func (m *soMirror) compact() {
	type slot struct {
		lid int
		row soRow
	}
	perShard := make([][]slot, m.sh.nshards)
	for id, row := range m.rows {
		if m.dead[id] {
			continue
		}
		c, lid := m.sh.decode(id)
		perShard[c] = append(perShard[c], slot{lid: lid, row: row})
	}
	m.rows = map[int]soRow{}
	m.dead = map[int]bool{}
	for c, slots := range perShard {
		sort.Slice(slots, func(i, j int) bool { return slots[i].lid < slots[j].lid })
		for lid, s := range slots {
			m.rows[m.sh.gidOf(c, lid)] = s.row
		}
		m.cnt[c] = len(slots)
	}
}

// soProbe is one full query sweep's results, comparable across
// parallelism levels and against the model.
type soProbe struct {
	allIDs []uint32
	predID []uint32
	count  uint64
	lcount uint64
	rows   []string // every qualifying row, via Rows ≡ Batches
	lrows7 []string // ... Limit(7)
	toprow []string // ... OrderBy(Desc("a")).Limit(10)
	sum    AggValue
	mn     AggValue
	mx     AggValue
	avg    AggValue
	cnt    AggValue
	lsum   AggValue
	lrows  uint64
	groups []Group
	topk   []uint32
	// Grouped differential probes: every operator per group key, the
	// float bits included, plus a count(*)-only grouping.
	byKey   map[string][]Group
	cntOnly []Group
}

// soGroupKeys are the grouped probe's key columns: string dictionary
// codes, a uint8, a negative dense int64, and the wide a (map slots).
var soGroupKeys = []string{"s", "k", "n", "a"}

// soSweep executes every probe shape once at the given parallelism.
func soSweep(t *testing.T, tb *Table, lo, hi int64, par int) soProbe {
	t.Helper()
	opts := SelectOptions{Parallelism: par}
	var p soProbe
	var err error
	if p.allIDs, _, err = tb.Select().Options(opts).IDs(); err != nil {
		t.Fatal(err)
	}
	pred := Range[int64]("a", lo, hi)
	if p.predID, _, err = tb.Select().Options(opts).Where(pred).IDs(); err != nil {
		t.Fatal(err)
	}
	if p.count, _, err = tb.Select().Options(opts).Where(pred).Count(); err != nil {
		t.Fatal(err)
	}
	if p.lcount, _, err = tb.Select().Options(opts).Where(pred).Limit(7).Count(); err != nil {
		t.Fatal(err)
	}
	rq := func() *Query { return tb.Select("a", "s").Options(opts).Where(pred) }
	p.rows = rowStrings(t, "rows", rq)
	p.lrows7 = rowStrings(t, "limited rows", func() *Query { return rq().Limit(7) })
	p.toprow = rowStrings(t, "top-k rows", func() *Query { return rq().OrderBy(Desc("a")).Limit(10) })
	res, _, err := tb.Select().Options(opts).Where(pred).
		Aggregate(Sum("a"), Min("a"), Max("a"), Avg("a"), CountAll())
	if err != nil {
		t.Fatal(err)
	}
	p.sum, p.mn, p.mx, p.avg, p.cnt = res.At(0), res.At(1), res.At(2), res.At(3), res.At(4)
	lres, _, err := tb.Select().Options(opts).Where(pred).Limit(7).Aggregate(Sum("a"))
	if err != nil {
		t.Fatal(err)
	}
	p.lsum, p.lrows = lres.At(0), lres.Rows
	gres, _, err := tb.Select().Options(opts).Where(pred).GroupBy("s").
		Aggregate(CountAll(), Sum("a"))
	if err != nil {
		t.Fatal(err)
	}
	p.groups = gres.Groups
	p.byKey = map[string][]Group{}
	for _, key := range soGroupKeys {
		g, _, err := tb.Select().Options(opts).Where(pred).GroupBy(key).Aggregate(refSpecs()...)
		if err != nil {
			t.Fatal(err)
		}
		p.byKey[key] = g.Groups
	}
	cres, _, err := tb.Select().Options(opts).Where(pred).GroupBy("k").Aggregate(CountAll())
	if err != nil {
		t.Fatal(err)
	}
	p.cntOnly = cres.Groups
	if p.topk, _, err = tb.Select().Options(opts).Where(pred).
		OrderBy(Desc("a")).Limit(10).IDs(); err != nil {
		t.Fatal(err)
	}
	return p
}

// soCheck verifies one probe against the model; tb tells the grouped
// reference which rows are still buffered in a delta.
func soCheck(t *testing.T, tag string, p soProbe, tb *Table, m *soMirror, lo, hi int64) {
	t.Helper()
	live := m.liveIDs()
	if len(p.allIDs) != len(live) {
		t.Fatalf("%s: %d ids, model has %d", tag, len(p.allIDs), len(live))
	}
	for i, id := range p.allIDs {
		if int(id) != live[i] {
			t.Fatalf("%s: ids[%d] = %d, model %d", tag, i, id, live[i])
		}
	}
	type ent struct {
		id int
		r  soRow
	}
	var match []ent
	var sum int64
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	groups := map[string]*struct {
		rows uint64
		sum  int64
	}{}
	for _, id := range live {
		r := m.rows[id]
		if r.a < lo || r.a >= hi {
			continue
		}
		match = append(match, ent{id: id, r: r})
		sum += r.a
		mn, mx = min(mn, r.a), max(mx, r.a)
		g := groups[r.s]
		if g == nil {
			g = &struct {
				rows uint64
				sum  int64
			}{}
			groups[r.s] = g
		}
		g.rows++
		g.sum += r.a
	}
	if len(p.predID) != len(match) || p.count != uint64(len(match)) {
		t.Fatalf("%s: predicate hit %d ids / count %d, model %d", tag, len(p.predID), p.count, len(match))
	}
	for i, id := range p.predID {
		if int(id) != match[i].id {
			t.Fatalf("%s: pred ids[%d] = %d, model %d", tag, i, id, match[i].id)
		}
	}
	if want := uint64(min(7, len(match))); p.lcount != want {
		t.Fatalf("%s: limited count = %d, want %d", tag, p.lcount, want)
	}
	render := func(es []ent) []string {
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%d a=%d s=%s", e.id, e.r.a, e.r.s)
		}
		return out
	}
	if want := render(match); !reflect.DeepEqual(p.rows, want) && len(p.rows)+len(want) > 0 {
		t.Fatalf("%s: rows\n got %v\nmodel %v", tag, p.rows, want)
	}
	if want := render(match[:min(7, len(match))]); !reflect.DeepEqual(p.lrows7, want) && len(p.lrows7)+len(want) > 0 {
		t.Fatalf("%s: limited rows\n got %v\nmodel %v", tag, p.lrows7, want)
	}
	if p.cnt.Int != int64(len(match)) {
		t.Fatalf("%s: CountAll = %d, model %d", tag, p.cnt.Int, len(match))
	}
	if len(match) == 0 {
		if p.sum.Valid || p.mn.Valid || p.mx.Valid {
			t.Fatalf("%s: empty selection produced valid aggregates", tag)
		}
	} else {
		if p.sum.Int != sum || p.mn.Int != mn || p.mx.Int != mx {
			t.Fatalf("%s: sum/min/max = %d/%d/%d, model %d/%d/%d",
				tag, p.sum.Int, p.mn.Int, p.mx.Int, sum, mn, mx)
		}
		if want := float64(sum) / float64(len(match)); math.Abs(p.avg.Float-want) > 1e-9 {
			t.Fatalf("%s: avg = %v, model %v", tag, p.avg.Float, want)
		}
	}
	var lsum int64
	ltake := min(7, len(match))
	for _, e := range match[:ltake] {
		lsum += e.r.a
	}
	if p.lrows != uint64(ltake) || (ltake > 0 && p.lsum.Int != lsum) {
		t.Fatalf("%s: limited agg rows/sum = %d/%d, model %d/%d", tag, p.lrows, p.lsum.Int, ltake, lsum)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(p.groups) != len(keys) {
		t.Fatalf("%s: %d groups, model %d", tag, len(p.groups), len(keys))
	}
	for i, k := range keys {
		g := p.groups[i]
		if g.Key.(string) != k || g.Rows != groups[k].rows || g.Aggs[1].Int != groups[k].sum {
			t.Fatalf("%s: group %v (%d rows, sum %d), model %q (%d, %d)",
				tag, g.Key, g.Rows, g.Aggs[1].Int, k, groups[k].rows, groups[k].sum)
		}
	}
	// The grouped differential: every key kind and operator against the
	// reference fold, float bits included.
	for _, key := range soGroupKeys {
		ref := make([]refRow, len(match))
		for i, e := range match {
			c, lid := m.sh.decode(e.id)
			sealed := tb.rows
			if tb.shard != nil {
				sealed = tb.shard.kids[c].rows
			}
			r := refRow{id: e.id, bucket: e.id / m.sh.segRows, a: e.r.a, f: e.r.f, s: e.r.s}
			if lid >= sealed {
				r.bucket = refDeltaBucket + c
			}
			switch key {
			case "s":
				r.key = e.r.s
			case "k":
				r.key = int64(e.r.k)
			case "n":
				r.key = e.r.n
			default:
				r.key = e.r.a
			}
			ref[i] = r
		}
		checkGroupsRef(t, tag+" group by "+key, p.byKey[key], ref)
	}
	if len(p.cntOnly) != len(p.byKey["k"]) {
		t.Fatalf("%s: count(*)-only grouping has %d groups, the full grouping %d", tag, len(p.cntOnly), len(p.byKey["k"]))
	}
	for i, g := range p.byKey["k"] {
		if c := p.cntOnly[i]; c.Key != g.Key || c.Rows != g.Rows || c.Aggs[0].Int != int64(g.Rows) {
			t.Fatalf("%s: count(*)-only group %v diverges from the full grouping %v", tag, c, g)
		}
	}
	topk := append([]ent(nil), match...)
	sort.Slice(topk, func(i, j int) bool {
		if topk[i].r.a != topk[j].r.a {
			return topk[i].r.a > topk[j].r.a
		}
		return topk[i].id < topk[j].id
	})
	ktake := min(10, len(topk))
	if len(p.topk) != ktake {
		t.Fatalf("%s: topk returned %d ids, model %d", tag, len(p.topk), ktake)
	}
	for i := 0; i < ktake; i++ {
		if int(p.topk[i]) != topk[i].id {
			t.Fatalf("%s: topk[%d] = %d, model %d", tag, i, p.topk[i], topk[i].id)
		}
	}
	if want := render(topk[:ktake]); !reflect.DeepEqual(p.toprow, want) && len(p.toprow)+len(want) > 0 {
		t.Fatalf("%s: top-k rows\n got %v\nmodel %v", tag, p.toprow, want)
	}
}

func mkShardOracleTable(t *testing.T, shards int, vals []int64, strs []string, ingest bool) *Table {
	return mkShardOracleTableCols(t, shards, vals, strs, ingest, false)
}

// soDerived computes the derived columns of a batch of a values.
func soDerived(vals []int64) (fs []float64, ks []uint8, ns []int64) {
	fs, ks, ns = make([]float64, len(vals)), make([]uint8, len(vals)), make([]int64, len(vals))
	for i, a := range vals {
		fs[i], ks[i], ns[i] = soDerive(a)
	}
	return fs, ks, ns
}

// mkShardOracleTableCols builds the oracle table; derived adds the
// f/k/n columns of soDerive.
func mkShardOracleTableCols(t *testing.T, shards int, vals []int64, strs []string, ingest, derived bool) *Table {
	t.Helper()
	tb := NewWithOptions("oracle", TableOptions{SegmentRows: 128, Shards: shards})
	if err := AddColumn(tb, "a", vals, Imprints, core.Options{Seed: 21}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 22}); err != nil {
		t.Fatal(err)
	}
	if derived {
		fs, ks, ns := soDerived(vals)
		if err := AddColumn(tb, "f", fs, NoIndex, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := AddColumn(tb, "k", ks, Imprints, core.Options{Seed: 23}); err != nil {
			t.Fatal(err)
		}
		if err := AddColumn(tb, "n", ns, NoIndex, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if ingest {
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// soOp is one generated operation; point ops carry a rank into the
// variant's live-id list rather than a raw id, because shard-local
// compaction gives each variant its own id space.
type soOp struct {
	kind byte // 'a' append, 'u' update, 's' string update, 'd' delete, 'c' compact, 'f' flush, 'z' seal
	rank int
	val  int64
	str  string
	rows []int64
	strs []string
}

func (op soOp) applyTable(tb *Table, m *soMirror) error {
	switch op.kind {
	case 'a':
		b := tb.NewBatch()
		if err := Append(b, "a", op.rows); err != nil {
			return err
		}
		if err := b.AppendStrings("s", op.strs); err != nil {
			return err
		}
		fs, ks, ns := soDerived(op.rows)
		if err := Append(b, "f", fs); err != nil {
			return err
		}
		if err := Append(b, "k", ks); err != nil {
			return err
		}
		if err := Append(b, "n", ns); err != nil {
			return err
		}
		return b.Commit()
	case 'u':
		if live := m.liveIDs(); len(live) > 0 {
			id := live[op.rank%len(live)]
			if err := Update(tb, "a", id, op.val); err != nil {
				return err
			}
			return Update(tb, "n", id, soWiden(op.val))
		}
	case 's':
		if live := m.liveIDs(); len(live) > 0 {
			return tb.UpdateString("s", live[op.rank%len(live)], op.str)
		}
	case 'd':
		if live := m.liveIDs(); len(live) > 0 {
			return tb.Delete(live[op.rank%len(live)])
		}
	case 'c':
		tb.Compact()
	case 'f':
		tb.FlushDelta()
	case 'z':
		tb.SealDelta()
	}
	return nil
}

func (op soOp) applyMirror(m *soMirror) {
	switch op.kind {
	case 'a':
		m.append(op.rows, op.strs)
	case 'u':
		if live := m.liveIDs(); len(live) > 0 {
			id := live[op.rank%len(live)]
			r := m.rows[id]
			r.a, r.n = op.val, soWiden(op.val)
			m.rows[id] = r
		}
	case 's':
		if live := m.liveIDs(); len(live) > 0 {
			id := live[op.rank%len(live)]
			r := m.rows[id]
			r.s = op.str
			m.rows[id] = r
		}
	case 'd':
		if live := m.liveIDs(); len(live) > 0 {
			m.dead[live[op.rank%len(live)]] = true
		}
	case 'c':
		m.compact()
	}
}

func soGen(rng *rand.Rand, ingest bool) soOp {
	r := rng.IntN(100)
	switch {
	case r < 45:
		n := 16 + rng.IntN(150)
		rows := make([]int64, n)
		strs := make([]string, n)
		for i := range rows {
			rows[i] = rng.Int64N(1_000_000)
			strs[i] = oraCities[rng.IntN(len(oraCities))]
		}
		return soOp{kind: 'a', rows: rows, strs: strs}
	case r < 65:
		return soOp{kind: 'u', rank: rng.IntN(1 << 20), val: rng.Int64N(1_000_000)}
	case r < 75:
		str := oraCities[rng.IntN(len(oraCities))]
		if rng.IntN(4) == 0 { // a novel symbol re-encodes the segment's dictionary
			str = fmt.Sprintf("novel-%d", rng.IntN(40))
		}
		return soOp{kind: 's', rank: rng.IntN(1 << 20), str: str}
	case r < 90:
		return soOp{kind: 'd', rank: rng.IntN(1 << 20)}
	case r < 95 && ingest:
		return soOp{kind: 'f'}
	case ingest:
		return soOp{kind: 'z'}
	default:
		return soOp{kind: 'c'}
	}
}

func runShardOracle(t *testing.T, ingest bool) {
	ops := 160
	if raceEnabled {
		ops = 60
	}
	const n0 = 512
	rng := rand.New(rand.NewPCG(0x5a4d, 0xca7))
	vals := make([]int64, n0)
	strs := make([]string, n0)
	for i := range vals {
		vals[i] = rng.Int64N(1_000_000)
		strs[i] = oraCities[rng.IntN(len(oraCities))]
	}
	shardCounts := []int{1, 2, 4}
	tbs := make([]*Table, len(shardCounts))
	ms := make([]*soMirror, len(shardCounts))
	for i, sc := range shardCounts {
		tbs[i] = mkShardOracleTableCols(t, sc, vals, strs, ingest, true)
		ms[i] = newSoMirror(max(sc, 1), 128)
		ms[i].append(vals, strs)
	}
	defer func() {
		if ingest {
			for _, tb := range tbs {
				tb.Close()
			}
		}
	}()
	compacted := false
	for k := 0; k <= ops; k++ {
		if k < ops {
			op := soGen(rng, ingest)
			if op.kind == 'c' {
				compacted = true
			}
			for i := range tbs {
				if err := op.applyTable(tbs[i], ms[i]); err != nil {
					t.Fatalf("op %d (%c) on shards=%d: %v", k, op.kind, shardCounts[i], err)
				}
				op.applyMirror(ms[i])
			}
		}
		if k%10 != 0 && k < ops {
			continue
		}
		lo := rng.Int64N(900_000)
		hi := lo + 50_000 + rng.Int64N(400_000)
		if ingest {
			// Per-shard seal lag: one shard seals on its own, leaving its
			// neighbours' rows — which interleave with its segments in the
			// global id space — buffered; every limited executor must still
			// return a prefix of the unlimited answer.
			for i, tb := range tbs {
				if tb.shard != nil {
					tb.shard.kids[k/10%len(tb.shard.kids)].SealDelta()
				}
				soLimitProbe(t, fmt.Sprintf("op %d shards=%d", k, shardCounts[i]), tb, ms[i], lo, hi)
			}
		}
		probes := make([]soProbe, len(shardCounts))
		for i, sc := range shardCounts {
			base := soSweep(t, tbs[i], lo, hi, 1)
			soCheck(t, fmt.Sprintf("op %d shards=%d", k, sc), base, tbs[i], ms[i], lo, hi)
			// The merge is deterministic: parallelism must not change a
			// single byte of any result, floats included.
			for _, par := range []int{2, 8} {
				got := soSweep(t, tbs[i], lo, hi, par)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("op %d shards=%d: parallelism %d diverges from serial", k, sc, par)
				}
			}
			probes[i] = base
		}
		// Serial commits keep the id space dense, so until the first
		// shard-local compaction every variant — unsharded included —
		// returns byte-identical results at every shard count. The one
		// exception is float sums over buffered rows: each shard's delta
		// folds into its own partial, so with ingest the grouped float
		// bits legitimately depend on the shard count (each variant was
		// checked against its own reference above).
		if !compacted {
			for i := 1; i < len(shardCounts); i++ {
				if ingest {
					probes[0].byKey, probes[i].byKey = nil, nil
				}
				if !reflect.DeepEqual(probes[0], probes[i]) {
					t.Fatalf("op %d: shards=%d diverges from unsharded on the dense prefix",
						k, shardCounts[i])
				}
			}
		}
	}
}

// soLimitProbe requires Limit(n) through IDs, Rows, Batches and
// Aggregate to return the first n qualifying ids of the unlimited
// answer, with and without a predicate, at every parallelism level.
func soLimitProbe(t *testing.T, tag string, tb *Table, m *soMirror, lo, hi int64) {
	t.Helper()
	aOf := func(id uint32) int64 { return m.rows[int(id)].a }
	for _, pred := range []Predicate{nil, Range[int64]("a", lo, hi)} {
		var want []uint32
		for _, id := range m.liveIDs() {
			if a := m.rows[id].a; pred == nil || a >= lo && a < hi {
				want = append(want, uint32(id))
			}
		}
		for _, par := range []int{1, 2, 8} {
			mk := func() *Query {
				return tb.Select("a").Where(pred).Options(SelectOptions{Parallelism: par})
			}
			all, _, err := mk().IDs()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(all, want) {
				t.Fatalf("%s par=%d: unlimited ids diverge from the model", tag, par)
			}
			for _, n := range []int{1, 100, 128, 129, len(all) / 2, len(all) - 1, len(all)} {
				checkLimitPrefix(t, fmt.Sprintf("%s par=%d", tag, par), mk, all, max(n, 0), "a", aOf)
			}
		}
	}
}

func TestShardQueryOracle(t *testing.T)       { runShardOracle(t, false) }
func TestShardQueryOracleIngest(t *testing.T) { runShardOracle(t, true) }

// TestShardConcurrentWritersReaders drives parallel writers against a
// sharded auto-sealing table while readers aggregate, then checks the
// final state against the writers' tallies. Its value is mostly under
// -race: commits, seals and shard-fanned reads must be data-race free.
func TestShardConcurrentWritersReaders(t *testing.T) {
	const writers = 4
	batches := 40
	if raceEnabled {
		batches = 12
	}
	tb := mkShardOracleTable(t, 4, nil, nil, false)
	if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: true}); err != nil {
		t.Fatal(err)
	}
	var wWg, rWg sync.WaitGroup
	sums := make([]int64, writers)
	rows := make([]int64, writers)
	for w := 0; w < writers; w++ {
		wWg.Add(1)
		go func(w int) {
			defer wWg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; i < batches; i++ {
				n := 32 + rng.IntN(96)
				vals := make([]int64, n)
				strs := make([]string, n)
				for j := range vals {
					vals[j] = rng.Int64N(10_000)
					sums[w] += vals[j]
					strs[j] = oraCities[rng.IntN(len(oraCities))]
				}
				rows[w] += int64(n)
				b := tb.NewBatch()
				if err := Append(b, "a", vals); err != nil {
					t.Error(err)
					return
				}
				if err := b.AppendStrings("s", strs); err != nil {
					t.Error(err)
					return
				}
				if err := b.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rdErr sync.Once
	for r := 0; r < 3; r++ {
		rWg.Add(1)
		go func() {
			defer rWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := tb.Select().Options(SelectOptions{Parallelism: 4}).
					Aggregate(CountAll(), Sum("a")); err != nil {
					rdErr.Do(func() { t.Error(err) })
					return
				}
			}
		}()
	}
	wWg.Wait()
	close(stop)
	rWg.Wait()
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	var wantRows, wantSum int64
	for w := 0; w < writers; w++ {
		wantRows += rows[w]
		wantSum += sums[w]
	}
	if got := int64(tb.Rows()); got != wantRows {
		t.Fatalf("Rows = %d, writers committed %d", got, wantRows)
	}
	res, _, err := tb.Select().Aggregate(CountAll(), Sum("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0).Int != wantRows || res.At(1).Int != wantSum {
		t.Fatalf("count/sum = %d/%d, writers tallied %d/%d",
			res.At(0).Int, res.At(1).Int, wantRows, wantSum)
	}
}
