package table

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/coltype"
	"repro/internal/core"
)

// GroupBy partitions the qualifying rows by a low-cardinality key
// column — integer or dictionary-encoded string — and aggregates each
// group. Per-segment workers fold qualifying rows a block at a time
// into accumulator slabs indexed by a slot id — the segment
// dictionary's code for string keys, v − min for integer keys whose
// segment summary spans fewer than groupSlots values, a map-assigned
// slot otherwise — and each segment's slots are remapped to the global
// key space (the decoded symbol, the integer itself) when its partials
// are emitted, so per-segment dictionaries never leak into results.
// The consumer merges group partials in segment order and sorts groups
// by key, so grouped results are identical at every parallelism level.

// GroupedQuery is a Query with a grouping key attached; Aggregate
// executes it.
type GroupedQuery struct {
	q   *Query
	key string
}

// GroupBy attaches a grouping key column to the query. The key must be
// an integer or string column (float keys are rejected — bucket them
// into an integer column instead).
func (q *Query) GroupBy(col string) *GroupedQuery {
	return &GroupedQuery{q: q, key: col}
}

// Group is one key's aggregate results.
type Group struct {
	// Key is the group key: int64 for integer key columns — except
	// uint64 columns, whose keys are reported as uint64 (and ordered
	// unsigned), since they do not fit int64 — and string for string key
	// columns.
	Key any
	// Rows is the number of qualifying rows in the group.
	Rows uint64
	// Aggs holds one value per requested spec, in request order.
	Aggs []AggValue
}

// GroupedResult is the result of one GroupBy.Aggregate execution,
// sorted ascending by key.
type GroupedResult struct {
	// Key is the grouping column name.
	Key string
	// Groups lists every non-empty group, ascending by key.
	Groups []Group
}

// Find returns the group with the given key (int64, uint64 or string,
// matching the key column type).
func (r *GroupedResult) Find(key any) (Group, bool) {
	for _, g := range r.Groups {
		if g.Key == key {
			return g, true
		}
	}
	return Group{}, false
}

// groupKey is a group's identity in the global key space.
type groupKey struct {
	i      int64 // integer keys; a uint64 key's bit pattern when isUint
	s      string
	isStr  bool
	isUint bool
}

func (k groupKey) value() any {
	switch {
	case k.isStr:
		return k.s
	case k.isUint:
		return uint64(k.i)
	}
	return k.i
}

// less orders groups for the deterministic final sort.
func (k groupKey) less(o groupKey) bool {
	switch {
	case k.isStr:
		return k.s < o.s
	case k.isUint:
		return uint64(k.i) < uint64(o.i)
	}
	return k.i < o.i
}

// groupOut is one group's partial results from one segment, already in
// the global key space.
type groupOut struct {
	key   groupKey
	rows  uint64
	parts []aggPartial
}

// ---- slots ----

// groupSlots bounds the dense slot table of an integer key: a segment
// whose summary span (max − min) is below it indexes accumulators by
// v − min; wider segments hand out slots through a map.
const groupSlots = 4096

// foldBlock is one block of qualifying rows on their way through the
// grouped fold: the segment-local row ids and, parallel to them, the
// accumulator slot of each row's group.
type foldBlock struct {
	n    int
	sel  [BlockRows]uint32
	slot [BlockRows]uint32
}

// segSlotter maps one segment's key values to accumulator slots — small
// dense integers chosen from what the segment already knows about its
// keys, so the fold indexes arrays instead of probing a map per row.
type segSlotter interface {
	// assign fills b.slot[:b.n] for the rows b.sel[:b.n], counting each
	// row into rows[slot] in the same pass, and returns rows extended to
	// cover every slot handed out so far.
	assign(b *foldBlock, rows []uint64) []uint64
	// sorted lists the slots in ascending key order; nil when slot order
	// already is key order.
	sorted() []uint32
	// key decodes a slot to the global key space.
	key(slot uint32) groupKey
}

// slotAgg folds one aggregate's column values of one segment into
// per-slot accumulators, a block at a time.
type slotAgg interface {
	grow(nslots int)
	fold(b *foldBlock) // acc[b.slot[j]] op= vals[b.sel[j]]
	partial(slot uint32, rows uint64) aggPartial
}

// growSlab extends a per-slot slab to n zeroed slots, amortized.
func growSlab[E any](s []E, n int) []E {
	if n <= len(s) {
		return s
	}
	return append(s, make([]E, n-len(s))...)
}

func (c *colState[V]) groupCheck() error {
	if !isIntType[V]() {
		return fmt.Errorf("column %q is %s: GroupBy keys must be integer or string columns",
			c.name, coltype.TypeName[V]())
	}
	return nil
}

// isUint64 reports whether V is uint64, the one integer type whose
// values do not fit the int64 key representation.
func isUint64[V coltype.Value]() bool {
	var zero V
	_, ok := any(zero).(uint64)
	return ok
}

// wide64 widens an integer value to 64 bits such that differences of
// widened values, taken mod 2^64, equal the true differences for every
// signed and unsigned width (uint64 included).
func wide64[V coltype.Value](v V) uint64 { return uint64(int64(v)) }

//imprintvet:locks held=mu.R
func (c *colState[V]) slotter(r segRef) segSlotter {
	vals := c.slab(r)
	var lo, hi V
	if r.view == nil {
		lo, hi = c.segs[r.s].min, c.segs[r.s].max
	} else {
		// The delta keeps no summary: one pass over its rows decides dense
		// or map.
		lo, hi, _ = summarize(vals[r.view.Lo():])
	}
	sl := &numSlotter[V]{vals: vals, base: wide64(lo), unsigned: isUint64[V]()}
	if span := wide64(hi) - sl.base; span < groupSlots {
		sl.dense = int(span) + 1
	} else {
		sl.index = map[int64]uint32{}
	}
	return sl
}

// numSlotter slots an integer key column. The summary covers every
// value the slab holds (updates widen a segment's), so when its span fits
// groupSlots the slot is v − min — already in key order. Otherwise a
// map hands out slots in first-seen order and sorted() restores key
// order at emission.
type numSlotter[V coltype.Value] struct {
	vals     []V
	base     uint64 // the segment minimum, widened
	dense    int    // slot count of the dense table; 0 selects the map
	unsigned bool   // uint64 keys: order and report unsigned
	index    map[int64]uint32
	keys     []int64 // map path: slot → key
}

//imprintvet:hotpath
func (sl *numSlotter[V]) assign(b *foldBlock, rows []uint64) []uint64 {
	sel, slot := b.sel[:b.n], b.slot[:b.n]
	if sl.dense > 0 {
		rows = growSlab(rows, sl.dense)
		for j, l := range sel {
			s := uint32(wide64(sl.vals[l]) - sl.base)
			slot[j] = s
			rows[s]++
		}
		return rows
	}
	for j, l := range sel {
		k := int64(sl.vals[l])
		s, ok := sl.index[k]
		if !ok {
			s = uint32(len(sl.keys))
			sl.index[k] = s
			sl.keys = append(sl.keys, k)
			rows = append(rows, 0)
		}
		slot[j] = s
		rows[s]++
	}
	return rows
}

func (sl *numSlotter[V]) sorted() []uint32 {
	if sl.dense > 0 {
		return nil
	}
	order := make([]uint32, len(sl.keys))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return sl.key(order[i]).less(sl.key(order[j])) })
	return order
}

func (sl *numSlotter[V]) key(slot uint32) groupKey {
	if sl.dense > 0 {
		return groupKey{i: int64(sl.base + uint64(slot)), isUint: sl.unsigned}
	}
	return groupKey{i: sl.keys[slot], isUint: sl.unsigned}
}

func (c *strColState) groupCheck() error { return nil }

//imprintvet:locks held=mu.R
func (c *strColState) slotter(r segRef) segSlotter {
	sl := &strSlotter{}
	sl.codes, sl.syms, _ = c.codeSlab(r)
	return sl
}

// strSlotter slots a string key column by dictionary code — dense, the
// dictionary being the segment's or the delta's own — and decodes a
// slot to its symbol only at emission, remapping the private code space
// to the global key space. A sealed segment's slots are in string
// order; the delta's are in arrival order, which the merge (keyed, then
// sorted) does not depend on.
type strSlotter struct {
	codes []int32
	syms  []string
}

//imprintvet:hotpath
func (sl *strSlotter) assign(b *foldBlock, rows []uint64) []uint64 {
	sel, slot := b.sel[:b.n], b.slot[:b.n]
	rows = growSlab(rows, len(sl.syms))
	for j, l := range sel {
		s := uint32(sl.codes[l])
		slot[j] = s
		rows[s]++
	}
	return rows
}

func (sl *strSlotter) sorted() []uint32 { return nil }

func (sl *strSlotter) key(slot uint32) groupKey {
	return groupKey{s: sl.syms[slot], isStr: true}
}

// ---- per-slot accumulators ----

//imprintvet:locks held=mu.R
func (c *colState[V]) slotAcc(op aggOp, r segRef) slotAgg {
	return &numSlotAgg[V]{op: op, vals: c.slab(r), isInt: isIntType[V]()}
}

// numSlotAgg is the per-slot form of numSegAgg: the same int64/float64
// sums and typed extrema, one per slot, folded in row order — so every
// group's partial is bit-identical to a row-at-a-time fold of its rows.
type numSlotAgg[V coltype.Value] struct {
	op    aggOp
	vals  []V
	isInt bool
	isum  []int64
	fsum  []float64
	m     []V    // min/max per slot, meaningful where seen
	seen  []bool // min/max: the slot has folded a value
}

func (a *numSlotAgg[V]) grow(n int) {
	switch {
	case a.op == aggMin || a.op == aggMax:
		a.m, a.seen = growSlab(a.m, n), growSlab(a.seen, n)
	case a.isInt:
		a.isum = growSlab(a.isum, n)
	default:
		a.fsum = growSlab(a.fsum, n)
	}
}

//imprintvet:hotpath
func (a *numSlotAgg[V]) fold(b *foldBlock) {
	sel, slot := b.sel[:b.n], b.slot[:b.n]
	switch {
	case a.op == aggMin:
		for j, l := range sel {
			v, s := a.vals[l], slot[j]
			if !a.seen[s] || v < a.m[s] {
				a.m[s] = v
			}
			a.seen[s] = true
		}
	case a.op == aggMax:
		for j, l := range sel {
			v, s := a.vals[l], slot[j]
			if !a.seen[s] || v > a.m[s] {
				a.m[s] = v
			}
			a.seen[s] = true
		}
	case a.isInt:
		for j, l := range sel {
			a.isum[slot[j]] += int64(a.vals[l])
		}
	default:
		for j, l := range sel {
			a.fsum[slot[j]] += float64(a.vals[l])
		}
	}
}

func (a *numSlotAgg[V]) partial(slot uint32, rows uint64) aggPartial {
	switch {
	case a.op == aggMin || a.op == aggMax:
		return numPartial(a.isInt, rows, int64(a.m[slot]), float64(a.m[slot]))
	case a.isInt:
		return numPartial(true, rows, a.isum[slot], 0)
	}
	return numPartial(false, rows, 0, a.fsum[slot])
}

//imprintvet:locks held=mu.R
func (c *strColState) slotAcc(op aggOp, r segRef) slotAgg {
	a := &strSlotAgg{op: op}
	a.codes, a.syms, a.ordered = c.codeSlab(r)
	return a
}

// strSlotAgg folds min/max per slot over a string slab's codes and
// decodes each winner once, like strSegAgg.
type strSlotAgg struct {
	op      aggOp
	codes   []int32
	syms    []string
	ordered bool
	m       []int32
	seen    []bool
}

func (a *strSlotAgg) grow(n int) { a.m, a.seen = growSlab(a.m, n), growSlab(a.seen, n) }

//imprintvet:hotpath
func (a *strSlotAgg) fold(b *foldBlock) {
	sel, slot := b.sel[:b.n], b.slot[:b.n]
	for j, l := range sel {
		c, s := a.codes[l], slot[j]
		if !a.seen[s] || strBetter(a.op, c, a.m[s], a.syms, a.ordered) {
			a.m[s] = c
		}
		a.seen[s] = true
	}
}

func (a *strSlotAgg) partial(slot uint32, rows uint64) aggPartial {
	return aggPartial{rows: rows, kind: partStr, s: a.syms[a.m[slot]]}
}

// ---- execution ----

// groupFold is one segment's grouped aggregation state: the slotter of
// the key column, the per-slot row counts and one per-slot accumulator
// per distinct aggregate fold (aggBind.acc), all slabs indexed by slot.
type groupFold struct {
	slots segSlotter
	rows  []uint64 // qualifying rows per slot
	sized int      // slot count the accumulators are grown to
	accs  []slotAgg
	total uint64
	blk   foldBlock
}

// span folds a wholesale exact span (every row live and qualifying),
// cut into blocks.
//
//imprintvet:hotpath
func (f *groupFold) span(from, to int) {
	for b := from; b < to; b += BlockRows {
		n := min(BlockRows, to-b)
		for j := range f.blk.sel[:n] {
			f.blk.sel[j] = uint32(b + j)
		}
		f.blk.n = n
		f.flush()
	}
}

// mask folds the surviving lanes of one block.
//
//imprintvet:hotpath
func (f *groupFold) mask(base int, mask uint64) {
	n := 0
	for mask != 0 {
		f.blk.sel[n] = uint32(base + bits.TrailingZeros64(mask))
		mask &= mask - 1
		n++
	}
	f.blk.n = n
	f.flush()
}

// flush runs the staged block through the pipeline: assign slots
// (counting rows per slot), then one typed loop per accumulator.
//
//imprintvet:hotpath
func (f *groupFold) flush() {
	b := &f.blk
	f.rows = f.slots.assign(b, f.rows)
	if n := len(f.rows); n != f.sized {
		f.sized = n
		for _, a := range f.accs {
			a.grow(n)
		}
	}
	f.total += uint64(b.n)
	for _, a := range f.accs {
		a.fold(b)
	}
}

// emit renders the non-empty slots as group partials, ascending by key,
// their parts cut from one slab.
func (f *groupFold) emit(binds []aggBind) []groupOut {
	n := 0
	for _, r := range f.rows {
		if r > 0 {
			n++
		}
	}
	groups := make([]groupOut, 0, n)
	parts := make([]aggPartial, n*len(binds))
	add := func(slot uint32) {
		rows := f.rows[slot]
		if rows == 0 {
			return
		}
		out := groupOut{key: f.slots.key(slot), rows: rows, parts: parts[:len(binds):len(binds)]}
		parts = parts[len(binds):]
		for i, b := range binds {
			if b.acc >= 0 {
				out.parts[i] = f.accs[b.acc].partial(slot, rows)
			} else {
				out.parts[i] = aggPartial{rows: rows}
			}
		}
		groups = append(groups, out)
	}
	if order := f.slots.sorted(); order != nil {
		for _, slot := range order {
			add(slot)
		}
	} else {
		for slot := range f.rows {
			add(uint32(slot))
		}
	}
	return groups
}

// group is the per-unit grouping worker: qualifying rows arrive a block
// at a time (the selection mask of a walked block, or an exact span cut
// into blocks) and fold through groupFold. Keys vary row to row, so
// grouped aggregation always visits rows (no summary or wholesale
// pushdown); exact runs still skip the residual check. Within a group
// rows fold in ascending row order, so float sums do not depend on the
// slotting.
//
//imprintvet:locks held=mu.R
func (p *part) group(u unit) segOut {
	var o segOut
	binds := p.aggs
	ev := p.eval(u, &o.st)
	if len(ev.runs) > 0 {
		r := p.ref(u)
		f := &groupFold{slots: p.col.slotter(r), accs: make([]slotAgg, 0, len(binds))}
		for _, b := range binds {
			if b.acc == len(f.accs) {
				f.accs = append(f.accs, b.col.slotAcc(b.spec.op, r))
			}
		}
		p.t.aggWalk(ev, &o.st, f.span, f.mask)
		o.count = f.total
		o.groups = f.emit(binds)
	}
	releaseEval(&ev)
	return o
}

// groupMerge is the consumer side of a grouped aggregation: unit
// partials merge in unit order (each group's partials merge
// commutatively), and result sorts the groups by key — identical at
// every parallelism level.
type groupMerge struct {
	binds  []aggBind
	groups map[groupKey]*mergedGroup
}

type mergedGroup struct {
	rows  uint64
	parts []aggPartial
}

func (m *groupMerge) group(k groupKey) *mergedGroup {
	mg := m.groups[k]
	if mg == nil {
		mg = &mergedGroup{parts: make([]aggPartial, len(m.binds))}
		m.groups[k] = mg
	}
	return mg
}

func (m *groupMerge) addSegment(groups []groupOut) {
	for _, gr := range groups {
		mg := m.group(gr.key)
		mg.rows += gr.rows
		for i := range gr.parts {
			mg.parts[i].mergeInto(m.binds[i].spec.op, gr.parts[i])
		}
	}
}

func (m *groupMerge) result(key string) *GroupedResult {
	keys := make([]groupKey, 0, len(m.groups))
	for k := range m.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	res := &GroupedResult{Key: key, Groups: make([]Group, len(keys))}
	for gi, k := range keys {
		mg := m.groups[k]
		grp := Group{Key: k.value(), Rows: mg.rows, Aggs: make([]AggValue, len(m.binds))}
		for i, b := range m.binds {
			grp.Aggs[i] = mg.parts[i].value(b.spec)
		}
		res.Groups[gi] = grp
	}
	return res
}

// Aggregate executes the grouped aggregation: per-unit partial groups
// merged in unit order (each group's partials merge commutatively, so
// results are identical at every parallelism level), then sorted
// ascending by key. Limit does not apply to grouped aggregation (except
// Limit(0), which returns no groups).
func (g *GroupedQuery) Aggregate(specs ...AggSpec) (*GroupedResult, core.QueryStats, error) {
	q := g.q
	var x exec
	x.begin(q)
	defer x.end()
	if q.order != nil {
		return nil, x.st, fmt.Errorf("table %s: OrderBy does not apply to GroupBy aggregation", q.t.name)
	}
	if q.limited && q.limit > 0 {
		return nil, x.st, fmt.Errorf("table %s: Limit does not apply to GroupBy aggregation (drop the limit or use Limit(0))", q.t.name)
	}
	err := x.checkProjection()
	if err == nil {
		err = x.column(g.key)
	}
	if err == nil {
		if err = x.parts[0].col.groupCheck(); err != nil {
			err = fmt.Errorf("table %s: %w", q.t.name, err)
		}
	}
	if err == nil {
		err = x.resolveAggs(specs)
	}
	if run, err := x.ready(err); !run {
		if err != nil {
			return nil, x.st, err
		}
		return &GroupedResult{Key: g.key}, x.st, nil
	}
	merge := groupMerge{binds: x.parts[0].aggs, groups: map[groupKey]*mergedGroup{}}
	if err := x.forEachUnit(
		func(u unit) segOut { return x.parts[u.c].group(u) },
		func(_ unit, o segOut) bool {
			merge.addSegment(o.groups)
			return true
		}); err != nil {
		return nil, x.st, err
	}
	return merge.result(g.key), x.st, nil
}
