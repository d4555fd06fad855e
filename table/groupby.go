package table

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/coltype"
	"repro/internal/core"
)

// GroupBy partitions the qualifying rows by a low-cardinality key
// column — integer or dictionary-encoded string — and aggregates each
// group. Per-segment workers fold each block's selection mask straight
// into accumulator slabs indexed by a slot id: the segment dictionary's
// code for string keys (read from the code slab in place), v − min for
// integer keys whose segment summary spans fewer than groupSlots values
// (computed for every lane of the block at once), a map-assigned slot
// otherwise. One walk of the mask by trailing-zero counts reads each
// qualifying lane's slot and adds the row to its count and to every
// integer sum in the same iteration. Float sums and min/max fold in
// ascending row order in a walk of their own, so a group's float sum is
// bit-identical to a row-at-a-time fold; min/max follow foldMin and
// foldMax (NaN skipped, −0 below +0). Each segment's slots are
// remapped to the global key space (the decoded symbol, the integer
// itself) when its partials are emitted, so per-segment dictionaries
// never leak into results. The consumer merges group partials in
// segment order and sorts groups by key, so grouped results are
// identical at every parallelism level.
//
// An ungrouped Query.Aggregate is the same fold with one group: the
// oneSlot slotter puts every row in slot 0. Only there does an exact
// span fold whole (slotAgg.span) rather than as full-mask blocks. A
// block whose lanes share one slot and add no integer sum is counted by
// its popcount.

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

// laneSlots is one block's accumulator slot per lane.
type laneSlots = [BlockRows]int32

// segSlotter maps one segment's key values to accumulator slots — small
// dense integers chosen from what the segment already knows about its
// keys, so the fold indexes arrays instead of probing a map per row.
type segSlotter interface {
	// slots returns the slots of the block at slab position base — every
	// lane set in mask holds its row's slot, the others anything — and
	// the number of slots handed out so far: fixed for a dictionary or a
	// dense key, growing with a map-slotted one.
	slots(base int, mask uint64) (*laneSlots, int)
	// sorted lists the slots in ascending key order; nil when slot order
	// already is key order.
	sorted() []uint32
	// key decodes a slot to the global key space.
	key(slot uint32) groupKey
}

// laneBlock returns the block of vals at base as 64 lanes: the slab
// itself where a whole block is there, else the ragged tail padded into
// pad.
func laneBlock[V any](vals []V, base int, pad *[BlockRows]V) *[BlockRows]V {
	if base+BlockRows <= len(vals) {
		return (*[BlockRows]V)(vals[base : base+BlockRows])
	}
	return padBlock(pad, vals[base:])
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
// groupSlots the slot is v − min — already in key order — computed for
// every lane of a block at once. Otherwise a map hands out slots in
// first-seen order, qualifying lane by qualifying lane, and sorted()
// restores key order at emission.
type numSlotter[V coltype.Value] struct {
	vals     []V
	base     uint64 // the segment minimum, widened
	dense    int    // slot count of the dense table; 0 selects the map
	unsigned bool   // uint64 keys: order and report unsigned
	index    map[int64]uint32
	keys     []int64 // map path: slot → key
	out      laneSlots
	pad      [BlockRows]V
}

//imprintvet:hotpath
func (sl *numSlotter[V]) slots(base int, mask uint64) (*laneSlots, int) {
	if sl.dense > 0 {
		denseSlotLanes(laneBlock(sl.vals, base, &sl.pad), sl.base, &sl.out)
		return &sl.out, sl.dense
	}
	vals := sl.vals[base:]
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		k := int64(vals[i])
		s, ok := sl.index[k]
		if !ok {
			s = uint32(len(sl.keys))
			sl.index[k] = s
			sl.keys = append(sl.keys, k)
		}
		sl.out[i] = int32(s)
	}
	return &sl.out, len(sl.keys)
}

// denseSlotLanes computes the dense slot v − lo of every lane, whether
// it qualifies or not: a straight 64-lane loop costs less than a walk of
// the mask, and the slot of a lane the fold does not read is never used.
//
//imprintvet:hotpath
func denseSlotLanes[V coltype.Value](blk *[BlockRows]V, lo uint64, out *laneSlots) {
	for i := range blk {
		out[i] = int32(wide64(blk[i]) - lo)
	}
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
// dictionary being the segment's or the delta's own, so a block's slots
// are its code slab read in place — and decodes a slot to its symbol
// only at emission, remapping the private code space to the global key
// space. A sealed segment's slots are in string order; the delta's are
// in arrival order, which the merge (keyed, then sorted) does not
// depend on.
type strSlotter struct {
	codes []int32
	syms  []string
	pad   laneSlots
}

//imprintvet:hotpath
func (sl *strSlotter) slots(base int, _ uint64) (*laneSlots, int) {
	return laneBlock(sl.codes, base, &sl.pad), len(sl.syms)
}

func (sl *strSlotter) sorted() []uint32 { return nil }

func (sl *strSlotter) key(slot uint32) groupKey {
	return groupKey{s: sl.syms[slot], isStr: true}
}

// oneSlot is the slotter of an ungrouped aggregate: every lane of every
// block is in slot 0, read from one shared zero block.
type oneSlot struct{}

var zeroSlots laneSlots

func (oneSlot) slots(int, uint64) (*laneSlots, int) { return &zeroSlots, 1 }

func (oneSlot) sorted() []uint32 { return nil }

func (oneSlot) key(uint32) groupKey { return groupKey{} }

// ---- per-slot accumulators ----

// slotAgg is one aggregate's per-slot accumulator over one segment,
// either a slotSum or an orderedAgg.
type slotAgg interface {
	grow(nslots int)
	// span folds slab positions [from, to) — every row live and
	// qualifying — into slot 0 in one tight loop: an ungrouped fold's
	// wholesale tier. A float sum adds the span's own sum to the total.
	span(from, to int)
	partial(slot uint32, rows uint64) aggPartial
}

// slotSum is an integer sum: the fold adds into it in the same walk of
// each mask that counts the rows.
type slotSum interface {
	slotAgg
	// lanes returns the block at slab position base widened to int64
	// (lanes past the slab hold anything) and the per-slot sums.
	lanes(base int) (*[BlockRows]int64, []int64)
}

// orderedAgg folds the lanes of a mask in ascending order in a walk of
// its own: a float sum, whose rounding depends on the order of its
// adds, or a min/max under foldMin/foldMax, where NaN is skipped and −0
// orders below +0.
type orderedAgg interface {
	slotAgg
	fold(slots *laneSlots, base int, mask uint64)
}

//imprintvet:locks held=mu.R
func (c *colState[V]) slotAcc(op aggOp, r segRef) slotAgg {
	vals := c.slab(r)
	if op == aggMin || op == aggMax || !isIntType[V]() {
		return &numSlotAgg[V]{op: op, vals: vals, isInt: isIntType[V]()}
	}
	a := &intSlotSum[V]{vals: vals}
	a.v64, _ = any(vals).([]int64)
	return a
}

// intSlotSum is the per-slot sum of an integer column (sum and avg share
// it): an int64 per slot, where uint64 values beyond 2^63 wrap.
type intSlotSum[V coltype.Value] struct {
	vals []V
	v64  []int64 // vals itself when V is int64: whole blocks are read in place
	acc  []int64
	wide [BlockRows]int64
}

func (a *intSlotSum[V]) grow(n int) { a.acc = growSlab(a.acc, n) }

//imprintvet:hotpath
func (a *intSlotSum[V]) lanes(base int) (*[BlockRows]int64, []int64) {
	if base+BlockRows <= len(a.v64) {
		return (*[BlockRows]int64)(a.v64[base : base+BlockRows]), a.acc
	}
	for i, v := range a.vals[base:min(base+BlockRows, len(a.vals))] {
		a.wide[i] = int64(v)
	}
	return &a.wide, a.acc
}

//imprintvet:hotpath
func (a *intSlotSum[V]) span(from, to int) {
	var s int64
	for _, v := range a.vals[from:to] {
		s += int64(v)
	}
	a.acc[0] += s
}

func (a *intSlotSum[V]) partial(slot uint32, rows uint64) aggPartial {
	return numPartial(true, rows, a.acc[slot], 0)
}

// numSlotAgg is the per-slot float sum or typed extremum of a numeric
// column, folded in row order — so every group's partial is
// bit-identical to a row-at-a-time fold of its rows.
type numSlotAgg[V coltype.Value] struct {
	op    aggOp
	vals  []V
	isInt bool
	fsum  []float64
	m     []V    // min/max per slot, meaningful where seen
	seen  []bool // min/max: the slot has folded a value
}

func (a *numSlotAgg[V]) grow(n int) {
	if a.op == aggMin || a.op == aggMax {
		a.m, a.seen = growSlab(a.m, n), growSlab(a.seen, n)
	} else {
		a.fsum = growSlab(a.fsum, n)
	}
}

//imprintvet:hotpath
func (a *numSlotAgg[V]) fold(slots *laneSlots, base int, mask uint64) {
	vals := a.vals[base:]
	switch a.op {
	case aggMin:
		for ; mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			v, s := vals[i], slots[i]
			if a.seen[s] {
				v = foldMin(a.m[s], v)
			}
			a.m[s], a.seen[s] = v, true
		}
	case aggMax:
		for ; mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			v, s := vals[i], slots[i]
			if a.seen[s] {
				v = foldMax(a.m[s], v)
			}
			a.m[s], a.seen[s] = v, true
		}
	default:
		for ; mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			a.fsum[slots[i]] += float64(vals[i])
		}
	}
}

// span folds min/max as fold does, under foldMin/foldMax.
//
//imprintvet:hotpath
func (a *numSlotAgg[V]) span(from, to int) {
	vals := a.vals[from:to]
	if len(vals) == 0 {
		return
	}
	switch a.op {
	case aggMin, aggMax:
		m := a.m[0]
		if !a.seen[0] {
			m = vals[0]
		}
		if a.op == aggMin {
			for _, v := range vals {
				m = foldMin(m, v)
			}
		} else {
			for _, v := range vals {
				m = foldMax(m, v)
			}
		}
		a.m[0], a.seen[0] = m, true
	default:
		var s float64
		for _, v := range vals {
			s += float64(v)
		}
		a.fsum[0] += s
	}
}

func (a *numSlotAgg[V]) partial(slot uint32, rows uint64) aggPartial {
	if a.op == aggMin || a.op == aggMax {
		return numPartial(a.isInt, rows, int64(a.m[slot]), float64(a.m[slot]))
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
// decodes each winner once. Where code order is string order (a sealed
// segment) codes compare directly; a delta slab's compare by symbol.
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
func (a *strSlotAgg) fold(slots *laneSlots, base int, mask uint64) {
	codes := a.codes[base:]
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask)
		c, s := codes[i], slots[i]
		if !a.seen[s] || strBetter(a.op, c, a.m[s], a.syms, a.ordered) {
			a.m[s] = c
		}
		a.seen[s] = true
	}
}

// span reduces the codes with slices.Min or slices.Max: whole spans
// come only from sealed segments (a buffered unit's one run is never
// exact), whose code order is string order.
//
//imprintvet:hotpath
func (a *strSlotAgg) span(from, to int) {
	codes := a.codes[from:to]
	if len(codes) == 0 {
		return
	}
	m := slices.Max(codes)
	if a.op == aggMin {
		m = slices.Min(codes)
	}
	if !a.seen[0] || strBetter(a.op, m, a.m[0], a.syms, true) {
		a.m[0] = m
	}
	a.seen[0] = true
}

// strBetter reports whether code c beats the incumbent m under op
// (aggMin or aggMax).
func strBetter(op aggOp, c, m int32, syms []string, ordered bool) bool {
	if c == m {
		return false
	}
	less := c < m
	if !ordered {
		less = syms[c] < syms[m]
	}
	return less == (op == aggMin)
}

func (a *strSlotAgg) partial(slot uint32, rows uint64) aggPartial {
	return aggPartial{rows: rows, kind: partStr, s: a.syms[a.m[slot]]}
}

// ---- execution ----

// groupFold is one segment's grouped aggregation state: the slotter of
// the key column, the per-slot row counts and one per-slot accumulator
// per distinct aggregate fold (aggBind.acc), all slabs indexed by slot.
type groupFold struct {
	slots   segSlotter
	rows    []uint64     // qualifying rows per slot; a one-slot fold reads total
	accs    []slotAgg    // by aggBind.acc
	sums    []sumBlock   // the integer sums among accs
	ordered []orderedAgg // the others
	total   uint64
	whole   uint64 // rows of the spans a one-slot fold took whole
}

// sumBlock is one integer sum and, per block, what its walk reads.
type sumBlock struct {
	agg  slotSum
	vals *[BlockRows]int64
	acc  []int64
}

// newGroupFold builds the fold of binds over the rows r names, slotted
// by sl. One constructor serves GroupBy, the ungrouped aggregate (sl is
// oneSlot) and its limited form. The fold comes back by value, so it
// stays on the worker's stack.
//
//imprintvet:locks held=mu.R
func newGroupFold(sl segSlotter, binds []aggBind, r segRef) groupFold {
	f := groupFold{slots: sl, accs: make([]slotAgg, 0, len(binds))}
	for _, b := range binds {
		f.add(b, r)
	}
	return f
}

// add gives the fold b's accumulator over the rows r names, unless b is
// count(*) or shares a fold the fold already holds.
//
//imprintvet:locks held=mu.R
func (f *groupFold) add(b aggBind, r segRef) {
	if b.acc < 0 || b.acc < len(f.accs) && f.accs[b.acc] != nil {
		return
	}
	a := b.col.slotAcc(b.spec.op, r)
	f.accs = growSlab(f.accs, b.acc+1)
	f.accs[b.acc] = a
	if s, ok := a.(slotSum); ok {
		f.sums = append(f.sums, sumBlock{agg: s})
	} else {
		f.ordered = append(f.ordered, a.(orderedAgg))
	}
}

// grow extends every slab to n slots: once per segment, at its first
// block — and again only for a map-slotted key, whose slots appear as
// the walk meets new keys.
func (f *groupFold) grow(n int) {
	f.rows = growSlab(f.rows, n)
	for _, a := range f.accs {
		if a != nil {
			a.grow(n)
		}
	}
}

// span folds a wholesale exact span (every row live and qualifying). A
// grouped fold cuts it into blocks, each a full mask, so every group's
// float sum still adds row by row; the one-slot fold hands the span
// whole to each accumulator.
//
//imprintvet:hotpath
func (f *groupFold) span(from, to int) {
	if _, one := f.slots.(oneSlot); !one {
		for b := from; b < to; b += BlockRows {
			f.mask(b, blockOnes(min(BlockRows, to-b)))
		}
		return
	}
	if len(f.rows) == 0 && len(f.accs) > 0 {
		f.grow(1)
	}
	f.total += uint64(to - from)
	f.whole += uint64(to - from)
	for _, s := range f.sums {
		s.agg.span(from, to)
	}
	for _, a := range f.ordered {
		a.span(from, to)
	}
}

// mask folds the surviving lanes of the block at slab position base:
// one walk for the counts and the integer sums, then one in-order walk
// per other accumulator. A block whose lanes share one slot and add no
// integer sum is counted by its popcount, no lane walked.
//
//imprintvet:hotpath
func (f *groupFold) mask(base int, mask uint64) {
	slots, n := f.slots.slots(base, mask)
	if n > len(f.rows) {
		f.grow(n)
	}
	c := uint64(bits.OnesCount64(mask))
	f.total += c
	switch {
	case len(f.sums) == 1:
		vals, acc := f.sums[0].agg.lanes(base)
		countSumLanes(slots, mask, f.rows, vals, acc)
	case len(f.sums) == 0 && n == 1:
		f.rows[0] += c
	default:
		for k := range f.sums {
			s := &f.sums[k]
			s.vals, s.acc = s.agg.lanes(base)
		}
		countSumsLanes(slots, mask, f.rows, f.sums)
	}
	for _, a := range f.ordered {
		a.fold(slots, base, mask)
	}
}

// countSumLanes is the walk of a block with one integer sum — count(*),
// sum(x) … group by k: each qualifying lane, found by a trailing-zero
// count, has its slot read once and is counted and summed in the same
// iteration, two lanes per trip round the loop. It exists beside
// countSumsLanes because it is faster on that statement:
// BenchmarkGroupBy/str ran 1.88 ns per table row (median 2.32) against
// 2.61 (median 3.39) with countSumsLanes serving the one sum, minima of
// 20 alternated runs on a 2-core Xeon @ 2.10 GHz; taking one lane per
// trip gave back most of the gain (2.12 against 1.53 in another set).
//
//imprintvet:hotpath
func countSumLanes(slots *laneSlots, mask uint64, rows []uint64, vals *[BlockRows]int64, acc []int64) {
	acc = acc[:len(rows)] // one bounds check per lane covers both slabs
	for mask != 0 {
		i := bits.TrailingZeros64(mask) & (BlockRows - 1)
		mask &= mask - 1
		s := slots[i]
		rows[s]++
		acc[s] += vals[i]
		if mask == 0 {
			return
		}
		i = bits.TrailingZeros64(mask) & (BlockRows - 1)
		mask &= mask - 1
		s = slots[i]
		rows[s]++
		acc[s] += vals[i]
	}
}

// countSumsLanes is countSumLanes for any other number of integer sums,
// none included: every sum still rides in the lane's one iteration.
//
//imprintvet:hotpath
func countSumsLanes(slots *laneSlots, mask uint64, rows []uint64, sums []sumBlock) {
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros64(mask) & (BlockRows - 1)
		s := slots[i]
		rows[s]++
		for _, sum := range sums {
			sum.acc[s] += sum.vals[i]
		}
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
		f.parts(binds, slot, rows, out.parts)
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

// parts writes each bind's partial over slot (which holds rows) into
// dst: count(*) its row count, any other bind its accumulator's. A bind
// whose accumulator the fold does not hold — the summary answered it —
// keeps what dst has.
func (f *groupFold) parts(binds []aggBind, slot uint32, rows uint64, dst []aggPartial) {
	for i, b := range binds {
		if b.acc < 0 {
			dst[i] = aggPartial{rows: rows}
		} else if b.acc < len(f.accs) && f.accs[b.acc] != nil {
			dst[i] = f.accs[b.acc].partial(slot, rows)
		}
	}
}

// group is the per-unit grouping worker: qualifying rows arrive a block
// at a time (the selection mask of a walked block, or an exact span cut
// into full-mask blocks) and fold through groupFold. Keys vary row to
// row, so grouped aggregation always visits rows (no summary or
// wholesale pushdown); exact runs still skip the residual check.
//
//imprintvet:locks held=mu.R
func (p *part) group(u unit) segOut {
	var o segOut
	binds := p.aggs
	ev := p.eval(u, &o.st)
	if len(ev.runs) > 0 {
		r := p.ref(u)
		f := newGroupFold(p.col.slotter(r), binds, r)
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
