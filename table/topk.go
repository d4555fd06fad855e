package table

import (
	"math/bits"
	"sort"

	"repro/internal/coltype"
)

// OrderBy + Limit executes as a top-k: every segment worker keeps a
// bounded heap of its k best rows (comparing typed values — dictionary
// codes for strings, decoded only when the heap is emitted), and the
// consumer merges the per-segment partials in segment order, ranking
// them globally with ties broken by ascending row id. Without Limit the
// per-segment collectors are unbounded and the merge is a full sort.
// Either way the result is identical at every parallelism level.

// OrderSpec is one ordering of query results, built with Asc or Desc.
type OrderSpec struct {
	col  string
	desc bool
}

// Asc orders results ascending by a numeric or string column (ties by
// ascending row id).
func Asc(col string) OrderSpec { return OrderSpec{col: col} }

// Desc orders results descending by a numeric or string column (ties
// by ascending row id).
func Desc(col string) OrderSpec { return OrderSpec{col: col, desc: true} }

// String renders the spec for plans, e.g. "price desc".
func (o OrderSpec) String() string {
	if o.desc {
		return o.col + " desc"
	}
	return o.col + " asc"
}

// OrderBy orders the rows Rows and IDs return by a column instead of
// by ascending id; combined with Limit(k) it executes as a bounded
// top-k per segment. The ordering column does not have to be
// projected. Count ignores the order; Aggregate and GroupBy reject it.
// Float NaN values rank after every real value in either direction.
func (q *Query) OrderBy(o OrderSpec) *Query {
	q.order = &o
	return q
}

// segTopK collects one unit's candidate rows for an ordered execution —
// a bounded heap when k > 0, everything otherwise — taking them a block
// at a time in aggWalk's currency: the surviving lanes of one block
// (pushMask) or a wholesale exact span (pushSpan), both in positions of
// the unit's slab. Rows arrive in ascending id order; rebase sets the
// global id of position 0 for the rows that follow (a part's buffered
// rows span several global segments).
type segTopK interface {
	rebase(idBase uint32)
	pushMask(base int, mask uint64)
	pushSpan(from, to int)
	partial() orderPartial
}

// orderPartial is one segment's opaque typed partial (entries of the
// column's value type), merged by the owning column's topkMerge.
type orderPartial any

// topEntry pairs a sortable value with its global row id.
type topEntry[V coltype.Value] struct {
	v  V
	id uint32
}

// rankBefore reports whether a ranks strictly before b in the result
// order: by value in the requested direction, ties by ascending id —
// a total order, so ranking is deterministic. Float NaNs (the only
// values unequal to themselves) rank after every real value in either
// direction, keeping the order total where raw < and > would make
// every comparison false.
func rankBefore[V coltype.Value](a, b topEntry[V], desc bool) bool {
	aNaN, bNaN := a.v != a.v, b.v != b.v
	if aNaN || bNaN {
		if aNaN != bNaN {
			return bNaN
		}
		return a.id < b.id
	}
	if a.v != b.v {
		if desc {
			return a.v > b.v
		}
		return a.v < b.v
	}
	return a.id < b.id
}

// boundedHeap keeps the k best entries seen, worst at the root so the
// next candidate is compared against it in O(1). k <= 0 keeps
// everything.
type boundedHeap[V coltype.Value] struct {
	desc bool
	k    int
	h    []topEntry[V]
}

// worseAt reports whether entry i ranks after entry j (heap order:
// the root is the worst kept entry).
func (b *boundedHeap[V]) worseAt(i, j int) bool {
	return rankBefore(b.h[j], b.h[i], b.desc)
}

// rejects reports, with one compare against the root's value, that a
// full heap cannot take a later row of value v. Sound because ids
// ascend within a segment: a value equal to the root's loses the id
// tie-break, so only a strictly better value displaces the root (a NaN
// v never is). While the root itself is NaN every real value beats it,
// so nothing is rejected here and push ranks in full.
func (b *boundedHeap[V]) rejects(v V) bool {
	if b.k <= 0 || len(b.h) < b.k {
		return false
	}
	root := b.h[0].v
	if root != root {
		return false
	}
	if b.desc {
		return !(v > root)
	}
	return !(v < root)
}

func (b *boundedHeap[V]) push(e topEntry[V]) {
	if b.k <= 0 {
		b.h = append(b.h, e)
		return
	}
	if len(b.h) < b.k {
		b.h = append(b.h, e)
		// Sift up.
		for i := len(b.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !b.worseAt(i, parent) {
				break
			}
			b.h[i], b.h[parent] = b.h[parent], b.h[i]
			i = parent
		}
		return
	}
	if !rankBefore(e, b.h[0], b.desc) {
		return // not better than the worst kept
	}
	b.h[0] = e
	// Sift down.
	for i := 0; ; {
		worst := i
		if l := 2*i + 1; l < len(b.h) && b.worseAt(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < len(b.h) && b.worseAt(r, worst) {
			worst = r
		}
		if worst == i {
			break
		}
		b.h[i], b.h[worst] = b.h[worst], b.h[i]
		i = worst
	}
}

// mergeEntries ranks entries from every segment partial globally and
// returns the ids of the best k (all of them when k <= 0).
func mergeEntries[V coltype.Value](parts []orderPartial, desc bool, k int) []uint32 {
	var all []topEntry[V]
	for _, p := range parts {
		if p != nil {
			all = append(all, p.([]topEntry[V])...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return rankBefore(all[i], all[j], desc) })
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	ids := make([]uint32, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	return ids
}

// ---- numeric columns ----

//imprintvet:locks held=mu.R
func (c *colState[V]) topkAcc(r segRef, desc bool, k int) segTopK {
	return &numTopK[V]{vals: c.slab(r), heap: boundedHeap[V]{desc: desc, k: k}}
}

// numTopK heaps the typed values of one slab; idBase is the global id
// of its position 0.
type numTopK[V coltype.Value] struct {
	vals   []V
	idBase uint32
	heap   boundedHeap[V]
}

func (t *numTopK[V]) rebase(idBase uint32) { t.idBase = idBase }

//imprintvet:hotpath
func (t *numTopK[V]) pushMask(base int, mask uint64) {
	blk := t.vals[base:]
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		if v := blk[i]; !t.heap.rejects(v) {
			t.heap.push(topEntry[V]{v: v, id: t.idBase + uint32(base+i)})
		}
	}
}

//imprintvet:hotpath
func (t *numTopK[V]) pushSpan(from, to int) {
	for local := from; local < to; local++ {
		if v := t.vals[local]; !t.heap.rejects(v) {
			t.heap.push(topEntry[V]{v: v, id: t.idBase + uint32(local)})
		}
	}
}

func (t *numTopK[V]) partial() orderPartial { return t.heap.h }

func (c *colState[V]) topkMerge(parts []orderPartial, desc bool, k int) []uint32 {
	return mergeEntries[V](parts, desc, k)
}

// ---- string columns ----

// strTopK heaps segment-local dictionary codes (code order is string
// order within a segment) and decodes only the surviving entries.
type strTopK struct {
	syms []string
	numTopK[int32]
}

//imprintvet:locks held=mu.R
func (c *strColState) topkAcc(r segRef, desc bool, k int) segTopK {
	codes, syms, ordered := c.codeSlab(r)
	if !ordered {
		return &strDeltaTopK{codes: codes, syms: syms}
	}
	return &strTopK{syms: syms, numTopK: numTopK[int32]{vals: codes, heap: boundedHeap[int32]{desc: desc, k: k}}}
}

// strDeltaTopK collects the delta's qualifying rows decoded and
// unbounded: arrival-ordered codes do not rank, so the cross-unit merge
// — which sorts decoded entries anyway — does all the ranking.
type strDeltaTopK struct {
	codes  []int32
	syms   []string
	idBase uint32
	out    []strOrdEntry
}

func (t *strDeltaTopK) rebase(idBase uint32) { t.idBase = idBase }

func (t *strDeltaTopK) push(local int) {
	t.out = append(t.out, strOrdEntry{v: t.syms[t.codes[local]], id: t.idBase + uint32(local)})
}

func (t *strDeltaTopK) pushMask(base int, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		t.push(base + bits.TrailingZeros64(mask))
	}
}

func (t *strDeltaTopK) pushSpan(from, to int) {
	for local := from; local < to; local++ {
		t.push(local)
	}
}

func (t *strDeltaTopK) partial() orderPartial { return t.out }

// strOrdEntry is a decoded string entry; partials decode before the
// cross-segment merge because codes from different dictionaries are
// not comparable.
type strOrdEntry struct {
	v  string
	id uint32
}

func (t *strTopK) partial() orderPartial {
	out := make([]strOrdEntry, len(t.heap.h))
	for i, e := range t.heap.h {
		out[i] = strOrdEntry{v: t.syms[e.v], id: e.id}
	}
	return out
}

func (c *strColState) topkMerge(parts []orderPartial, desc bool, k int) []uint32 {
	var all []strOrdEntry
	for _, p := range parts {
		if p != nil {
			all = append(all, p.([]strOrdEntry)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.v != b.v {
			if desc {
				return a.v > b.v
			}
			return a.v < b.v
		}
		return a.id < b.id
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	ids := make([]uint32, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	return ids
}

// ---- execution ----

// topk is the per-unit ordered worker: the unit's qualifying rows
// stream block by block into a collector over its slab, which tags them
// with global ids. A part's buffered rows are walked one local segment
// at a time, the collector rebased to each one's global id span.
//
//imprintvet:locks held=mu.R
func (x *exec) topk(u unit, desc bool, k int) segOut {
	var o segOut
	p := &x.parts[u.c]
	acc := p.col.topkAcc(p.ref(u), desc, k)
	last := u.lseg
	if u.buf {
		u.lseg, last = p.view.Base/p.t.segRows, (p.view.Base+p.view.Rows-1)/p.t.segRows
	}
	for ; u.lseg <= last; u.lseg++ {
		u.gseg = u.lseg*len(x.parts) + u.c
		acc.rebase(x.base(u))
		ev := p.eval(u, &o.st)
		p.t.aggWalk(ev, &o.st, acc.pushSpan, acc.pushMask)
		releaseEval(&ev)
	}
	o.ord = acc.partial()
	return o
}

// rankedIDs executes a bound OrderBy query (x.column resolved the
// ordering column) down to the ranked global row ids. Every unit must
// report (a pruned one cheaply), so there is no early cancel; the
// bounded heaps keep per-segment work at O(rows · log k).
//
//imprintvet:locks held=mu.R
func (x *exec) rankedIDs() ([]uint32, error) {
	q := x.q
	k := 0
	if q.limited {
		k = q.limit
	}
	desc := q.order.desc
	parts := make([]orderPartial, 0, x.units+len(x.parts))
	if err := x.forEachUnit(
		func(u unit) segOut { return x.topk(u, desc, k) },
		func(_ unit, o segOut) bool {
			parts = append(parts, o.ord)
			return true
		}); err != nil {
		return nil, err
	}
	return x.parts[0].col.topkMerge(parts, desc, k), nil
}
