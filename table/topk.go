package table

import (
	"cmp"
	"math"
	"math/bits"
	"sort"

	"repro/internal/coltype"
)

// OrderBy + Limit(k) executes as a top-k that prunes. Every unit — a
// sealed segment, or a part's buffered rows — streams its qualifying
// rows block by block into a bounded heap of its k best (comparing
// typed values: dictionary codes for strings, decoded only when the
// heap is emitted), and the consumer merges the unit partials, in
// ascending global-segment order, into one running heap of the k best
// rows merged so far. Its root θ — the k-th best row yet — bounds every
// later unit: no row ranking after θ can enter the result. So once k
// rows are merged, a sealed unit is evaluated as and(θ-leaf, predicate),
// where the θ-leaf is col >= θ for desc and col <= θ for asc. It is
// inclusive so that its soundness never rests on the order units
// arrive in — a row tying θ with a lower id ranks before it, and a
// part's buffered rows can hold lower ids than sealed units of other
// shards merged before them — at the cost of walking the ties. The
// θ-leaf is an ordinary predicate leaf compiled against the order
// column, so the machinery every conjunction uses does the skipping: a
// segment whose min/max rules θ out is dropped before any probe, sample
// or kernel (excludes), a clustered order column has its imprint probed
// down to the blocks that can still beat θ, and the kernels run over
// those blocks only. Buffered units have no summary and are walked with
// the predicate alone.
//
// Which θ a unit sees is fixed by the fan-out, not by timing: at
// parallelism P the unit in slot i evaluates against θ as merged
// through slot i−P (i−1 when serial) — forEachSegment's lagged mode
// holds its worker back until that slot is merged — so results are
// identical at every parallelism level and shard count, and QueryStats
// repeat exactly at a given parallelism. Without Limit there is no
// bound: the collectors keep every row and the merge is a full sort.

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
// by ascending id. Combined with Limit(k) it executes as a top-k whose
// k-th best row so far bounds the rest of the execution: segments and
// blocks that cannot hold a row at least that good are skipped by
// their min/max summaries and by the order column's imprint. The bound
// is inclusive, so rows tying it still rank by ascending id exactly as
// a full sort would. The ordering column does not have to be projected.
// Count ignores the order; Aggregate and GroupBy reject it. Float NaN
// values rank after every real value in either direction.
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

// orderPartial is one unit's opaque typed partial — a []topEntry of
// the column's value type, decoded strings for a string column — merged
// by the owning column's topMerge.
type orderPartial any

// topEntry pairs a sortable value with its global row id.
type topEntry[V cmp.Ordered] struct {
	v  V
	id uint32
}

// rankBefore reports whether a ranks strictly before b in the result
// order: by value in the requested direction, ties by ascending id —
// a total order, so ranking is deterministic. Float NaNs (the only
// values unequal to themselves) rank after every real value in either
// direction, keeping the order total where raw < and > would make
// every comparison false.
func rankBefore[V cmp.Ordered](a, b topEntry[V], desc bool) bool {
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
type boundedHeap[V cmp.Ordered] struct {
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
// ascend within a unit: a value equal to the root's loses the id
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

// ---- the merge and its bound ----

// topMerge is the consumer's side of an ordered execution: the unit
// partials merged, in fan-out order, into one heap of the k best
// entries so far (every entry when k <= 0).
type topMerge interface {
	add(p orderPartial)
	// tighten returns the θ-leaf when the merged k-th best value moved
	// since the last call; nil while it did not, while fewer than k
	// entries are merged, while it is NaN, and when no leaf states it
	// (asc θ at the top of its type).
	tighten() *leafPred
	// ids returns the merged entries' row ids in rank order.
	ids() []uint32
}

// entryMerge is topMerge over entries of value type V; leaf states a θ
// as a predicate leaf on the order column col.
type entryMerge[V cmp.Ordered] struct {
	heap    boundedHeap[V]
	col     string
	leaf    func(col string, theta V, desc bool) *leafPred
	theta   V
	tighter bool // theta was handed out
}

func (m *entryMerge[V]) add(p orderPartial) {
	ents, _ := p.([]topEntry[V])
	for _, e := range ents {
		m.heap.push(e)
	}
}

func (m *entryMerge[V]) tighten() *leafPred {
	h := &m.heap
	if h.k <= 0 || len(h.h) < h.k {
		return nil
	}
	theta := h.h[0].v
	if theta != theta || m.tighter && theta == m.theta {
		return nil
	}
	m.theta, m.tighter = theta, true
	return m.leaf(m.col, theta, h.desc)
}

func (m *entryMerge[V]) ids() []uint32 {
	all, desc := m.heap.h, m.heap.desc
	sort.Slice(all, func(i, j int) bool { return rankBefore(all[i], all[j], desc) })
	ids := make([]uint32, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	return ids
}

// numBound states θ as a leaf on a numeric order column: col >= θ for
// desc; for asc col < θ's successor — θ+1 for integers, the next float
// up for floats — and no leaf where θ has none (the type's maximum,
// +Inf).
func numBound[V coltype.Value](col string, theta V, desc bool) *leafPred {
	if desc {
		return &leafPred{col: col, kind: kindAtLeast, low: theta}
	}
	next := theta + 1
	if coltype.IsFloat[V]() {
		if coltype.Width[V]() == 4 {
			next = V(math.Nextafter32(float32(theta), float32(math.Inf(1))))
		} else {
			next = V(math.Nextafter(float64(theta), math.Inf(1)))
		}
	}
	if !(next > theta) {
		return nil
	}
	return &leafPred{col: col, kind: kindLessThan, high: next}
}

// strBound states θ as a leaf on a string order column: col >= θ for
// desc, the inclusive range ["", θ] for asc.
func strBound(col, theta string, desc bool) *leafPred {
	if desc {
		return &leafPred{col: col, kind: kindAtLeast, low: theta}
	}
	return &leafPred{col: col, kind: kindRange, low: "", high: theta}
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

func (c *colState[V]) topkMerge(desc bool, k int) topMerge {
	return &entryMerge[V]{heap: boundedHeap[V]{desc: desc, k: k}, col: c.name, leaf: numBound[V]}
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
		return &strDeltaTopK{codes: codes, syms: syms, heap: boundedHeap[string]{desc: desc, k: k}}
	}
	return &strTopK{syms: syms, numTopK: numTopK[int32]{vals: codes, heap: boundedHeap[int32]{desc: desc, k: k}}}
}

// partial decodes the kept codes: codes from different dictionaries
// are not comparable, so the merge ranks strings.
func (t *strTopK) partial() orderPartial {
	out := make([]topEntry[string], len(t.heap.h))
	for i, e := range t.heap.h {
		out[i] = topEntry[string]{v: t.syms[e.v], id: e.id}
	}
	return out
}

// strDeltaTopK heaps the delta's qualifying rows by their decoded
// strings: arrival-ordered codes do not rank, so each candidate is
// decoded (a symbol lookup) and ranked as a string, k entries at most.
type strDeltaTopK struct {
	codes  []int32
	syms   []string
	idBase uint32
	heap   boundedHeap[string]
}

func (t *strDeltaTopK) rebase(idBase uint32) { t.idBase = idBase }

func (t *strDeltaTopK) push(local int) {
	if v := t.syms[t.codes[local]]; !t.heap.rejects(v) {
		t.heap.push(topEntry[string]{v: v, id: t.idBase + uint32(local)})
	}
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

func (t *strDeltaTopK) partial() orderPartial { return t.heap.h }

func (c *strColState) topkMerge(desc bool, k int) topMerge {
	return &entryMerge[string]{heap: boundedHeap[string]{desc: desc, k: k}, col: c.name, leaf: strBound}
}

// ---- execution ----

// topk is the per-unit ordered worker: the unit's qualifying rows
// stream block by block into a collector over its slab, which tags them
// with global ids. A sealed unit evaluates en — the part's tree, or the
// tree bounded by θ once the merge published one. A part's buffered
// rows are walked one local segment at a time under the part's own
// tree, the collector rebased to each one's global id span.
//
//imprintvet:locks held=mu.R
func (x *exec) topk(u unit, en *execNode, desc bool, k int) segOut {
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
		var ev evaluated
		if u.buf {
			ev = p.eval(u, &o.st)
		} else {
			ev = p.t.evalSegment(en, u.lseg, p.q.opts, &o.st, false)
		}
		p.t.aggWalk(ev, &o.st, acc.pushSpan, acc.pushMask)
		releaseEval(&ev)
	}
	o.ord = acc.partial()
	return o
}

// rankedIDs executes a bound OrderBy query (x.column resolved the
// ordering column) down to the ranked global row ids. Every unit still
// reports — a later segment may hold better rows, so there is no early
// cancel — but once the merge holds k entries each sealed unit is
// bounded by θ. The consumer records, per fan-out slot, the trees the
// merge had published once that slot was consumed; the worker of slot
// i reads the record at slot i−par (the nearest consumed slot at or
// before it, holes skipped), which the lagged fan-out has settled.
//
//imprintvet:locks held=mu.R
func (x *exec) rankedIDs() ([]uint32, error) {
	q := x.q
	k := 0
	if q.limited {
		k = q.limit
	}
	desc := q.order.desc
	merge := x.parts[0].col.topkMerge(desc, k)
	x.lagged = k > 0
	plain := make([]*execNode, len(x.parts))
	for c := range x.parts {
		plain[c] = x.parts[c].en
	}
	cur := plain
	var published [][]*execNode // by slot; nil for holes and slots not yet consumed
	if x.lagged {
		published = make([][]*execNode, x.slots)
	}
	tree := func(u unit) *execNode {
		if x.lagged && !u.buf {
			for s := u.gseg - x.par; s >= 0; s-- {
				if trees := published[s]; trees != nil {
					return trees[u.c]
				}
			}
		}
		return plain[u.c]
	}
	if err := x.forEachUnit(
		func(u unit) segOut { return x.topk(u, tree(u), desc, k) },
		func(u unit, o segOut) bool {
			merge.add(o.ord)
			if x.lagged && !u.buf {
				if leaf := merge.tighten(); leaf != nil {
					cur = x.bounded(leaf)
				}
				published[u.gseg] = cur
			}
			return true
		}); err != nil {
		return nil, err
	}
	return merge.ids(), nil
}

// bounded compiles the θ-leaf against every part's order column — one
// plain leaf, no statement re-bind — and conjoins it with the part's
// tree, θ first: it is the more selective conjunct, so the and's kernel
// short-circuits on it.
//
//imprintvet:locks held=mu.R
func (x *exec) bounded(leaf *leafPred) []*execNode {
	trees := make([]*execNode, len(x.parts))
	for c := range x.parts {
		p := &x.parts[c]
		plan, err := p.col.compileLeaf(leaf)
		if err != nil {
			panic("table: top-k bound: " + err.Error()) // θ carries the column's own type
		}
		trees[c] = &execNode{op: "leaf", leaf: leaf, plan: plan}
		if p.en != nil {
			trees[c] = &execNode{op: "and", kids: []*execNode{trees[c], p.en}}
		}
	}
	return trees
}
