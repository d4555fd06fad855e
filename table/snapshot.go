package table

import (
	"repro/internal/core"
	"repro/internal/delta"
)

// Snapshot reads (the LSM-style write path's read side): an execution
// captures, under the read lock it already holds, the sealed-segment
// epoch (the segment list at t.rows) plus a delta watermark — a
// delta.View of the rows buffered at capture time. Each part's buffered
// rows are one more unit of the execution frame (exec.go): unindexed
// and summary-less — one inexact run over the view's positions, never
// pruned, probed or answered from a summary — and otherwise evaluated
// like a sealed segment, by the same block walk (walkBlocks), the same
// monomorphized selection-mask kernels composed under the same
// and/or/andnot semantics (deltaKernel), and the same typed folds,
// collectors and gathers, built over the view's column vector instead
// of a segment's value slab (the anyColumn hooks take a segRef). There
// is one delta read path.
//
// What a view aliases: the vectors are the store's own memory.
// Concurrent appends land beyond the watermark (a vector only grows
// past the viewed prefix; the dictionary only gains symbols past the
// codes the prefix uses), and everything that patches or drops
// buffered values — an update of a buffered row, a flush, a seal
// install that re-homes the rows into segments — runs under the
// table's write lock, which the execution's read lock excludes. Either
// way the union each executor produces is the table as of capture, so
// readers get stable results while writers stream.

// segRef names the rows a column hook reads: sealed segment s of the
// column, indexed by segment-local id, or — when view is set — the
// column's vector of the part's delta view, indexed by position (the
// row with part-local id view.Origin()+p sits at position p).
type segRef struct {
	s    int
	view *delta.View
}

// deltaViewLocked captures the delta watermark for one execution (no
// rows under the immediate seal policy: its commits flush before they
// unlock). Callers hold the read lock for the view's lifetime.
//
//imprintvet:locks held=mu.R
func (t *Table) deltaViewLocked() delta.View {
	return t.delta.store.View()
}

// evalDelta is evalSegment for the part's buffered rows at positions
// [lo, hi) of its delta view: one inexact run over the blocks they
// touch, the residual being the execution tree compiled — once per
// execution — to a selection-mask kernel over the view's vectors (nil
// tree: no residual, every live row qualifies).
//
//imprintvet:locks held=mu.R
func (p *part) evalDelta(lo, hi int) evaluated {
	if p.en != nil && p.dkern == nil {
		p.dkern = deltaKernel(p.en, segRef{view: &p.view})
	}
	buf := getRunScratch()
	first := lo / BlockRows
	*buf = append((*buf)[:0], core.CandidateRun{
		Start: uint32(first),
		Count: uint32((hi+BlockRows-1)/BlockRows - first),
	})
	return evaluated{runs: *buf, owner: buf, kern: p.dkern,
		origin: p.view.Origin(), lo: lo, hi: hi, buffered: true}
}

// deltaKernel compiles an execution tree into the selection-mask kernel
// of the delta vectors r names, composing the leaves' kernels exactly
// as evalSegment composes a sealed segment's residual.
//
//imprintvet:locks held=mu.R
func deltaKernel(en *execNode, r segRef) blockKernel {
	if en.op == "leaf" {
		return en.plan.deltaKernel(r)
	}
	kerns := make([]blockKernel, len(en.kids))
	for i, kid := range en.kids {
		kerns[i] = deltaKernel(kid, r)
	}
	switch en.op {
	case "and":
		return andKernels(kerns)
	case "or":
		return orKernels(kerns)
	}
	return andNotKernel(kerns[0], kerns[1]) // "andnot" — binary: p and not q
}
