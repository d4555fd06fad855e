package core

import "math/bits"

// Append extends the index over newly appended rows (Section 4.1: "data
// appends simply cause new imprint vectors to be appended to the end of
// the existing ones, without the need of accessing any of the previous
// imprint vectors"). col must be the complete column — the previously
// indexed prefix followed by the new rows; the index retains the new
// slice reference (the caller's append may have reallocated it).
//
// The histogram borders are NOT readjusted: the paper argues the
// overflow bins at both ends absorb outliers and only a dramatic
// distribution change would warrant a rebuild.
func (ix *Index[V]) Append(col []V) {
	if len(col) < ix.n {
		panic("core: Append column shorter than the indexed prefix")
	}
	ix.col = col
	ix.extend(col[ix.n:])
}

// MarkUpdated widens the imprint covering row id so that it also maps
// value v. This is the Section 4.2 treatment of in-place updates and
// mid-table insertions: deletions are ignored (imprints may yield false
// positives, never false negatives), while insertions set additional
// bits. Under compression the widened vector may be shared by a whole
// repeat run — conservative but correct. Repeated marking saturates the
// index; see Saturation and NeedsRebuild.
func (ix *Index[V]) MarkUpdated(id int, v V) {
	if id < 0 || id >= ix.n {
		panic("core: MarkUpdated id out of range")
	}
	bit := uint64(1) << uint(ix.hist.Bin(v))
	cl := id / ix.vpc
	if cl >= ix.committed {
		if ix.pendingVec&bit == 0 {
			ix.pendingVec |= bit
			ix.extraBits++
		}
		return
	}
	// Locate the stored vector covering cacheline cl.
	iVec, at := 0, 0
	for _, e := range ix.dict {
		cnt := int(e.Count())
		if cl < at+cnt {
			if !e.Repeat() {
				iVec += cl - at
			}
			old := ix.vecs.get(iVec)
			if old&bit == 0 {
				ix.vecs.set(iVec, old|bit)
				ix.extraBits++
			}
			return
		}
		at += cnt
		if e.Repeat() {
			iVec++
		} else {
			iVec += cnt
		}
	}
	panic("core: dictionary does not cover cacheline") // unreachable
}

// Saturation returns the mean fraction of set bits per stored imprint
// vector. A freshly built imprint over well-clustered data is sparse;
// update marking (MarkUpdated) only ever adds bits, so saturation grows
// monotonically toward 1, at which point the index filters nothing.
func (ix *Index[V]) Saturation() float64 {
	if ix.vecs.len() == 0 && ix.pendingCount == 0 {
		return 0
	}
	var set, total uint64
	for i := 0; i < ix.vecs.len(); i++ {
		set += uint64(bits.OnesCount64(ix.vecs.get(i)))
		total += uint64(ix.hist.Bins)
	}
	if ix.pendingCount > 0 {
		set += uint64(bits.OnesCount64(ix.pendingVec))
		total += uint64(ix.hist.Bins)
	}
	return float64(set) / float64(total)
}

// ExtraBits returns how many imprint bits were added by MarkUpdated
// since construction.
func (ix *Index[V]) ExtraBits() int { return ix.extraBits }

// NeedsRebuild applies the Section 4.2 heuristic: once updates have
// saturated the imprint (or the delta outgrows deltaRatio of the base),
// the secondary index should be discarded and rebuilt during the next
// scan. saturationLimit and deltaRatio are fractions in (0, 1]; typical
// values are 0.5 and 0.1. Only update marking saturates an imprint, so
// an index no MarkUpdated ever widened answers in O(1): the popcount
// over every vector runs only once extraBits says an update landed.
func (ix *Index[V]) NeedsRebuild(saturationLimit float64, deltaLen int, deltaRatio float64) bool {
	if saturationLimit > 0 && ix.extraBits > 0 && ix.Saturation() >= saturationLimit {
		return true
	}
	if deltaRatio > 0 && ix.n > 0 && float64(deltaLen)/float64(ix.n) >= deltaRatio {
		return true
	}
	return false
}

// Rebuild reconstructs the index from its current column reference,
// resampling the histogram. It returns the fresh index (the receiver is
// left untouched so callers can swap atomically).
func (ix *Index[V]) Rebuild() *Index[V] {
	return Build(ix.col, ix.opts)
}
