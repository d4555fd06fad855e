package core

import (
	"math"
	"math/bits"
)

// Min returns the smallest value in the column using the imprint to
// restrict the search: the global minimum must live in a cacheline
// whose vector sets the lowest truly-occupied bin, so only cachelines
// carrying the candidate bin bit are read. Imprint bits are a superset
// of the occupied bins (updates only add bits, Section 4.2), so after
// scanning the candidate cachelines the result is accepted only if some
// scanned value actually falls into a bin at or below the candidate —
// otherwise the bit was stale and the search advances to the next
// occupied bin. On clustered, unmodified data the first candidate bin
// wins and a tiny fraction of the column is touched. A float NaN is
// unordered: Min and Max skip it, and answer NaN only for a column that
// holds nothing else. −0 orders below +0, as Go's builtin min and max
// order them, so the answer does not depend on which zero is read first.
func (ix *Index[V]) Min() (V, QueryStats) {
	return ix.extreme(true)
}

// Max returns the largest value in the column, symmetric to Min.
func (ix *Index[V]) Max() (V, QueryStats) {
	return ix.extreme(false)
}

func (ix *Index[V]) extreme(min bool) (V, QueryStats) {
	// Pass 1: the union of all vectors gives the candidate bins.
	st := QueryStats{Probes: uint64(ix.vecs.len())}
	all := ix.vecs.union(0, ix.vecs.len())
	if ix.pendingCount > 0 {
		st.Probes++
		all |= ix.pendingVec
	}

	// Walk candidate bins from the extreme end, reading every cacheline
	// whose vector carries the bin. The scan for bin b is conclusive
	// once some scanned value truly lies at or beyond bin b (unscanned
	// cachelines cannot hold anything more extreme: a missing bit
	// guarantees an empty bin). Stale bits — possible after
	// MarkUpdated — just push the walk to the next occupied bin.
	var best V
	found := false
	var runs []CandidateRun
	for remaining := all; remaining != 0; {
		b := bits.TrailingZeros64(remaining)
		if !min {
			b = 63 - bits.LeadingZeros64(remaining)
		}
		remaining &^= 1 << uint(b)
		var s QueryStats
		runs, s = ix.RunsInto(runs[:0], Masks{Mask: 1 << uint(b)}, 1)
		st.Add(s)
		for _, r := range runs {
			from, to := ix.rows(r)
			st.Comparisons += uint64(to - from)
			for _, v := range ix.col[from:to] {
				if v != v {
					if !found {
						best = v // NaN is unordered: the answer only when nothing else is
					}
					continue
				}
				if !found || (min && (v < best || v == 0 && best == 0 && math.Signbit(float64(v)))) ||
					(!min && (v > best || v == 0 && best == 0 && math.Signbit(float64(best)))) {
					best, found = v, true
				}
			}
		}
		if found {
			bb := ix.hist.Bin(best)
			if (min && bb <= b) || (!min && bb >= b) {
				return best, st
			}
		}
	}
	// All bits were stale beyond their bins (possible only after heavy
	// update marking); best still holds the extreme of everything
	// scanned, which at this point covers every non-empty cacheline
	// carrying any occupied bit — i.e. the whole column.
	return best, st
}
