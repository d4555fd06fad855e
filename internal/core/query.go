package core

import "repro/internal/coltype"

// QueryStats instruments one query evaluation. Probes and Comparisons
// are the implementation-independent counters behind Figure 11 of the
// paper: Probes counts index structure inspections (imprint vectors
// checked here; zones or WAH words for the comparators) and Comparisons
// counts value comparisons spent weeding out false positives.
type QueryStats struct {
	Probes            uint64
	Comparisons       uint64
	CachelinesScanned uint64 // cachelines whose values were examined
	CachelinesExact   uint64 // cachelines emitted wholesale via innermask
	CachelinesSkipped uint64 // cachelines pruned by the imprint
	// FastCountedRows counts rows a Count execution tallied wholesale
	// from exact candidate runs (span minus a deleted-bitmap popcount)
	// instead of visiting them one by one.
	FastCountedRows uint64
	// ScratchReused counts pooled candidate-id scratch buffers the
	// evaluator reused (capacity recycled from an earlier query) instead
	// of growing a fresh one.
	ScratchReused uint64
	// SummaryAggRows counts per-aggregate row contributions answered
	// straight from a segment summary or the deleted-bitmap popcount —
	// the value slab was never touched. Counted once per (aggregate,
	// row), so three summary-answered aggregates over a 100-row segment
	// add 300.
	SummaryAggRows uint64
	// WholesaleAggRows counts per-aggregate row contributions folded
	// wholesale out of exact candidate runs: a tight loop over the value
	// slab with no residual predicate check and no deleted-bitmap test.
	WholesaleAggRows uint64
	// BlocksVectorized counts 64-row blocks whose residual predicate was
	// evaluated through a block-at-a-time selection-mask kernel (the
	// vectorized executor) instead of row-at-a-time check closures.
	// Comparisons keeps its Figure-11 meaning either way: one comparison
	// per evaluated live lane, counted via popcount of the block's live
	// mask.
	BlocksVectorized uint64
	// DeltaRowsScanned counts live in-memory delta rows the execution
	// evaluated exactly — no index, the same block-at-a-time selection-
	// mask kernels as a sealed segment's residual, over the buffer's
	// typed vectors — to union the unsealed write buffer with the
	// sealed-segment results.
	DeltaRowsScanned uint64
}

// Add accumulates o into s.
func (s *QueryStats) Add(o QueryStats) {
	s.Probes += o.Probes
	s.Comparisons += o.Comparisons
	s.CachelinesScanned += o.CachelinesScanned
	s.CachelinesExact += o.CachelinesExact
	s.CachelinesSkipped += o.CachelinesSkipped
	s.FastCountedRows += o.FastCountedRows
	s.ScratchReused += o.ScratchReused
	s.SummaryAggRows += o.SummaryAggRows
	s.WholesaleAggRows += o.WholesaleAggRows
	s.BlocksVectorized += o.BlocksVectorized
	s.DeltaRowsScanned += o.DeltaRowsScanned
}

// pred is a range predicate with optional unbounded and inclusive ends.
// The canonical paper query is [low, high): lowIncl=true, highIncl=false
// (Algorithm 3 checks "col[id] < high AND col[id] >= low").
type pred[V coltype.Value] struct {
	low, high         V
	lowUnb, highUnb   bool
	lowIncl, highIncl bool
}

func (p *pred[V]) match(v V) bool {
	// Each test is stated positively so that a float NaN, which compares
	// false against everything, matches no predicate.
	if !p.lowUnb {
		if p.lowIncl {
			if !(v >= p.low) {
				return false
			}
		} else if !(v > p.low) {
			return false
		}
	}
	if !p.highUnb {
		if p.highIncl {
			if !(v <= p.high) {
				return false
			}
		} else if !(v < p.high) {
			return false
		}
	}
	return true
}

// masks builds the query mask and innermask of Algorithm 3. mask has a
// bit for every bin that may contain qualifying values (conservatively
// over-approximated at the borders); innermask has a bit only for bins
// that lie entirely inside the query range (conservatively
// under-approximated), so that an imprint vector with no bits outside
// innermask guarantees every value in the cacheline qualifies. A float
// NaN satisfies no predicate and bins to 0 (histogram.Bin), so bin 0 of
// a float column is never inner.
func (ix *Index[V]) masks(p *pred[V]) (mask, inner uint64) {
	h := ix.hist
	nanBin := coltype.IsFloat[V]()
	for i := 0; i < h.Bins; i++ {
		// Bin i's bounds (histogram.BinBounds, read in place: this loop
		// runs per probed segment).
		loUnb, hiUnb := i == 0, i == h.Bins-1
		var lo, hi V
		if !loUnb {
			lo = h.Borders[i-1]
		}
		if !hiUnb {
			hi = h.Borders[i]
		}

		// Overlap: some value in [lo, hi) may satisfy p.
		overlap := true
		if !p.highUnb && !loUnb {
			if p.highIncl {
				overlap = lo <= p.high
			} else {
				overlap = lo < p.high
			}
		}
		if overlap && !p.lowUnb && !hiUnb {
			// Need a value >= / > low inside [lo, hi): hi must exceed low.
			overlap = hi > p.low
		}
		if overlap {
			mask |= 1 << uint(i)
		}

		// Containment: every value in [lo, hi) satisfies p.
		contained := true
		if !p.lowUnb {
			if loUnb {
				contained = false
			} else if p.lowIncl {
				contained = lo >= p.low
			} else {
				contained = lo > p.low
			}
		}
		if contained && !p.highUnb {
			if hiUnb {
				contained = false
			} else {
				// All bin values are < hi; hi <= high suffices for both
				// inclusive and exclusive upper query bounds.
				contained = hi <= p.high
			}
		}
		if contained && !(i == 0 && nanBin) {
			inner |= 1 << uint(i)
		}
	}
	return mask, inner
}

// RangeIDs returns the ascending ids of all values in the half-open
// range [low, high), appended to res (pass nil to allocate). This is
// Algorithm 3 of the paper.
func (ix *Index[V]) RangeIDs(low, high V, res []uint32) ([]uint32, QueryStats) {
	p := pred[V]{low: low, high: high, lowIncl: true}
	return ix.queryPred(&p, res)
}

// RangeIDsClosed returns ids of values in the closed range [low, high],
// the "low <= v <= high" formulation of Section 3.
func (ix *Index[V]) RangeIDsClosed(low, high V, res []uint32) ([]uint32, QueryStats) {
	p := pred[V]{low: low, high: high, lowIncl: true, highIncl: true}
	return ix.queryPred(&p, res)
}

// AtLeast returns ids of values >= low.
func (ix *Index[V]) AtLeast(low V, res []uint32) ([]uint32, QueryStats) {
	p := pred[V]{low: low, lowIncl: true, highUnb: true}
	return ix.queryPred(&p, res)
}

// LessThan returns ids of values < high.
func (ix *Index[V]) LessThan(high V, res []uint32) ([]uint32, QueryStats) {
	p := pred[V]{high: high, lowUnb: true}
	return ix.queryPred(&p, res)
}

// PointIDs returns ids of values equal to v (a point query).
func (ix *Index[V]) PointIDs(v V, res []uint32) ([]uint32, QueryStats) {
	p := pred[V]{low: v, high: v, lowIncl: true, highIncl: true}
	return ix.queryPred(&p, res)
}

// queryPred answers p with Algorithm 3: one probe of the cacheline
// dictionary, then the ids of its runs.
func (ix *Index[V]) queryPred(p *pred[V], res []uint32) ([]uint32, QueryStats) {
	runs, st := ix.RunsInto(nil, ix.bind(*p), 1)
	if !p.lowUnb && !p.highUnb && p.lowIncl && !p.highIncl {
		// The canonical [low, high) query gets a branch-lean check loop;
		// the generic matcher handles unbounded/inclusive variants.
		low, high := p.low, p.high
		res, st.Comparisons = ix.collect(runs, res, func(res []uint32, vals []V, from int) []uint32 {
			for i, v := range vals {
				if v >= low && v < high {
					res = append(res, uint32(from+i))
				}
			}
			return res
		})
		return res, st
	}
	res, st.Comparisons = ix.collect(runs, res, func(res []uint32, vals []V, from int) []uint32 {
		for i, v := range vals {
			if p.match(v) {
				res = append(res, uint32(from+i))
			}
		}
		return res
	})
	return res, st
}

// collect materializes the runs of a unit-1 probe into ascending ids:
// an exact run's rows wholesale, every other run through one call of
// check, which appends the ids of the qualifying values among vals —
// the run's rows, the first of them row from. It returns the ids and
// the number of values checked.
func (ix *Index[V]) collect(runs []CandidateRun, res []uint32, check func(res []uint32, vals []V, from int) []uint32) ([]uint32, uint64) {
	var checked uint64
	for _, r := range runs {
		from, to := ix.rows(r)
		if r.Exact {
			for id := from; id < to; id++ {
				res = append(res, uint32(id))
			}
			continue
		}
		checked += uint64(to - from)
		res = check(res, ix.col[from:to], from)
	}
	return res, checked
}

// rows returns the rows [from, to) of a unit-1 run.
func (ix *Index[V]) rows(r CandidateRun) (from, to int) {
	return int(r.Start) * ix.vpc, min((int(r.Start)+int(r.Count))*ix.vpc, ix.n)
}

// CountRange returns the number of values in [low, high) without
// materializing ids.
func (ix *Index[V]) CountRange(low, high V) (uint64, QueryStats) {
	runs, st := ix.RunsInto(nil, ix.RangeMasks(low, high), 1)
	var count uint64
	for _, r := range runs {
		from, to := ix.rows(r)
		if r.Exact {
			count += uint64(to - from)
			continue
		}
		st.Comparisons += uint64(to - from)
		for _, v := range ix.col[from:to] {
			if v >= low && v < high {
				count++
			}
		}
	}
	return count, st
}
