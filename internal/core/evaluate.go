package core

import "iter"

// Range returns a streaming iterator over the ascending ids of values
// in [low, high). The probe is eager and the rows are lazy: iteration
// starts with one walk of the dictionary, and each candidate run's
// rows are then checked and yielded as the consumer asks for them, so
// one that stops early (LIMIT-style queries) reads no further rows and
// no id list is materialized.
func (ix *Index[V]) Range(low, high V) iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		runs, _ := ix.RunsInto(nil, ix.RangeMasks(low, high), 1, nil)
		for _, r := range runs {
			from, to := ix.rows(r)
			for id := from; id < to; id++ {
				if v := ix.col[id]; r.Exact || v >= low && v < high {
					if !yield(uint32(id)) {
						return
					}
				}
			}
		}
	}
}

// EstimateSelectivity predicts the fraction of rows in [low, high)
// using the equi-height assumption of the sampled histogram: each bin
// holds ~1/Bins of the rows; border bins contribute linearly
// interpolated fractions. It needs no data access and is the input to
// cost-based access path selection (package table).
func (ix *Index[V]) EstimateSelectivity(low, high V) float64 {
	if high <= low {
		return 0
	}
	h := ix.hist
	perBin := 1.0 / float64(h.Bins)
	total := 0.0
	for i := 0; i < h.Bins; i++ {
		lo, hi, loUnb, hiUnb := h.BinBounds(i)
		if !hiUnb && hi <= low {
			continue
		}
		if !loUnb && lo >= high {
			break
		}
		// Overlapping bin: estimate the covered fraction.
		if loUnb || hiUnb || hi <= lo {
			// Overflow or degenerate bins: count fully (conservative).
			total += perBin
			continue
		}
		width := float64(hi) - float64(lo)
		covLo := float64(lo)
		if float64(low) > covLo {
			covLo = float64(low)
		}
		covHi := float64(hi)
		if float64(high) < covHi {
			covHi = float64(high)
		}
		frac := (covHi - covLo) / width
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		total += perBin * frac
	}
	if total > 1 {
		total = 1
	}
	return total
}
