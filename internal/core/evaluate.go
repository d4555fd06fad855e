package core

import "iter"

// EvaluateOr evaluates a disjunction of range predicates with late
// materialization: the per-conjunct candidate cacheline lists are
// unioned, and rows of non-exact cachelines are checked against the
// residual predicates (a row qualifies if any disjunct accepts it).
// All conjuncts must cover columns of identical geometry.
func EvaluateOr(res []uint32, conjs ...Conjunct) ([]uint32, QueryStats) {
	if len(conjs) == 0 {
		return res, QueryStats{}
	}
	var st QueryStats
	vpc0, n0 := conjs[0].Geometry()
	runs, s := conjs[0].Runs()
	st.Add(s)
	for _, c := range conjs[1:] {
		vpc, n := c.Geometry()
		if vpc != vpc0 || n != n0 {
			panic("core: disjunction over misaligned columns")
		}
		r, s := c.Runs()
		st.Add(s)
		runs = UnionRuns(runs, r)
	}
	checks := make([]CheckFunc, len(conjs))
	for i, c := range conjs {
		checks[i] = c.Check()
	}
	for _, r := range runs {
		from := int(r.Start) * vpc0
		to := (int(r.Start) + int(r.Count)) * vpc0
		if to > n0 {
			to = n0
		}
		if r.Exact {
			for id := from; id < to; id++ {
				res = append(res, uint32(id))
			}
			continue
		}
		for id := from; id < to; id++ {
			for _, c := range checks {
				st.Comparisons++
				if c(uint32(id)) {
					res = append(res, uint32(id))
					break
				}
			}
		}
	}
	return res, st
}

// EvaluateAndNot evaluates "p AND NOT q" with late materialization:
// q's exact cachelines are subtracted wholesale from p's candidates and
// the remainder is checked row by row.
func EvaluateAndNot(res []uint32, p, q Conjunct) ([]uint32, QueryStats) {
	var st QueryStats
	vpcP, nP := p.Geometry()
	vpcQ, nQ := q.Geometry()
	if vpcP != vpcQ || nP != nQ {
		panic("core: and-not over misaligned columns")
	}
	pr, s := p.Runs()
	st.Add(s)
	qr, s := q.Runs()
	st.Add(s)
	runs := DiffRuns(pr, qr)
	pCheck, qCheck := p.Check(), q.Check()
	for _, r := range runs {
		from := int(r.Start) * vpcP
		to := (int(r.Start) + int(r.Count)) * vpcP
		if to > nP {
			to = nP
		}
		for id := from; id < to; id++ {
			st.Comparisons++
			if !pCheck(uint32(id)) {
				continue
			}
			st.Comparisons++
			if qCheck(uint32(id)) {
				continue
			}
			res = append(res, uint32(id))
		}
	}
	return res, st
}

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
