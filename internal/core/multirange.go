package core

import "sort"

// Multi-range queries: a disjunction of ranges over the SAME column is
// answered in a single pass by OR-ing the per-range masks — one probe
// per imprint vector regardless of how many ranges the predicate has.
// This is the imprint analogue of the IN-list handling of bitmap
// indexes and is strictly cheaper than evaluating each range separately
// and unioning ids.

// MultiRangeIDs returns ascending ids of values falling in any of the
// half-open [low, high) ranges. Overlapping or unsorted ranges are
// allowed.
func (ix *Index[V]) MultiRangeIDs(ranges [][2]V, res []uint32) ([]uint32, QueryStats) {
	var st QueryStats
	if len(ranges) == 0 {
		return res, st
	}
	// Union of per-range masks; inner bits are valid if the bin is fully
	// inside at least one range.
	var mask, inner uint64
	preds := make([]pred[V], 0, len(ranges))
	for _, r := range ranges {
		p := pred[V]{low: r[0], high: r[1], lowIncl: true}
		m, in := ix.masks(&p)
		mask |= m
		inner |= in
		preds = append(preds, p)
	}
	match := func(v V) bool {
		for i := range preds {
			if preds[i].match(v) {
				return true
			}
		}
		return false
	}

	col := ix.col
	vpc := ix.vpc
	emit := func(vec uint64, fromCl, cls int) {
		if vec&mask == 0 {
			st.CachelinesSkipped += uint64(cls)
			return
		}
		from := fromCl * vpc
		to := (fromCl + cls) * vpc
		if to > ix.n {
			to = ix.n
		}
		if vec&^inner == 0 {
			st.CachelinesExact += uint64(cls)
			for id := from; id < to; id++ {
				res = append(res, uint32(id))
			}
			return
		}
		st.CachelinesScanned += uint64(cls)
		for id := from; id < to; id++ {
			st.Comparisons++
			if match(col[id]) {
				res = append(res, uint32(id))
			}
		}
	}

	iVec, cl := 0, 0
	for _, e := range ix.dict {
		cnt := int(e.Count())
		if e.Repeat() {
			st.Probes++
			emit(ix.vecs.get(iVec), cl, cnt)
			iVec++
			cl += cnt
		} else {
			for j := 0; j < cnt; j++ {
				st.Probes++
				emit(ix.vecs.get(iVec), cl, 1)
				iVec++
				cl++
			}
		}
	}
	if ix.pendingCount > 0 {
		st.Probes++
		emit(ix.pendingVec, ix.committed, 1)
	}
	return res, st
}

// InSetIDs returns ascending ids of values equal to any element of set
// (an IN-list), answered in one index pass. Duplicate set elements are
// harmless.
func (ix *Index[V]) InSetIDs(set []V, res []uint32) ([]uint32, QueryStats) {
	var st QueryStats
	if len(set) == 0 {
		return res, st
	}
	sorted := append([]V(nil), set...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// One mask with the bin bit of every set member. Equality predicates
	// are never "inner" (a bin may hold neighbors), so every matching
	// cacheline is checked — but membership testing uses binary search
	// over the sorted set.
	mask := ix.InSetMasks(sorted).Mask
	member := func(v V) bool {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
		return i < len(sorted) && sorted[i] == v
	}

	col := ix.col
	vpc := ix.vpc
	emit := func(vec uint64, fromCl, cls int) {
		if vec&mask == 0 {
			st.CachelinesSkipped += uint64(cls)
			return
		}
		from := fromCl * vpc
		to := (fromCl + cls) * vpc
		if to > ix.n {
			to = ix.n
		}
		st.CachelinesScanned += uint64(cls)
		for id := from; id < to; id++ {
			st.Comparisons++
			if member(col[id]) {
				res = append(res, uint32(id))
			}
		}
	}

	iVec, cl := 0, 0
	for _, e := range ix.dict {
		cnt := int(e.Count())
		if e.Repeat() {
			st.Probes++
			emit(ix.vecs.get(iVec), cl, cnt)
			iVec++
			cl += cnt
		} else {
			for j := 0; j < cnt; j++ {
				st.Probes++
				emit(ix.vecs.get(iVec), cl, 1)
				iVec++
				cl++
			}
		}
	}
	if ix.pendingCount > 0 {
		st.Probes++
		emit(ix.pendingVec, ix.committed, 1)
	}
	return res, st
}
