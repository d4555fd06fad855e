package core

import "slices"

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
	if len(ranges) == 0 {
		return res, QueryStats{}
	}
	// Union of per-range masks; inner bits are valid if the bin is fully
	// inside at least one range.
	var m Masks
	for _, r := range ranges {
		rm := ix.RangeMasks(r[0], r[1])
		m.Mask |= rm.Mask
		m.Inner |= rm.Inner
	}
	runs, st := ix.RunsInto(nil, m, 1)
	res, st.Comparisons = ix.collect(runs, res, func(res []uint32, vals []V, from int) []uint32 {
		for i, v := range vals {
			for _, r := range ranges {
				if v >= r[0] && v < r[1] {
					res = append(res, uint32(from+i))
					break
				}
			}
		}
		return res
	})
	return res, st
}

// InSetIDs returns ascending ids of values equal to any element of set
// (an IN-list), answered in one index pass. Duplicate set elements are
// harmless, and a NaN member matches nothing.
func (ix *Index[V]) InSetIDs(set []V, res []uint32) ([]uint32, QueryStats) {
	if len(set) == 0 {
		return res, QueryStats{}
	}
	// Membership is a binary search over the sorted set. Every matching
	// cacheline is checked: equality is never inner.
	sorted := slices.DeleteFunc(slices.Clone(set), func(v V) bool { return v != v })
	slices.Sort(sorted)
	runs, st := ix.RunsInto(nil, ix.InSetMasks(sorted), 1)
	res, st.Comparisons = ix.collect(runs, res, func(res []uint32, vals []V, from int) []uint32 {
		for i, v := range vals {
			if _, ok := slices.BinarySearch(sorted, v); ok {
				res = append(res, uint32(from+i))
			}
		}
		return res
	})
	return res, st
}
