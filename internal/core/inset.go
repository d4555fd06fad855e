package core

import "slices"

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
	runs, st := ix.RunsInto(nil, ix.InSetMasks(sorted), 1, nil)
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
