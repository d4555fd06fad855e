package zonemap

import "repro/internal/core"

// cachelinesWhere walks the zones down to a candidate cacheline run
// list in the same currency as imprints (core.CandidateRun), with
// explicit skip/exact predicates over the zone [min, max] interval. A
// zone holding a NaN is never exact.
func (ix *Index[V]) cachelinesWhere(skip, exact func(zmin, zmax V) bool) ([]core.CandidateRun, QueryStats) {
	var st QueryStats
	var runs []core.CandidateRun
	push := func(z int, ex bool) {
		if n := len(runs); n > 0 {
			last := &runs[n-1]
			if last.Exact == ex && last.Start+last.Count == uint32(z) {
				last.Count++
				return
			}
		}
		runs = append(runs, core.CandidateRun{Start: uint32(z), Count: 1, Exact: ex})
	}
	for z := 0; z < len(ix.mins); z++ {
		st.Probes++
		zmin, zmax := ix.mins[z], ix.maxs[z]
		if skip(zmin, zmax) {
			st.ZonesSkipped++
			continue
		}
		if exact(zmin, zmax) && !ix.hasNaN(z) {
			st.ZonesExact++
			push(z, true)
			continue
		}
		st.ZonesScanned++
		push(z, false)
	}
	return runs, st
}

// RangeCachelines evaluates [low, high) down to candidate zones.
func (ix *Index[V]) RangeCachelines(low, high V) ([]core.CandidateRun, QueryStats) {
	return ix.cachelinesWhere(
		func(zmin, zmax V) bool { return zmax < low || zmin >= high },
		func(zmin, zmax V) bool { return zmin >= low && zmax < high },
	)
}

// AtLeastCachelines evaluates v >= low down to candidate zones.
func (ix *Index[V]) AtLeastCachelines(low V) ([]core.CandidateRun, QueryStats) {
	return ix.cachelinesWhere(
		func(_, zmax V) bool { return zmax < low },
		func(zmin, _ V) bool { return zmin >= low },
	)
}

// LessThanCachelines evaluates v < high down to candidate zones.
func (ix *Index[V]) LessThanCachelines(high V) ([]core.CandidateRun, QueryStats) {
	return ix.cachelinesWhere(
		func(zmin, _ V) bool { return zmin >= high },
		func(_, zmax V) bool { return zmax < high },
	)
}

// InSetCachelines evaluates an IN-list down to candidate zones: a zone
// survives if any member falls inside its [min, max] interval.
func (ix *Index[V]) InSetCachelines(set []V) ([]core.CandidateRun, QueryStats) {
	return ix.cachelinesWhere(
		func(zmin, zmax V) bool {
			for _, v := range set {
				if v >= zmin && v <= zmax {
					return false
				}
			}
			return true
		},
		func(zmin, zmax V) bool {
			// Exact only when the zone is a single value present in set.
			if zmin != zmax {
				return false
			}
			for _, v := range set {
				if v == zmin {
					return true
				}
			}
			return false
		},
	)
}

// PointCachelines evaluates v == x down to candidate zones.
func (ix *Index[V]) PointCachelines(x V) ([]core.CandidateRun, QueryStats) {
	return ix.cachelinesWhere(
		func(zmin, zmax V) bool { return zmax < x || zmin > x },
		func(zmin, zmax V) bool { return zmin == x && zmax == x },
	)
}
