// Package zonemap implements the zonemap comparator of the paper
// (Sections 2.1 and 6): per-zone minimum and maximum value arrays, with
// zone size equal to the cacheline covered by one imprint vector so the
// comparison between the two indexes is apples-to-apples.
package zonemap

import (
	"repro/internal/coltype"
)

// Index is a zonemap over a column: two aligned arrays holding the min
// and max of each zone.
type Index[V coltype.Value] struct {
	col  []V
	mins []V
	maxs []V
	// nan has bit z set when zone z holds a NaN. The bounds skip NaN,
	// which satisfies no predicate, so such a zone is never exact. It
	// stays nil until some zone holds a NaN.
	nan []uint64
	vpz int // values per zone
	n   int
}

// Options configures zonemap construction.
type Options struct {
	// ValuesPerZone overrides the zone size; 0 derives it from the
	// 64-byte cacheline like imprints do.
	ValuesPerZone int
}

// Build constructs a zonemap over col. It panics if col is empty.
func Build[V coltype.Value](col []V, opts Options) *Index[V] {
	if len(col) == 0 {
		panic("zonemap: empty column")
	}
	vpz := opts.ValuesPerZone
	if vpz <= 0 {
		vpz = coltype.ValuesPerCacheline[V]()
	}
	nz := (len(col) + vpz - 1) / vpz
	ix := &Index[V]{
		col:  col,
		mins: make([]V, 0, nz),
		maxs: make([]V, 0, nz),
		vpz:  vpz,
		n:    len(col),
	}
	ix.addZones(col)
	return ix
}

// addZones appends the bounds of every zone of col. A zone's bounds
// are the min and max of its non-NaN values (NaN only when it holds
// nothing else), and its NaN bit says whether it holds a NaN.
func (ix *Index[V]) addZones(col []V) {
	for from := 0; from < len(col); from += ix.vpz {
		zone := col[from:min(from+ix.vpz, len(col))]
		lo, hi := zone[0], zone[0]
		nan := false
		for _, v := range zone {
			switch {
			case v != v:
				nan = true
			case lo != lo:
				lo, hi = v, v
			case v < lo:
				lo = v
			case v > hi:
				hi = v
			}
		}
		if nan {
			ix.setNaN(len(ix.mins))
		}
		ix.mins = append(ix.mins, lo)
		ix.maxs = append(ix.maxs, hi)
	}
}

// setNaN records that zone z holds a NaN.
func (ix *Index[V]) setNaN(z int) {
	w := z >> 6
	for len(ix.nan) <= w {
		ix.nan = append(ix.nan, 0)
	}
	ix.nan[w] |= 1 << (z & 63)
}

// hasNaN reports whether zone z holds a NaN.
func (ix *Index[V]) hasNaN(z int) bool {
	w := z >> 6
	return w < len(ix.nan) && ix.nan[w]>>(z&63)&1 != 0
}

// Len returns the number of values covered.
func (ix *Index[V]) Len() int { return ix.n }

// Zones returns the number of zones.
func (ix *Index[V]) Zones() int { return len(ix.mins) }

// ValuesPerZone returns the zone size in values.
func (ix *Index[V]) ValuesPerZone() int { return ix.vpz }

// SizeBytes returns the footprint: two value arrays, plus the NaN
// bitmap once some zone holds a NaN.
func (ix *Index[V]) SizeBytes() int64 {
	return int64(len(ix.mins)+len(ix.maxs))*int64(coltype.Width[V]()) + int64(len(ix.nan))*8
}

// QueryStats mirrors core.QueryStats for the comparator: Probes counts
// zone min/max inspections, Comparisons counts per-value checks.
type QueryStats struct {
	Probes       uint64
	Comparisons  uint64
	ZonesScanned uint64
	ZonesExact   uint64
	ZonesSkipped uint64
}

// RangeIDs returns ascending ids of values in [low, high). A NaN-free
// zone whose [min, max] lies entirely inside the query range is emitted
// without value checks (the same rigidity as the imprints innermask
// fast path).
func (ix *Index[V]) RangeIDs(low, high V, res []uint32) ([]uint32, QueryStats) {
	var st QueryStats
	col := ix.col
	for z := 0; z < len(ix.mins); z++ {
		st.Probes++
		zmin, zmax := ix.mins[z], ix.maxs[z]
		// Overlap test: [zmin, zmax] vs [low, high), stated positively
		// so that an all-NaN zone, whose bounds are NaN, is skipped.
		if !(zmax >= low && zmin < high) {
			st.ZonesSkipped++
			continue
		}
		from := z * ix.vpz
		to := from + ix.vpz
		if to > ix.n {
			to = ix.n
		}
		if zmin >= low && zmax < high && !ix.hasNaN(z) {
			// Fully contained: all values qualify.
			st.ZonesExact++
			for id := from; id < to; id++ {
				res = append(res, uint32(id))
			}
			continue
		}
		st.ZonesScanned++
		for id := from; id < to; id++ {
			st.Comparisons++
			v := col[id]
			if v >= low && v < high {
				res = append(res, uint32(id))
			}
		}
	}
	return res, st
}

// CountRange returns the number of values in [low, high).
func (ix *Index[V]) CountRange(low, high V) (uint64, QueryStats) {
	var st QueryStats
	col := ix.col
	var count uint64
	for z := 0; z < len(ix.mins); z++ {
		st.Probes++
		zmin, zmax := ix.mins[z], ix.maxs[z]
		if !(zmax >= low && zmin < high) {
			st.ZonesSkipped++
			continue
		}
		from := z * ix.vpz
		to := from + ix.vpz
		if to > ix.n {
			to = ix.n
		}
		if zmin >= low && zmax < high && !ix.hasNaN(z) {
			st.ZonesExact++
			count += uint64(to - from)
			continue
		}
		st.ZonesScanned++
		for id := from; id < to; id++ {
			st.Comparisons++
			v := col[id]
			if v >= low && v < high {
				count++
			}
		}
	}
	return count, st
}
