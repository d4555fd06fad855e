package table

import (
	"math"

	"repro/internal/coltype"
	"repro/internal/core"
)

// DefaultSegmentRows is the number of rows one storage segment holds
// when TableOptions.SegmentRows is zero. Each segment owns its value
// slab and its own secondary index, so appends and saturation rebuilds
// stay segment-local and queries fan segments out across workers.
const DefaultSegmentRows = 65536

// segment is one horizontal slice of a numeric column: a value slab of
// at most segRows values, the imprint built over exactly that slab (nil
// when the column is NoIndex: the segment is scanned), and a [min, max]
// summary used to prune the whole segment when a predicate provably
// selects nothing in it. Only the column's last segment (the active
// tail) ever grows; once full it is sealed and a fresh tail starts.
type segment[V coltype.Value] struct {
	vals []V
	ix   *core.Index[V]
	// min/max summarize the values ever stored in the segment: set on
	// ingest, widened by in-place updates, recomputed exactly on rebuild
	// and compact. Conservative (deleted rows keep their contribution),
	// which is sound for pruning — a pruned segment provably holds no
	// qualifying value.
	min, max V
	// sumWide marks the summary as possibly over-covering: an in-place
	// update widened it without knowing whether the replaced value was
	// the extremum. A wide summary still prunes soundly, but it can no
	// longer answer Min/Max aggregates; rebuild recomputes it exactly
	// and clears the mark.
	sumWide bool
}

// foldMin and foldMax fold v into a held extremum m under the one
// min/max rule of the table (and of core): a float NaN is unordered, so
// a held NaN counts as empty and whatever comes next replaces it, while
// an arriving NaN never replaces a value; −0 orders below +0, as Go's
// builtin min and max order them. Min and max thus skip NaN, answer NaN
// only when every folded value is NaN, and give the same answer in
// every fold and merge order. Pruning stays sound: no predicate leaf
// holds on NaN, and −0 == +0 in every leaf.
func foldMin[V coltype.Value](m, v V) V {
	if v < m || m != m || v == 0 && m == 0 && math.Signbit(float64(v)) {
		return v
	}
	return m
}

func foldMax[V coltype.Value](m, v V) V {
	if v > m || m != m || v == 0 && m == 0 && math.Signbit(float64(m)) {
		return v
	}
	return m
}

// summarize computes the [min, max] of vals under foldMin/foldMax; ok
// is false when vals is empty. The single definition behind segment
// summaries (ingest, rebuild, persistence load) so pruning semantics
// cannot drift.
func summarize[V coltype.Value](vals []V) (lo, hi V, ok bool) {
	if len(vals) == 0 {
		return lo, hi, false
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = foldMin(lo, v), foldMax(hi, v)
	}
	return lo, hi, true
}

// extend appends a chunk of values to the segment and grows its index
// and summary. The caller guarantees the chunk fits the segment's
// remaining capacity.
func (s *segment[V]) extend(chunk []V, mode IndexMode, opts core.Options) {
	fresh := len(s.vals) == 0
	s.vals = append(s.vals, chunk...)
	if lo, hi, ok := summarize(chunk); ok {
		if fresh {
			s.min, s.max = lo, hi
		} else {
			s.min, s.max = foldMin(s.min, lo), foldMax(s.max, hi)
		}
	}
	switch {
	case mode != Imprints:
		return
	case s.ix == nil:
		s.ix = core.Build(s.vals, opts)
	default:
		// Append wants the whole slab (committed prefix + new rows): the
		// append above may have reallocated it.
		s.ix.Append(s.vals)
	}
}

// widen absorbs an in-place update: the summary and the covering index
// entry grow to also map v (never shrink — imprints must not yield
// false negatives).
func (s *segment[V]) widen(local int, v V) {
	s.min, s.max = foldMin(s.min, v), foldMax(s.max, v)
	s.sumWide = true
	if s.ix != nil {
		s.ix.MarkUpdated(local, v)
	}
}

// rebuild reconstructs the segment's index from its current values and
// recomputes the summary exactly (dropping the widening accumulated by
// updates).
func (s *segment[V]) rebuild(mode IndexMode, opts core.Options) {
	s.ix = nil
	s.sumWide = false
	if len(s.vals) == 0 {
		return
	}
	s.min, s.max, _ = summarize(s.vals)
	if mode == Imprints {
		s.ix = core.Build(s.vals, opts)
	}
}

// indexBytes returns the segment's secondary-index footprint.
func (s *segment[V]) indexBytes() int64 {
	if s.ix == nil {
		return 0
	}
	return s.ix.SizeBytes()
}
