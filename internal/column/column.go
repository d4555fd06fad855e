// Package column provides the columnar storage substrate assumed by the
// paper (Section 2): a relation decomposed into dense, typed value arrays
// whose ids are implied by position. It also supplies dictionary encoding
// for string attributes. Section 4.2's update delta is the table's delta
// store (package delta).
package column

import (
	"fmt"

	"repro/internal/coltype"
)

// Column is a dense, append-only array of fixed-width values. Ids are the
// positions in the array and are never materialized, exactly as in the
// paper's MonetDB setting.
type Column[V coltype.Value] struct {
	name string
	vals []V
}

// New wraps vals (not copied) as a column.
func New[V coltype.Value](name string, vals []V) *Column[V] {
	return &Column[V]{name: name, vals: vals}
}

// NewEmpty returns an empty column with the given capacity hint.
func NewEmpty[V coltype.Value](name string, capacity int) *Column[V] {
	return &Column[V]{name: name, vals: make([]V, 0, capacity)}
}

// Name returns the column name.
func (c *Column[V]) Name() string { return c.name }

// Len returns the number of rows.
func (c *Column[V]) Len() int { return len(c.vals) }

// Values exposes the backing slice. Callers must treat it as read-only;
// indexes hold references into it.
func (c *Column[V]) Values() []V { return c.vals }

// Get returns the value at row id.
func (c *Column[V]) Get(id int) V { return c.vals[id] }

// Append adds rows at the end of the column (the common warehouse update
// pattern of Section 4.1) and returns the id of the first new row.
func (c *Column[V]) Append(vs ...V) int {
	first := len(c.vals)
	c.vals = append(c.vals, vs...)
	return first
}

// WidthBytes returns the value width in bytes.
func (c *Column[V]) WidthBytes() int { return coltype.Width[V]() }

// TypeName returns the short value type name ("int32", "float64", ...).
func (c *Column[V]) TypeName() string { return coltype.TypeName[V]() }

// SizeBytes returns the payload size of the column in bytes.
func (c *Column[V]) SizeBytes() int64 {
	return int64(len(c.vals)) * int64(coltype.Width[V]())
}

// MinMax scans the column and returns its extremes. It panics on an empty
// column.
func (c *Column[V]) MinMax() (lo, hi V) {
	if len(c.vals) == 0 {
		panic("column: MinMax of empty column " + c.name)
	}
	lo, hi = c.vals[0], c.vals[0]
	for _, v := range c.vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// DistinctUpTo counts distinct values, giving up (and returning limit)
// once more than limit are seen. Used by dataset statistics.
func (c *Column[V]) DistinctUpTo(limit int) int {
	seen := make(map[V]struct{}, limit)
	for _, v := range c.vals {
		seen[v] = struct{}{}
		if len(seen) > limit {
			return limit
		}
	}
	return len(seen)
}

// Any is the type-erased view of a column used wherever heterogeneous
// column collections are handled (datasets, the experiment harness).
// Concrete values are always *Column[V] for one of the coltype.Value
// instantiations.
type Any interface {
	Name() string
	Len() int
	WidthBytes() int
	TypeName() string
	SizeBytes() int64
}

// Statically assert a few instantiations satisfy Any.
var (
	_ Any = (*Column[int8])(nil)
	_ Any = (*Column[uint8])(nil)
	_ Any = (*Column[int16])(nil)
	_ Any = (*Column[int32])(nil)
	_ Any = (*Column[int64])(nil)
	_ Any = (*Column[float32])(nil)
	_ Any = (*Column[float64])(nil)
)

// Describe returns a one-line human-readable summary of any column.
func Describe(c Any) string {
	return fmt.Sprintf("%s %s[%d] (%d bytes)", c.Name(), c.TypeName(), c.Len(), c.SizeBytes())
}
