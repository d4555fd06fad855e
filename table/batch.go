package table

import (
	"reflect"
	"sync"

	"repro/internal/coltype"
)

// rowBatchSize is the number of rows one RowBatch carries at most.
const rowBatchSize = 1024

// ColKind tags the typed vector a ColVec carries.
type ColKind uint8

const (
	KindInt    ColKind = iota // signed integers, widened to int64
	KindUint                  // unsigned integers, widened to uint64
	KindFloat                 // float32/float64, widened to float64
	KindString                // strings (dictionary symbols, not copied)
)

// ColVec is one projected column's cells for the rows of a RowBatch:
// the vector named by Kind holds one unboxed value per row, numeric
// values widened to 64 bits with the column's own width kept in Bits
// (a float32 cell widens exactly and formats in its 32-bit shortest
// form; Value narrows back to the column type).
type ColVec struct {
	Kind ColKind
	Bits int // numeric width of the column type: 8, 16, 32 or 64

	Ints   []int64
	Uints  []uint64
	Floats []float64
	Strs   []string
	// Null[i] marks cell i as null (its vector slot holds a zero); nil
	// when no cell is. Columns never hold nulls — only aggregate cells
	// over zero rows do.
	Null []bool
}

// Len returns the number of cells.
func (v *ColVec) Len() int {
	switch v.Kind {
	case KindInt:
		return len(v.Ints)
	case KindUint:
		return len(v.Uints)
	case KindFloat:
		return len(v.Floats)
	}
	return len(v.Strs)
}

// IsNull reports whether cell i is null.
func (v *ColVec) IsNull(i int) bool { return v.Null != nil && v.Null[i] }

// Value boxes cell i as the column's own Go type (int8..int64,
// uint8..uint64, float32, float64 or string); nil for a null cell.
func (v *ColVec) Value(i int) any {
	if v.IsNull(i) {
		return nil
	}
	switch v.Kind {
	case KindInt:
		switch x := v.Ints[i]; v.Bits {
		case 8:
			return int8(x)
		case 16:
			return int16(x)
		case 32:
			return int32(x)
		default:
			return x
		}
	case KindUint:
		switch x := v.Uints[i]; v.Bits {
		case 8:
			return uint8(x)
		case 16:
			return uint16(x)
		case 32:
			return uint32(x)
		default:
			return x
		}
	case KindFloat:
		if v.Bits == 32 {
			return float32(v.Floats[i])
		}
		return v.Floats[i]
	}
	return v.Strs[i]
}

// reset empties the vector for a column of the given kind and width,
// keeping (or making) room for a full batch so gathers never grow it.
func (v *ColVec) reset(kind ColKind, bits int) {
	v.Kind, v.Bits, v.Null = kind, bits, nil
	switch kind {
	case KindInt:
		v.Ints = batchRoom(v.Ints)
	case KindUint:
		v.Uints = batchRoom(v.Uints)
	case KindFloat:
		v.Floats = batchRoom(v.Floats)
	default:
		v.Strs = batchRoom(v.Strs)
	}
}

func batchRoom[E any](s []E) []E {
	if cap(s) < rowBatchSize {
		return make([]E, 0, rowBatchSize)
	}
	return s[:0]
}

// extend grows s by n cells within its capacity (reset made room for a
// full batch) and returns the new tail.
func extend[E any](s *[]E, n int) []E {
	k := len(*s)
	*s = (*s)[:k+n]
	return (*s)[k:]
}

// RowBatch is up to rowBatchSize result rows in columnar form: the row
// ids plus one typed vector per projected column, in projection order.
// Query.Batches hands each batch over to the consumer, which may keep
// it for as long as it likes and should Release it when done.
type RowBatch struct {
	// IDs holds the rows' ids (empty for batches not gathered from a
	// table, such as the SQL layer's aggregate rows).
	IDs    []uint32
	Cols   []ColVec
	names  []string
	pooled bool // shaped by newRowBatch: vectors worth recycling
}

// Len returns the number of rows.
func (b *RowBatch) Len() int {
	if len(b.Cols) == 0 {
		return len(b.IDs)
	}
	return b.Cols[0].Len()
}

// AppendRow appends row i's cells, boxed by ColVec.Value, to dst.
func (b *RowBatch) AppendRow(dst []any, i int) []any {
	for ci := range b.Cols {
		dst = append(dst, b.Cols[ci].Value(i))
	}
	return dst
}

// Columns lists the projected column names in projection order; the
// slice is shared by every batch of one execution — treat it as
// read-only.
func (b *RowBatch) Columns() []string { return b.names }

var rowBatchPool sync.Pool

// Release recycles the batch for a later execution; the batch and its
// vectors must not be used afterwards. Strings read out of it stay
// valid.
func (b *RowBatch) Release() {
	if !b.pooled {
		return // assembled by hand (aggregate rows): no batch-sized vectors to recycle
	}
	for i := range b.Cols {
		clear(b.Cols[i].Strs) // do not pin dictionaries or delta rows from the pool
	}
	b.names = nil
	rowBatchPool.Put(b)
}

// newRowBatch takes a batch from the pool and shapes it for the
// projection.
func newRowBatch(names []string, cols []anyColumn) *RowBatch {
	b, _ := rowBatchPool.Get().(*RowBatch)
	if b == nil {
		b = &RowBatch{pooled: true}
	}
	b.names = names
	b.IDs = batchRoom(b.IDs)
	if cap(b.Cols) < len(cols) {
		b.Cols = make([]ColVec, len(cols))
	}
	b.Cols = b.Cols[:len(cols)]
	for i, c := range cols {
		kind, bits := c.vecKind()
		b.Cols[i].reset(kind, bits)
	}
	return b
}

// gatherer is the one row-materialization routine: every row-producing
// executor — ordered or not, sharded or not — narrows its result down
// to global row ids and feeds them to add in emission order; the
// gatherer cuts them into runs that share a storage segment (or one
// slab of a part's delta view), fills the current RowBatch one column
// at a time per run with no per-value boxing, and yields each batch as
// it fills. Valid only while the execution holds its read locks.
type gatherer struct {
	names   []string
	parts   []part // the execution's: projected columns and delta view
	segRows int
	yield   func(*RowBatch) bool
	room    int  // rows the query's Limit still admits; negative without one
	stopped bool // the consumer broke out of the iteration
	cur     *RowBatch
	locals  []uint32 // scratch: run-local row offsets
}

func (q *Query) newGatherer(names []string, parts []part, yield func(*RowBatch) bool) *gatherer {
	g := &gatherer{names: names, parts: parts, segRows: q.t.segRows, yield: yield, room: -1,
		locals: make([]uint32, 0, rowBatchSize)}
	if q.limited {
		g.room = q.limit
	}
	return g
}

// add appends the rows of gids, up to the query's limit, to the
// result, yielding every batch that fills up; it reports whether the
// execution should produce more ids (false once the limit is reached
// or the consumer stopped).
//
//imprintvet:locks held=mu.R
func (g *gatherer) add(gids []uint32) bool {
	if g.room >= 0 {
		gids = gids[:min(len(gids), g.room)]
		g.room -= len(gids)
	}
	for len(gids) > 0 && !g.stopped {
		if g.cur == nil {
			g.cur = newRowBatch(g.names, g.parts[0].proj)
		}
		n := min(len(gids), rowBatchSize-len(g.cur.IDs))
		g.fill(gids[:n])
		gids = gids[n:]
		if len(g.cur.IDs) == rowBatchSize {
			g.finish()
		}
	}
	return g.room != 0 && !g.stopped
}

// finish yields the partly filled batch, if any, unless the consumer
// already stopped.
func (g *gatherer) finish() {
	if b := g.cur; b != nil && !g.stopped {
		g.cur = nil
		g.stopped = !g.yield(b)
	}
}

// fill appends the rows of gids (which fit the current batch) run by
// run. A run is a maximal stretch of ids inside one global segment's
// id span that is either all sealed or all buffered: global segment
// gseg belongs to part gseg%N as its local segment gseg/N, and the
// owning part's delta watermark splits that span at most once.
//
//imprintvet:locks held=mu.R
func (g *gatherer) fill(gids []uint32) {
	b := g.cur
	b.IDs = append(b.IDs, gids...)
	nparts := len(g.parts)
	for len(gids) > 0 {
		gseg := int(gids[0]) / g.segRows
		p := &g.parts[gseg%nparts]
		lseg := gseg / nparts
		// The run's ids are [from, to): the span, cut at split — the
		// global id of its first buffered row — to the side gids[0] is
		// on; base is the global id of position 0 of the slab they sit in.
		r, from, to := segRef{s: lseg}, gseg*g.segRows, (gseg+1)*g.segRows
		base := from
		if p.view.Rows > 0 {
			split := max(from, min(to, from+p.view.Base-lseg*g.segRows))
			if int(gids[0]) >= split {
				r.view, base = &p.view, from+p.view.Origin()-lseg*g.segRows
				from = split
			} else {
				to = split
			}
		}
		locals := g.locals[:0]
		for _, gid := range gids {
			if int(gid) < from || int(gid) >= to {
				break
			}
			locals = append(locals, uint32(int(gid)-base))
		}
		gids = gids[len(locals):]
		for ci, c := range p.proj {
			c.gather(&b.Cols[ci], r, locals)
		}
	}
}

// vecKind maps the column type to its vector kind and width.
func (c *colState[V]) vecKind() (ColKind, int) {
	var zero V
	bits := 8 * coltype.Width[V]()
	switch reflect.TypeOf(zero).Kind() {
	case reflect.Float32, reflect.Float64:
		return KindFloat, bits
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return KindUint, bits
	}
	return KindInt, bits
}

// gather appends the values at the given positions of the rows r names
// to dst, widened to dst's kind.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (c *colState[V]) gather(dst *ColVec, r segRef, locals []uint32) {
	vals := c.slab(r)
	switch dst.Kind {
	case KindInt:
		out := extend(&dst.Ints, len(locals))
		for i, l := range locals {
			out[i] = int64(vals[l])
		}
	case KindUint:
		out := extend(&dst.Uints, len(locals))
		for i, l := range locals {
			out[i] = uint64(vals[l])
		}
	default:
		out := extend(&dst.Floats, len(locals))
		for i, l := range locals {
			out[i] = float64(vals[l])
		}
	}
}

func (c *strColState) vecKind() (ColKind, int) { return KindString, 0 }

// gather appends the strings at the given positions of the rows r names
// to dst: the dictionary's symbols (the segment's, or the delta's),
// shared, not copied.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (c *strColState) gather(dst *ColVec, r segRef, locals []uint32) {
	codes, syms, _ := c.codeSlab(r)
	out := extend(&dst.Strs, len(locals))
	for i, l := range locals {
		out[i] = syms[codes[l]]
	}
}
