// Package delta implements the in-memory write buffer of the table
// layer's LSM-style ingest path: an append-only, unindexed, columnar
// store that absorbs batches without touching the sealed segments. Rows
// live here until a sealer cuts full segment-sized slabs off the front
// (building their indexes off the write path) or a flush folds the
// remainder into the columnar tail.
//
// The store holds one typed vector per column: a numeric column is a
// plain []V — the shape a scan-only segment's value slab has, so the
// table's block kernels and typed folds read it as they read a segment
// — and a string column is an []int32 code vector over an append-only
// dictionary whose codes are handed out in arrival order. Batches
// arrive column-major and are appended column-major: no value is boxed
// or transposed on its way in, while buffered, or on its way out.
//
// Every vector starts with Base%align never-read padding positions, so
// position p holds the row with id Base - Base%align + p: 64-row blocks
// of positions are 64-aligned blocks of row ids, whatever Base is.
//
// The store carries its own lock so appends never contend with the
// owning table's reader/writer lock — that separation is what lets
// streaming writers run while readers hold the table lock for whole
// query executions. The locking contract is split between the two
// locks:
//
//   - Append, SetNum/SetString, Truncate, SetBase, SetCols and
//     CopyPrefix serialize on the store mutex alone.
//   - View captures the buffered row count; the vectors it hands out
//     alias the store's memory. The caller must hold the owning table's
//     lock (shared is enough) so that Set and Truncate — which run
//     under the table's exclusive lock — are excluded for the lifetime
//     of the view. Concurrent Appends are safe against a view: a vector
//     only ever grows past the viewed prefix (in place beyond its
//     length, or into a fresh array the view does not see), and the
//     dictionary only ever gains symbols past the codes the prefix
//     uses.
//   - CopyPrefix copies the leading rows out by typed slice copy, so a
//     background sealer reads its snapshot without any lock while Set
//     patches the store in place.
//
// The generation counter makes optimistic off-lock builds safe: Set,
// Truncate, SetBase and SetCols bump it, and an installer re-checks
// (base, gen) under the table's exclusive lock before committing
// segments built from a CopyPrefix snapshot — a stale build is
// discarded, never installed.
package delta

import (
	"fmt"
	"sync"

	"repro/internal/coltype"
)

// Col is one column's buffered vector: a *Num[V] or a *Str.
type Col interface {
	// accepts reports the length of one batch's values for the column,
	// ok false when they are not the column's slice type.
	accepts(vals any) (n int, ok bool)
	// reset empties the vector down to pad padding positions.
	reset(pad int)
	// add appends vals[from:to].
	add(vals any, from, to int)
	// drop removes the first n positions; rows says how many rows stay.
	drop(n, rows int)
	// clone copies the first n positions into a vector of its own.
	clone(n int) Col
}

// Num is the buffered vector of a numeric column.
type Num[V coltype.Value] struct {
	vals []V
}

// NewNum returns an empty numeric vector.
func NewNum[V coltype.Value]() *Num[V] { return &Num[V]{} }

func (c *Num[V]) accepts(vals any) (int, bool) {
	v, ok := vals.([]V)
	return len(v), ok
}

func (c *Num[V]) reset(pad int)              { c.vals = make([]V, pad) }
func (c *Num[V]) add(vals any, from, to int) { c.vals = append(c.vals, vals.([]V)[from:to]...) }
func (c *Num[V]) drop(n, _ int)              { c.vals = c.vals[n:] }
func (c *Num[V]) clone(n int) Col            { return &Num[V]{vals: append([]V(nil), c.vals[:n]...)} }

// Str is the buffered vector of a string column: arrival-ordered codes
// over an append-only dictionary. syms only grows (or is replaced by a
// fresh slice); index is touched under the store's write lock alone.
type Str struct {
	codes []int32
	syms  []string
	index map[string]int32
}

// NewStr returns an empty string vector.
func NewStr() *Str { return &Str{} }

func (c *Str) accepts(vals any) (int, bool) {
	v, ok := vals.([]string)
	return len(v), ok
}

func (c *Str) reset(pad int) {
	c.codes, c.syms, c.index = make([]int32, pad), nil, map[string]int32{}
}

func (c *Str) add(vals any, from, to int) {
	for _, v := range vals.([]string)[from:to] {
		c.codes = append(c.codes, c.code(v))
	}
}

// code returns v's code, adding v to the dictionary when it is new.
func (c *Str) code(v string) int32 {
	code, ok := c.index[v]
	if !ok {
		code = int32(len(c.syms))
		c.syms = append(c.syms, v)
		c.index[v] = code
	}
	return code
}

// drop also keeps the dictionary bounded by the rows that stay: once
// symbols only dropped rows used outnumber them two to one, the
// survivors are re-encoded under a dictionary of their own.
func (c *Str) drop(n, rows int) {
	c.codes = c.codes[n:]
	if len(c.syms) <= 2*rows+1024 {
		return
	}
	pad := len(c.codes) - rows
	old, oldSyms := c.codes, c.syms
	c.reset(pad)
	for _, code := range old[pad:] {
		c.codes = append(c.codes, c.code(oldSyms[code]))
	}
}

func (c *Str) clone(n int) Col {
	return &Str{codes: append([]int32(nil), c.codes[:n]...), syms: c.syms}
}

// Store is one table's in-memory delta: the rows appended since the
// last seal or flush, in arrival order. Buffered row i is the table's
// row base+i.
type Store struct {
	mu    sync.RWMutex
	align int
	cols  []Col
	base  int
	n     int // buffered rows
	gen   uint64
}

// NewStore creates an empty store whose first row will be row base,
// with one vector per column, padded so that blocks of align positions
// are align-aligned blocks of row ids.
func NewStore(base, align int, cols []Col) *Store {
	return &Store{base: base, align: align, cols: cols}
}

// Append adds rows [from, to) of one batch: vals holds, per column, the
// batch's typed values ([]V for a *Num[V], []string for a *Str). The
// values are copied into the vectors.
func (s *Store) Append(vals []any, from, to int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(vals) != len(s.cols) {
		return fmt.Errorf("delta: batch has %d columns, layout has %d", len(vals), len(s.cols))
	}
	for ci, c := range s.cols {
		n, ok := c.accepts(vals[ci])
		if !ok {
			return fmt.Errorf("delta: column %d does not hold %T", ci, vals[ci])
		}
		if from < 0 || from > to || to > n {
			return fmt.Errorf("delta: rows [%d, %d) of a %d-row column %d", from, to, n, ci)
		}
	}
	for ci, c := range s.cols {
		if s.n == 0 {
			// Start over on fresh memory: whatever the drained vectors
			// still pin goes, and the padding matches the current base.
			c.reset(s.base % s.align)
		}
		c.add(vals[ci], from, to)
	}
	s.n += to - from
	return nil
}

// Len returns the number of buffered rows.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Base returns the id of the first buffered row.
func (s *Store) Base() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// SetCols replaces the column layout. The store must be empty (layout
// changes flush first); callers hold the owning table's exclusive lock.
func (s *Store) SetCols(cols []Col) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n != 0 {
		panic("delta: layout change on a non-empty store")
	}
	s.cols = cols
	s.gen++
}

// SetBase re-anchors an empty store at a new row id (the owning table
// compacted or renumbered). Callers hold the table's exclusive lock.
func (s *Store) SetBase(base int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n != 0 {
		panic("delta: re-anchor of a non-empty store")
	}
	s.base = base
	s.gen++
}

// Truncate drops the first n buffered rows (they were sealed or flushed
// into columnar storage) and advances base past them. Callers hold the
// owning table's exclusive lock.
func (s *Store) Truncate(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The rows go, and with them as much padding as keeps the rest
	// aligned.
	gone := s.base%s.align + n - (s.base+n)%s.align
	s.base += n
	s.n -= n
	for _, c := range s.cols {
		c.drop(gone, s.n)
	}
	s.gen++
}

// Matches reports whether the store still has the given identity — no
// Set, Truncate, SetBase or SetCols happened since it was captured —
// and at least the captured n rows are still buffered.
func (s *Store) Matches(base int, gen uint64, n int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base == base && s.gen == gen && n <= s.n
}

// SetNum replaces column ci's value of buffered row i in place. Callers
// hold the owning table's exclusive lock, which is what excludes every
// view; a CopyPrefix snapshot is a copy and keeps the old value.
func SetNum[V coltype.Value](s *Store, i, ci int, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cols[ci].(*Num[V]).vals[s.base%s.align+i] = v
	s.gen++
}

// SetString is SetNum for a string column; a novel string joins the
// dictionary.
func (s *Store) SetString(i, ci int, v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cols[ci].(*Str)
	c.codes[s.base%s.align+i] = c.code(v)
	s.gen++
}

// View is a watermark over the store: rows Base .. Base+Rows, which sit
// at positions Lo() .. Hi() of every column vector. The zero View holds
// no rows.
type View struct {
	Base int    // id of the first buffered row
	Rows int    // buffered rows the view covers
	Gen  uint64 // store generation at capture (CopyPrefix only)

	align int
	cols  []Col
	mu    *sync.RWMutex // guards cols' slice headers: the store's, or a prefix copy's own
}

// View returns the watermark of everything buffered now. The vectors it
// hands out alias the store's memory: appends only ever write beyond
// the view, but Set and Truncate run under the owning table's exclusive
// lock, so callers must hold that table's lock (shared suffices) for as
// long as they read through the view.
func (s *Store) View() View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return View{Base: s.base, Rows: s.n, align: s.align, cols: s.cols, mu: &s.mu}
}

// CopyPrefix copies the first n buffered rows (fewer when fewer are
// buffered) out of the store, with the identity (Base, Gen) they were
// taken at. The snapshot shares no mutable memory with the store, so it
// is safe to read without any lock; installers must re-check
// Matches(Base, Gen, Rows) under the owning table's exclusive lock
// before committing work derived from it.
func (s *Store) CopyPrefix(n int) View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := View{Base: s.base, Rows: min(n, s.n), Gen: s.gen, align: s.align, mu: new(sync.RWMutex)}
	if v.Rows > 0 {
		v.cols = make([]Col, len(s.cols))
		for ci, c := range s.cols {
			v.cols[ci] = c.clone(v.Hi())
		}
	}
	return v
}

// Origin is the row id position 0 of the vectors stands for.
func (v View) Origin() int { return v.Base - v.Lo() }

// Lo is the position of the view's first row: the padding before it.
func (v View) Lo() int {
	if v.Rows == 0 {
		return 0
	}
	return v.Base % v.align
}

// Hi is the position past the view's last row.
func (v View) Hi() int { return v.Lo() + v.Rows }

// NumVec returns numeric column ci's vector, cut to the view (which
// must hold rows).
func NumVec[V coltype.Value](v View, ci int) []V {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cols[ci].(*Num[V]).vals[:v.Hi()]
}

// StrVec returns string column ci's code vector, cut to the view, and
// the dictionary's symbols by code (at least those the codes use).
func (v View) StrVec(ci int) (codes []int32, syms []string) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	c := v.cols[ci].(*Str)
	return c.codes[:v.Hi()], c.syms
}
