package table

import (
	"fmt"

	"repro/internal/core"
)

// The execution frame (see shard.go for the storage layout). Every
// executor — IDs, Count, Batches/Rows, OrderBy, Aggregate,
// GroupBy.Aggregate, Explain — runs the paper's per-segment loop
// through this one frame: it read-locks the tables it reads exactly
// once, binds the predicate on each of them, captures each delta
// watermark exactly once, and fans out over (part, local segment)
// units in ascending global-segment order on one bounded worker pool.
// A sharded table's parts are its shards; an unsharded table is the
// fan-out at N = 1 — its own single part, where global segment i is
// segment i, local ids are global ids, and the one delta view follows
// every sealed id. The per-unit work is the shared single-table
// machinery (vectorized block walk, per-segment pruning, bounded top-k
// heaps) with row ids shifted from the part's local id space to the
// global round-robin id space. The merge consumes units in
// global-segment order and folds each part's buffered rows in part
// order (or, for the id-producing executors, interleaved by id), so
// results are deterministic at every parallelism level and, on
// densely-filled tables, byte-identical at every shard count.

// part is everything one execution resolved against one of its tables:
// the query rebound to it (a prepared execution picks up the
// statement's per-shard compilation), the bound execution tree, the
// delta watermark with its compiled row filter, and the column handles
// the executor asked for (schemas are identical across parts, handles
// are not).
type part struct {
	t     *Table
	q     Query
	en    *execNode
	view  *deltaView           // nil when nothing is buffered
	match func(row []any) bool // view's exact filter; nil matches every row
	proj  []anyColumn          // projected columns (projection)
	col   anyColumn            // OrderBy column or GroupBy key (column)
	aggs  []aggBind            // resolved aggregate specs (resolveAggs)
	dcis  []int                // aggs' positions in view's row layout
}

// unit is one sealed segment of one part; units execute in ascending
// gseg order. Global segment g lives on part g%N as local segment g/N.
type unit struct {
	c    int // owning part
	lseg int // part-local segment index
	gseg int // global segment: lseg*N + c
}

// exec is one execution's frame. Valid between begin and end, which
// bracket every executor.
type exec struct {
	q     *Query
	parts []part
	one   [1]part  // the unsharded table's single part, no allocation
	kids  []*Table // read-locked shards; nil when unsharded
	units int      // sealed segments across the parts
	slots int      // global segments spanning them (holes included)
	spans int      // global segments spanning sealed and buffered rows
	par   int      // workers the fan-out uses
	st    core.QueryStats

	// streamIDs state: the rows Limit still admits (negative without
	// one), the first global segment whose buffered rows are not yet
	// emitted, whether the sink still wants ids, the sink, and scratch.
	room int
	next int
	more bool
	emit func(u unit, gids []uint32, sealed bool) bool
	dbuf []uint32
}

// begin read-locks everything the execution reads — the table's own
// lock exactly once, plus every shard's lock in ascending order when
// sharded (sync.RWMutex is not reentrant: a second RLock behind a
// queued writer deadlocks) — and rebinds the query to each part.
//
//imprintvet:locks returns-held=mu.R,kid.R
func (x *exec) begin(q *Query) {
	t := q.t
	t.mu.RLock()
	x.q = q
	if sh := t.shard; sh != nil {
		t.shardRLock()
		x.kids = sh.kids
		x.parts = make([]part, sh.nshards)
		for c, kid := range sh.kids {
			p := &x.parts[c]
			p.t, p.q = kid, *q
			p.q.t = kid
			if q.prep != nil {
				p.q.prep = q.prep.kids[c]
			}
		}
		return
	}
	x.one[0] = part{t: t, q: *q}
	x.parts = x.one[:]
}

// end releases what begin acquired.
//
//imprintvet:locks releases=kid.R,mu.R
func (x *exec) end() {
	if x.kids != nil {
		x.q.t.shardRUnlock()
	}
	x.q.t.mu.RUnlock()
}

// ---- validation (every executor: projection, then order / group /
// aggregate columns, then the Limit(0) short-circuit, then bind) ----

func (x *exec) noColumn(name string) error {
	return fmt.Errorf("table %s: no column %q", x.q.t.name, name)
}

// checkProjection validates the projected names without resolving
// handles (IDs, Count and the aggregates never fetch projected values).
func (x *exec) checkProjection() error {
	for _, name := range x.q.cols {
		if _, ok := x.parts[0].t.cols[name]; !ok {
			return x.noColumn(name)
		}
	}
	return nil
}

// projection resolves the projected columns on every part and returns
// their names; an empty projection selects every column in definition
// order.
func (x *exec) projection() ([]string, error) {
	// Copy in both branches: names escapes into Row values, and aliasing
	// t.order (or the reusable query's own cols) would let callers mutate
	// query or table state through Row.Columns.
	names := append([]string(nil), x.q.cols...)
	if len(names) == 0 {
		names = append(names, x.q.t.order...)
	}
	for c := range x.parts {
		p := &x.parts[c]
		p.proj = make([]anyColumn, len(names))
		for i, name := range names {
			col, ok := p.t.cols[name]
			if !ok {
				return nil, x.noColumn(name)
			}
			p.proj[i] = col
		}
	}
	return names, nil
}

// column resolves the OrderBy column or GroupBy key on every part.
func (x *exec) column(name string) error {
	for c := range x.parts {
		p := &x.parts[c]
		col, ok := p.t.cols[name]
		if !ok {
			return x.noColumn(name)
		}
		p.col = col
	}
	return nil
}

// resolveAggs validates the specs against every part; parts[0].aggs
// names the specs for the merge.
func (x *exec) resolveAggs(specs []AggSpec) error {
	for c := range x.parts {
		p := &x.parts[c]
		binds, err := p.t.resolveAggs(specs)
		if err != nil {
			return err
		}
		p.aggs = binds
	}
	return nil
}

// ready finishes an executor's validation: given the outcome of its
// column checks it applies the Limit(0) short-circuit and binds, and
// reports whether there is anything left to execute (when not, the
// executor returns err — nil for Limit(0) — with its empty result).
//
//imprintvet:locks held=mu.R
func (x *exec) ready(err error) (bool, error) {
	if err != nil || x.q.limited && x.q.limit == 0 {
		return false, err
	}
	err = x.bind()
	return err == nil, err
}

// bind binds the predicate on every part, captures every delta
// watermark (exactly once: each merge path must observe one capture),
// and sizes the fan-out.
//
//imprintvet:locks held=mu.R
func (x *exec) bind() error {
	n := len(x.parts)
	segRows := x.q.t.segRows
	for c := range x.parts {
		p := &x.parts[c]
		en, err := p.q.bind()
		if err != nil {
			return err
		}
		p.en = en
		rows := p.t.rows
		if p.view = p.t.deltaViewLocked(); p.view != nil {
			p.match = p.view.matcher(en)
			rows += len(p.view.rows)
		}
		if segs := p.t.segCount(); segs > 0 {
			x.units += segs
			x.slots = max(x.slots, (segs-1)*n+c+1)
		}
		if rows > 0 {
			x.spans = max(x.spans, (rows-1)/segRows*n+c+1)
		}
	}
	x.par = resolveParallelism(x.q.opts, x.units)
	return nil
}

// ---- fan-out ----

// unit maps global segment g to its unit; ok is false for a hole (the
// owning part is shorter — concurrent commits fill shards at
// independent rates).
func (x *exec) unit(g int) (u unit, ok bool) {
	n := len(x.parts)
	u = unit{c: g % n, lseg: g / n, gseg: g}
	return u, u.lseg < x.parts[u.c].t.segCount()
}

// shift rebases unit u's part-local row ids into the global id space.
func (x *exec) shift(u unit) uint32 {
	return uint32((u.gseg - u.lseg) * x.q.t.segRows)
}

// forEachUnit fans the units across the bounded worker pool and
// consumes them in ascending global-segment order, summing the
// workers' stats into x.st; a cancellation comes back wrapped.
func (x *exec) forEachUnit(work func(u unit) segOut, consume func(u unit, o segOut) bool) error {
	err := forEachSegment(x.q.opts.Ctx, x.slots, x.par,
		func(g int) segOut {
			if u, ok := x.unit(g); ok {
				return work(u)
			}
			return segOut{}
		},
		func(g int, o segOut) bool {
			u, ok := x.unit(g)
			if !ok {
				return true
			}
			x.st.Add(o.st)
			return consume(u, o)
		})
	if err != nil {
		return x.q.t.abortErr(err)
	}
	return nil
}

// streamIDs is the one ordered merge of sealed and buffered ids, behind
// IDs, Batches and the limited aggregate: emit receives the qualifying
// global ids in ascending order, capped by Limit, one run at a time —
// each global segment's sealed ids (collected by the unit workers)
// followed by its buffered ids (the owning part's delta rows inside
// that segment's id span). One part's buffered rows can precede another
// part's sealed segments, so they interleave by segment rather than
// trailing the fan-out; a part's view is scanned only once the rows
// before it left the limit unfilled, so a limit the sealed rows fill
// scans no delta row. emit returning false stops the stream.
//
//imprintvet:locks held=mu.R
func (x *exec) streamIDs(emit func(u unit, gids []uint32, sealed bool) bool) error {
	limit := -1
	if x.q.limited {
		limit = x.q.limit
	}
	x.room, x.next, x.more, x.emit = limit, 0, true, emit
	err := x.forEachUnit(
		func(u unit) segOut {
			// One worker runs inline, strictly after the previous unit was
			// merged, so it may stop at what the limit still admits; pooled
			// workers run ahead of the merge and only know the limit.
			room := limit
			if x.par == 1 {
				room = x.room
			}
			p := &x.parts[u.c]
			o := p.q.collectIDs(p.en, u.lseg, room)
			if shift := x.shift(u); shift != 0 {
				ids := *o.ids
				for k := range ids {
					ids[k] += shift
				}
			}
			return o
		},
		func(u unit, o segOut) bool {
			defer putIDScratch(o.ids)
			return x.buffered(u.gseg) && x.take(u, *o.ids, true) && x.buffered(u.gseg+1)
		})
	if err != nil {
		return err
	}
	if x.more {
		x.buffered(x.spans)
	}
	return nil
}

// take hands emit the ids the limit still admits and reports whether
// the stream continues.
func (x *exec) take(u unit, ids []uint32, sealed bool) bool {
	if x.room >= 0 {
		ids = ids[:min(len(ids), x.room)]
		x.room -= len(ids)
	}
	x.more = (len(ids) == 0 || x.emit(u, ids, sealed)) && x.room != 0
	return x.more
}

// buffered emits the qualifying buffered rows of global segments
// [x.next, upto): the slice of the owning part's view whose local ids
// fall in the segment's span, scanned exactly and rebased.
//
//imprintvet:locks held=mu.R
func (x *exec) buffered(upto int) bool {
	segRows := x.q.t.segRows
	for ; x.next < upto; x.next++ {
		u, _ := x.unit(x.next) // sealed or not: only its buffered span matters
		p := &x.parts[u.c]
		v := p.view
		if v == nil {
			continue
		}
		lo := max(0, u.lseg*segRows-v.base)
		hi := min(len(v.rows), (u.lseg+1)*segRows-v.base)
		if lo >= hi {
			continue
		}
		shift := x.shift(u)
		ids := x.dbuf[:0]
		v.scanRows(lo, hi, p.match, &x.st, func(id int, _ []any) bool {
			ids = append(ids, uint32(id)+shift)
			return len(ids) != x.room
		})
		x.dbuf = ids
		if !x.take(u, ids, false) {
			return false
		}
	}
	return true
}

// deltaRow returns the buffered row behind a global id streamIDs
// emitted for unit u.
func (x *exec) deltaRow(u unit, gid uint32) []any {
	v := x.parts[u.c].view
	return v.rows[int(gid-x.shift(u))-v.base]
}
