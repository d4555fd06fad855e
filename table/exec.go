package table

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/delta"
)

// The execution frame (see shard.go for the storage layout). Every
// executor — IDs, Count, Batches/Rows, OrderBy, Aggregate,
// GroupBy.Aggregate, Explain — runs the paper's per-segment loop
// through this one frame: it read-locks the tables it reads exactly
// once, binds the predicate on each of them, captures each delta
// watermark exactly once, and fans out over units on one bounded worker
// pool: the (part, local segment) pairs in ascending global-segment
// order, then each part's buffered rows — one more unit, evaluated by
// the same walk, kernels and folds over the part's delta view
// (snapshot.go). A sharded table's parts are its shards; an unsharded
// table is the fan-out at N = 1 — its own single part, where global
// segment i is segment i, local ids are global ids, and the one delta
// view follows every sealed id. The per-unit work is the shared
// single-table machinery (vectorized block walk, per-segment pruning,
// typed folds, bounded top-k heaps) with row ids shifted from the
// part's local id space to the global round-robin id space. The merge
// consumes units in that order (the id-producing executors instead
// interleave each part's buffered rows by global segment, streamIDs),
// so results are deterministic at every parallelism level and, on
// densely-filled tables, byte-identical at every shard count.

// part is everything one execution resolved against one of its tables:
// the query rebound to it (a prepared execution picks up the
// statement's per-shard compilation), the bound execution tree, the
// delta watermark with the tree's kernel over it, and the column
// handles the executor asked for (schemas are identical across parts,
// handles are not).
type part struct {
	t     *Table
	q     Query
	en    *execNode
	view  delta.View  // zero Rows when nothing is buffered
	dkern blockKernel // en over view's vectors; built by the first evalDelta
	proj  []anyColumn // projected columns (projection)
	col   anyColumn   // OrderBy column or GroupBy key (column)
	aggs  []aggBind   // resolved aggregate specs (resolveAggs)
}

// unit is one sealed segment of one part — global segment g lives on
// part g%N as local segment g/N — or, with buf set, rows the part
// buffers: those of local segment lseg (the id stream's and the top-k's
// currency), or all of them when lseg is negative (the fan-out's
// trailing units).
type unit struct {
	c    int // owning part
	lseg int // part-local segment index
	gseg int // global segment: lseg*N + c
	buf  bool
}

// ref names the unit's rows for the column hooks.
func (p *part) ref(u unit) segRef {
	if u.buf {
		return segRef{view: &p.view}
	}
	return segRef{s: u.lseg}
}

// eval evaluates the part's execution tree against the unit's rows; the
// executor walks the result with walkBlocks and must releaseEval it.
//
//imprintvet:locks held=mu.R
func (p *part) eval(u unit, st *core.QueryStats) evaluated {
	if u.buf {
		return p.evalDelta(p.span(u.lseg))
	}
	return p.t.evalSegment(p.en, u.lseg, p.q.opts, st, false)
}

// span returns the positions of the view's rows that belong to local
// segment lseg (lo >= hi when none do), of all of them when lseg is
// negative.
func (p *part) span(lseg int) (lo, hi int) {
	v, segRows := p.view, p.t.segRows
	if lseg < 0 {
		return v.Lo(), v.Hi()
	}
	return max(v.Base, lseg*segRows) - v.Origin(), min(v.Base+v.Rows, (lseg+1)*segRows) - v.Origin()
}

// exec is one execution's frame. Valid between begin and end, which
// bracket every executor.
type exec struct {
	q     *Query
	parts []part
	one   [1]part // the unsharded table's single part, no allocation
	units int     // sealed segments across the parts
	slots int     // global segments spanning them (holes included)
	spans int     // global segments spanning sealed and buffered rows
	bufs  bool    // some part buffers rows
	par   int     // workers the fan-out uses
	// lagged starts each unit's work only once the unit par slots before
	// it was merged (forEachSegment): set by an executor whose workers
	// read what the merge publishes — the top-k's bound.
	lagged bool
	st     core.QueryStats

	// streamIDs state: the rows Limit still admits (negative without
	// one), the first global segment whose buffered rows are not yet
	// emitted, whether the sink still wants ids, and the sink.
	room int
	next int
	more bool
	emit func(u unit, gids []uint32) bool
}

// begin read-locks everything the execution reads (rlockParts) and
// rebinds the query to each part: a prepared execution picks up the
// statement's compilation for that part.
//
//imprintvet:locks returns-held=mu.R,kid.R
func (x *exec) begin(q *Query) {
	x.q = q
	kids := q.t.rlockParts()
	x.parts = slices.Grow(x.one[:0], len(kids))
	for c, kid := range kids {
		x.parts = append(x.parts, part{t: kid, q: *q})
		p := &x.parts[c]
		p.q.t = kid
		if q.prep != nil {
			p.q.prep = q.prep.parts[c]
		}
	}
}

// end releases what begin acquired.
//
//imprintvet:locks releases=kid.R,mu.R
func (x *exec) end() {
	x.q.t.runlockParts()
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
		p.view = p.t.deltaViewLocked()
		x.bufs = x.bufs || p.view.Rows > 0
		if segs := p.t.segCount(); segs > 0 {
			x.units += segs
			x.slots = max(x.slots, (segs-1)*n+c+1)
		}
		if rows := p.t.rows + p.view.Rows; rows > 0 {
			x.spans = max(x.spans, (rows-1)/segRows*n+c+1)
		}
	}
	x.par = resolveParallelism(x.q.opts, x.units)
	return nil
}

// ---- fan-out ----

// unit maps fan-out slot i to its unit: slots below x.slots are the
// global segments, the rest one per part for its buffered rows. ok is
// false for a hole — the owning part is shorter (concurrent commits
// fill shards at independent rates), or buffers nothing.
func (x *exec) unit(i int) (u unit, ok bool) {
	if i >= x.slots {
		u = unit{c: i - x.slots, lseg: -1, buf: true}
		return u, x.parts[u.c].view.Rows > 0
	}
	n := len(x.parts)
	u = unit{c: i % n, lseg: i / n, gseg: i}
	return u, u.lseg < x.parts[u.c].t.segCount()
}

// base is the global id of position 0 of unit u's rows — a sealed
// segment's first row, or the origin of the delta view (whose rows in
// local segment u.lseg are meant) — rebasing part-local ids into the
// global id space on the way.
func (x *exec) base(u unit) uint32 {
	origin := u.lseg * x.q.t.segRows
	if u.buf {
		origin = x.parts[u.c].view.Origin()
	}
	return uint32((u.gseg-u.lseg)*x.q.t.segRows + origin)
}

// forEachUnit fans the units — sealed segments, then each part's
// buffered rows — across the bounded worker pool and consumes them in
// that order.
func (x *exec) forEachUnit(work func(u unit) segOut, consume func(u unit, o segOut) bool) error {
	n := x.slots
	if x.bufs {
		n += len(x.parts)
	}
	return x.fan(n, work, consume)
}

// fan runs slots [0, n) of the fan-out, summing the workers' stats into
// x.st; a cancellation comes back wrapped.
func (x *exec) fan(n int, work func(u unit) segOut, consume func(u unit, o segOut) bool) error {
	err := forEachSegment(x.q.opts.Ctx, n, x.par, x.lagged,
		func(i int) segOut {
			if u, ok := x.unit(i); ok {
				return work(u)
			}
			return segOut{}
		},
		func(i int, o segOut) bool {
			u, ok := x.unit(i)
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
// trailing the fan-out; a part's view is evaluated only once the rows
// before it left the limit unfilled, so a limit the sealed rows fill
// touches no buffered row. emit returning false stops the stream.
//
//imprintvet:locks held=mu.R
func (x *exec) streamIDs(emit func(u unit, gids []uint32) bool) error {
	limit := -1
	if x.q.limited {
		limit = x.q.limit
	}
	x.room, x.next, x.more, x.emit = limit, 0, true, emit
	err := x.fan(x.slots,
		func(u unit) segOut {
			// One worker runs inline, strictly after the previous unit was
			// merged, so it may stop at what the limit still admits; pooled
			// workers run ahead of the merge and only know the limit.
			room := limit
			if x.par == 1 {
				room = x.room
			}
			return x.collectIDs(u, room)
		},
		func(u unit, o segOut) bool {
			defer putIDScratch(o.ids)
			return x.buffered(u.gseg) && x.take(u, *o.ids) && x.buffered(u.gseg+1)
		})
	if err != nil {
		return err
	}
	if x.more {
		x.buffered(x.spans)
	}
	return nil
}

// collectIDs is the worker behind the id stream: evaluate the tree
// against one sealed segment — or the buffered rows of local segment
// u.lseg — and materialize the qualifying global ids into a pooled
// scratch buffer. Each surviving block's selection mask expands to ids
// by trailing-zero iteration; the walk stops once room ids are
// collected (negative: no cap) and the buffer may run at most one block
// past it (the merging consumer truncates).
//
//imprintvet:locks held=mu.R
func (x *exec) collectIDs(u unit, room int) segOut {
	var o segOut
	p := &x.parts[u.c]
	ev := p.eval(u, &o.st)
	buf, reused := getIDScratch()
	if reused {
		o.st.ScratchReused++
	}
	ids := *buf
	shift := x.base(u) - uint32(ev.origin)
	p.t.walkBlocks(ev, &o.st, nil, func(base int, mask uint64) bool {
		ids = core.AppendMaskIDs(ids, uint32(base)+shift, mask)
		return room < 0 || len(ids) < room
	})
	releaseEval(&ev)
	*buf = ids
	o.ids = buf
	return o
}

// take hands emit the ids the limit still admits and reports whether
// the stream continues.
func (x *exec) take(u unit, ids []uint32) bool {
	if x.room >= 0 {
		ids = ids[:min(len(ids), x.room)]
		x.room -= len(ids)
	}
	x.more = (len(ids) == 0 || x.emit(u, ids)) && x.room != 0
	return x.more
}

// buffered emits the qualifying buffered rows of global segments
// [x.next, upto): the stretch of the owning part's view whose ids fall
// in the segment's span.
//
//imprintvet:locks held=mu.R
func (x *exec) buffered(upto int) bool {
	n := len(x.parts)
	for ; x.next < upto; x.next++ {
		u := unit{c: x.next % n, lseg: x.next / n, gseg: x.next, buf: true}
		p := &x.parts[u.c]
		if lo, hi := p.span(u.lseg); p.view.Rows == 0 || lo >= hi {
			continue
		}
		o := x.collectIDs(u, x.room)
		x.st.Add(o.st)
		more := x.take(u, *o.ids)
		putIDScratch(o.ids)
		if !more {
			return false
		}
	}
	return true
}
