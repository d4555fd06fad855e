package table

import (
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/core"
)

// Query is a lazy selection over one table, built by Table.Select. It
// records a projection, a predicate tree, and a row limit; nothing runs
// until one of the executors — Rows, IDs, Count, Explain — is called,
// and each execution sees a consistent snapshot of the table (readers
// share the table lock, writers exclude them).
//
// Execution is segment-parallel: the compiled predicate is evaluated
// against every storage segment independently — segments whose summary
// provably excludes the predicate are pruned without probing — across a
// worker pool bounded by SelectOptions.Parallelism, and the per-segment
// results are merged in segment order, so ids come back ascending and
// identical at every parallelism level. Limit cancels segments no
// worker has started yet.
//
// A Query value is reusable (each executor re-runs the plan) but not
// safe for concurrent use; build one per goroutine. Queries spawned
// from a prepared statement (Prepared.Exec / Prepared.Bind) execute its
// compiled plan instead of re-planning the predicate tree.
type Query struct {
	t       *Table
	cols    []string
	pred    Predicate
	prep    *Prepared      // non-nil for executions of a prepared statement
	binds   map[string]any // parameter bindings for prep
	bindErr error          // sticky builder error (bad Bind, Where on prepared)
	limit   int
	limited bool       // Limit was called; limit 0 then means "no rows"
	order   *OrderSpec // OrderBy ordering; nil means ascending id order
	opts    SelectOptions
	err     error // sticky error from the last Rows iteration
}

// Select starts a lazy query projecting the named columns; no columns
// means every column, in definition order. Column names are validated
// at execution time.
func (t *Table) Select(cols ...string) *Query {
	return &Query{t: t, cols: cols}
}

// Where filters the query by a predicate tree. Multiple Where calls
// AND their predicates together. Executions of a prepared statement
// carry a fixed, pre-compiled predicate; Where on one is an error.
func (q *Query) Where(p Predicate) *Query {
	switch {
	case q.prep != nil:
		if p != nil && q.bindErr == nil {
			q.bindErr = fmt.Errorf("table %s: cannot add predicates to a prepared execution", q.t.name)
		}
	case p == nil:
	case q.pred == nil:
		q.pred = p
	default:
		q.pred = And(q.pred, p)
	}
	return q
}

// Bind supplies the value of one named parameter of a prepared
// execution (see Table.Prepare). The value's dynamic type must match
// the placeholder's declared type — []V / []string for InP
// placeholders. Binding errors are sticky and reported by the executor.
func (q *Query) Bind(name string, v any) *Query {
	if q.prep == nil {
		if q.bindErr == nil {
			q.bindErr = fmt.Errorf("table %s: Bind(%q) on an unprepared query (use Table.Prepare)", q.t.name, name)
		}
		return q
	}
	if err := q.prep.checkBind(name, v); err != nil {
		if q.bindErr == nil {
			q.bindErr = err
		}
		return q
	}
	if q.binds == nil {
		q.binds = make(map[string]any, len(q.prep.params))
	}
	q.binds[name] = v
	return q
}

// Limit caps the number of result rows. Limit(0) — or a negative n,
// as computed pagination remainders can produce — selects no rows and
// short-circuits execution before the predicate is evaluated (only the
// projection is still validated); a query that never calls Limit is
// unbounded. Count is capped too, so "exists" probes can use Limit(1).
func (q *Query) Limit(n int) *Query {
	if n < 0 {
		n = 0
	}
	q.limit = n
	q.limited = true
	return q
}

// Options tunes evaluation (e.g. the scan-vs-probe threshold and the
// segment parallelism).
func (q *Query) Options(o SelectOptions) *Query {
	q.opts = o
	return q
}

// bind resolves this execution down to an execution tree ready for
// per-segment evaluation; callers hold the table's read lock. Ad-hoc
// queries compile their predicate tree now; prepared executions reuse
// the statement's cached compilation and translate only parameterized
// leaves. A nil tree (en == nil with nil error) matches every row.
func (q *Query) bind() (*execNode, error) {
	if q.bindErr != nil {
		return nil, q.bindErr
	}
	if q.prep != nil {
		return q.prep.bindLocked(q.binds)
	}
	if q.pred == nil {
		return nil, nil
	}
	cn, err := q.t.compile(q.pred)
	if err != nil {
		return nil, err
	}
	return q.t.bindTree(cn, nil)
}

// projection resolves the projected column names; callers hold the read
// lock. An empty projection selects every column in definition order.
func (q *Query) projection() ([]string, []anyColumn, error) {
	// Copy in both branches: names escapes into Row values, and
	// aliasing t.order (or the reusable query's own cols) would let
	// callers mutate query or table state through Row.Columns.
	names := append([]string(nil), q.cols...)
	if len(names) == 0 {
		names = append(names, q.t.order...)
	}
	cols := make([]anyColumn, len(names))
	for i, name := range names {
		c, ok := q.t.cols[name]
		if !ok {
			return nil, nil, fmt.Errorf("table %s: no column %q", q.t.name, name)
		}
		cols[i] = c
	}
	return names, cols, nil
}

// checkProjection validates the projected names without materializing
// the projection (IDs and Count never fetch values); callers hold the
// read lock.
func (q *Query) checkProjection() error {
	for _, name := range q.cols {
		if _, ok := q.t.cols[name]; !ok {
			return fmt.Errorf("table %s: no column %q", q.t.name, name)
		}
	}
	return nil
}

// deltaIDs appends the qualifying buffered delta rows' ids to res
// (capped by Limit), evaluating the execution tree exactly over each
// live row. Delta ids are all larger than sealed ids, so appending
// after the segment merge keeps ids ascending. Callers hold the read
// lock.
//
//imprintvet:locks held=mu.R
func (q *Query) deltaIDs(en *execNode, res []uint32, st *core.QueryStats) []uint32 {
	view := q.t.deltaViewLocked()
	if view == nil {
		return res
	}
	match := view.matcher(en)
	view.scan(match, st, func(id int, _ []any) bool {
		res = append(res, uint32(id))
		return !q.limited || len(res) < q.limit
	})
	return res
}

// deltaCount adds the buffered delta rows' qualifying count to n
// (capped by Limit); callers hold the read lock.
//
//imprintvet:locks held=mu.R
func (q *Query) deltaCount(en *execNode, n uint64, st *core.QueryStats) uint64 {
	view := q.t.deltaViewLocked()
	if view == nil {
		return n
	}
	match := view.matcher(en)
	limit := uint64(q.limit)
	view.scan(match, st, func(int, []any) bool {
		n++
		return !q.limited || n < limit
	})
	return n
}

// collectIDs is the segment worker behind IDs and Rows: evaluate the
// tree against one segment and materialize its qualifying global ids
// into a pooled scratch buffer. Each surviving block's selection mask
// expands to ids by trailing-zero iteration; the buffer may run at most
// one block past the limit (the merging consumer truncates).
//
//imprintvet:locks held=mu.R
func (q *Query) collectIDs(en *execNode, s int) segOut {
	var o segOut
	ev := q.t.evalSegment(en, s, q.opts, &o.st, false)
	buf, reused := getIDScratch()
	if reused {
		o.st.ScratchReused++
	}
	ids := *buf
	q.t.walkBlocks(s, ev, &o.st, nil, func(base int, mask uint64) bool {
		ids = core.AppendMaskIDs(ids, uint32(base), mask)
		return !q.limited || len(ids) < q.limit
	})
	releaseEval(&ev)
	*buf = ids
	o.ids = buf
	return o
}

// IDs executes the query and returns the ids of qualifying,
// non-deleted rows, with the evaluation stats. Without OrderBy the ids
// come back ascending; with OrderBy they come back in rank order (the
// ordering column's value in the requested direction, ties by
// ascending id), capped by Limit — the top-k.
func (q *Query) IDs() ([]uint32, core.QueryStats, error) {
	if q.t.shard != nil {
		return q.shardIDs()
	}
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	var st core.QueryStats
	if err := q.checkProjection(); err != nil {
		return nil, st, err
	}
	if q.order != nil {
		return q.orderedIDsLocked()
	}
	if q.limited && q.limit == 0 {
		return nil, st, nil
	}
	en, err := q.bind()
	if err != nil {
		return nil, st, err
	}
	nsegs := q.t.segCount()
	if resolveParallelism(q.opts, nsegs) == 1 {
		return q.idsSerial(en, nsegs)
	}
	return q.idsParallel(en, nsegs)
}

// idsSerial is the one-worker IDs loop: every segment's masks expand
// into one shared pooled buffer on the calling goroutine, and the only
// allocation left in steady state is the returned slice itself (the
// vectorized zero-alloc pin relies on this path).
//
//imprintvet:locks held=mu.R
func (q *Query) idsSerial(en *execNode, nsegs int) ([]uint32, core.QueryStats, error) {
	var st core.QueryStats
	buf, reused := getIDScratch()
	if reused {
		st.ScratchReused++
	}
	ids := *buf
	for s := 0; s < nsegs; s++ {
		if err := ctxErr(q.opts.Ctx); err != nil {
			*buf = ids
			putIDScratch(buf)
			return nil, st, q.t.abortErr(err)
		}
		ev := q.t.evalSegment(en, s, q.opts, &st, false)
		q.t.walkBlocks(s, ev, &st, nil, func(base int, mask uint64) bool {
			ids = core.AppendMaskIDs(ids, uint32(base), mask)
			return !q.limited || len(ids) < q.limit
		})
		releaseEval(&ev)
		if q.limited && len(ids) >= q.limit {
			break
		}
	}
	if q.limited && len(ids) > q.limit {
		ids = ids[:q.limit]
	}
	res := append([]uint32(nil), ids...)
	*buf = ids
	putIDScratch(buf)
	if !q.limited || len(res) < q.limit {
		res = q.deltaIDs(en, res, &st)
	}
	return res, st, nil
}

// idsParallel fans the segments across the worker pool and concatenates
// the per-segment id lists in segment order.
//
//imprintvet:locks held=mu.R
func (q *Query) idsParallel(en *execNode, nsegs int) ([]uint32, core.QueryStats, error) {
	var st core.QueryStats
	var res []uint32
	err := q.t.forEachSegment(q.opts.Ctx, nsegs, resolveParallelism(q.opts, nsegs),
		func(s int) segOut { return q.collectIDs(en, s) },
		func(s int, o segOut) bool {
			st.Add(o.st)
			ids := *o.ids
			take := len(ids)
			if q.limited && q.limit-len(res) < take {
				take = q.limit - len(res)
			}
			res = append(res, ids[:take]...)
			putIDScratch(o.ids)
			return !q.limited || len(res) < q.limit
		})
	if err != nil {
		return nil, st, q.t.abortErr(err)
	}
	if !q.limited || len(res) < q.limit {
		res = q.deltaIDs(en, res, &st)
	}
	return res, st, nil
}

// countSegment tallies one segment: exact candidate runs wholesale via
// the deleted-bitmap popcount (the count fast path), inexact runs one
// popcount per surviving block mask.
//
//imprintvet:locks held=mu.R
func (q *Query) countSegment(en *execNode, s int) segOut {
	var o segOut
	ev := q.t.evalSegment(en, s, q.opts, &o.st, false)
	limit := uint64(q.limit)
	q.t.walkBlocks(s, ev, &o.st,
		func(from, to int, exact bool) spanAction {
			if !exact {
				return spanPerBlock
			}
			live := q.t.liveRows(from, to)
			o.st.FastCountedRows += uint64(live)
			o.count += uint64(live)
			if q.limited && o.count >= limit {
				return spanStop
			}
			return spanDone
		},
		func(base int, mask uint64) bool {
			o.count += uint64(bits.OnesCount64(mask))
			return !q.limited || o.count < limit
		})
	releaseEval(&ev)
	return o
}

// Count executes the query and returns the number of qualifying rows
// (capped by Limit) without materializing ids. Exact candidate runs are
// counted wholesale — a popcount over the deleted bitmap replaces the
// block walk even while deletes are pending — with the shortcut's row
// tally reported in QueryStats.FastCountedRows (and previewed by
// Plan.FastCountRows); surviving blocks of inexact runs cost one
// selection-mask kernel call and one popcount each. Segments are
// counted in parallel and the tallies summed in segment order; with one
// worker the whole execution is allocation-free in steady state.
func (q *Query) Count() (uint64, core.QueryStats, error) {
	if q.t.shard != nil {
		return q.shardCount()
	}
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	var st core.QueryStats
	if err := q.checkProjection(); err != nil {
		return 0, st, err
	}
	if q.limited && q.limit == 0 {
		return 0, st, nil
	}
	en, err := q.bind()
	if err != nil {
		return 0, st, err
	}
	limit := uint64(q.limit)
	nsegs := q.t.segCount()
	if resolveParallelism(q.opts, nsegs) == 1 {
		var n uint64
		for s := 0; s < nsegs; s++ {
			if err := ctxErr(q.opts.Ctx); err != nil {
				return 0, st, q.t.abortErr(err)
			}
			o := q.countSegment(en, s)
			st.Add(o.st)
			n += o.count
			if q.limited && n >= limit {
				break
			}
		}
		if !q.limited || n < limit {
			n = q.deltaCount(en, n, &st)
		}
		if q.limited && n > limit {
			n = limit
		}
		return n, st, nil
	}
	return q.countParallel(en, nsegs, limit)
}

// countParallel fans the segments across the worker pool, summing the
// tallies in segment order.
//
//imprintvet:locks held=mu.R
func (q *Query) countParallel(en *execNode, nsegs int, limit uint64) (uint64, core.QueryStats, error) {
	var st core.QueryStats
	var n uint64
	err := q.t.forEachSegment(q.opts.Ctx, nsegs, resolveParallelism(q.opts, nsegs),
		func(s int) segOut { return q.countSegment(en, s) },
		func(s int, o segOut) bool {
			st.Add(o.st)
			n += o.count
			return !q.limited || n < limit
		})
	if err != nil {
		return 0, st, q.t.abortErr(err)
	}
	if !q.limited || n < limit {
		n = q.deltaCount(en, n, &st)
	}
	if q.limited && n > limit {
		n = limit
	}
	return n, st, nil
}

// Batches executes the query as a streaming iterator over columnar
// RowBatches: segment workers narrow each segment down to its
// qualifying ids, and the consumer gathers the projected columns of
// those rows — and only those (late materialization) — into typed
// vectors, one column at a time, yielding a batch whenever one fills
// and the partly filled last one at the end. Batches arrive in segment
// order, so breaking out early cancels segments not yet started. With
// OrderBy the qualifying ids are ranked first (per-segment bounded
// heaps when Limit caps the query) and rows arrive in rank order
// instead of id order. Each yielded batch belongs to the consumer; see
// RowBatch.Release.
//
// The table's read lock is held for the duration of the iteration, and
// sync.RWMutex is not reentrant: calling any write method (Update,
// Delete, Batch.Commit, Compact, Maintain, AddColumn, ...) from inside
// the loop body deadlocks, and nested reads can too once a writer is
// queued. To mutate matching rows, materialize the ids first (IDs) and
// write after the loop. Plan errors (unknown column, type-mismatched
// bound) yield nothing and are reported by Err.
func (q *Query) Batches() iter.Seq[*RowBatch] {
	if q.t.shard != nil {
		return q.shardBatches
	}
	return func(yield func(*RowBatch) bool) {
		q.t.mu.RLock()
		defer q.t.mu.RUnlock()
		q.err = nil
		names, cols, err := q.projection()
		if err != nil {
			q.err = err
			return
		}
		if q.limited && q.limit == 0 {
			return
		}
		// The delta watermark captured here serves both the gather (ids
		// at or past its base live in the buffer, not in segments) and
		// the trailing exact scan of the unordered path.
		view := q.t.deltaViewLocked()
		g := q.newGatherer(names, []gatherPart{newGatherPart(names, cols, view)}, yield)
		defer g.finish()
		if q.order != nil {
			ids, _, err := q.orderedIDsLocked()
			if err != nil {
				q.err = err
				return
			}
			g.add(ids)
			return
		}
		en, err := q.bind()
		if err != nil {
			q.err = err
			return
		}
		want := true
		nsegs := q.t.segCount()
		if err := q.t.forEachSegment(q.opts.Ctx, nsegs, resolveParallelism(q.opts, nsegs),
			func(s int) segOut { return q.collectIDs(en, s) },
			func(s int, o segOut) bool {
				want = g.add(*o.ids)
				putIDScratch(o.ids)
				return want
			}); err != nil {
			q.err = q.t.abortErr(err)
			return
		}
		if want && view != nil {
			var dids []uint32
			var dst core.QueryStats
			view.scan(view.matcher(en), &dst, func(id int, _ []any) bool {
				dids = append(dids, uint32(id))
				return len(dids) != g.room
			})
			g.add(dids)
		}
	}
}

// Rows executes the query as a streaming iterator over (id, Row) pairs:
// Batches, boxed one row at a time — the column values of each Row are
// its own, safe to keep. Everything Batches documents about ordering,
// early exit, the read lock held across the iteration, and Err applies.
func (q *Query) Rows() iter.Seq2[int, Row] {
	return func(yield func(int, Row) bool) {
		for b := range q.Batches() {
			// One value slab per batch; each Row owns its slice of it.
			ncols := len(b.Cols)
			vals := make([]any, 0, len(b.IDs)*ncols)
			for i, id := range b.IDs {
				vals = b.AppendRow(vals, i)
				row := Row{id: int(id), names: b.names, vals: vals[i*ncols : len(vals) : len(vals)]}
				if !yield(int(id), row) {
					b.Release()
					return
				}
			}
			b.Release()
		}
	}
}

// Err reports the plan error of the last Rows iteration, if any. IDs,
// Count and Explain return their errors directly.
func (q *Query) Err() error { return q.err }
