package table

import (
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/core"
)

// Query is a lazy selection over one table, built by Table.Select. It
// records a projection, a predicate tree, and a row limit; nothing runs
// until one of the executors — Rows/Batches, IDs, Count, Aggregate,
// GroupBy(...).Aggregate, Explain — is called, and each execution sees
// a consistent snapshot of the table (readers share the table lock,
// writers exclude them).
//
// Every executor runs through one execution frame (exec.go): the
// compiled predicate is evaluated against every storage segment
// independently — segments whose summary provably excludes the
// predicate are pruned without probing — across a worker pool bounded
// by SelectOptions.Parallelism, and the per-segment results are merged
// in global segment order with the buffered delta rows, so ids come
// back ascending and identical at every parallelism level and shard
// count (an unsharded table is the frame's single part). Limit cancels
// segments no worker has started yet. Executors validate in one order:
// the projection, then the order / group / aggregate columns, then the
// Limit(0) short-circuit, then the predicate.
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

// IDs executes the query and returns the ids of qualifying,
// non-deleted rows, with the evaluation stats. Without OrderBy the ids
// come back ascending; with OrderBy they come back in rank order (the
// ordering column's value in the requested direction, ties by
// ascending id), capped by Limit — the top-k.
func (q *Query) IDs() ([]uint32, core.QueryStats, error) {
	var x exec
	x.begin(q)
	defer x.end()
	err := x.checkProjection()
	if err == nil && q.order != nil {
		err = x.column(q.order.col)
	}
	if run, err := x.ready(err); !run {
		return nil, x.st, err
	}
	if q.order != nil {
		ids, err := x.rankedIDs()
		return ids, x.st, err
	}
	// Runs accumulate in a pooled buffer, so the one allocation that
	// scales with the result is the exact-size slice returned.
	buf, _ := getIDScratch()
	defer putIDScratch(buf)
	if err := x.streamIDs(func(_ unit, gids []uint32) bool {
		*buf = append(*buf, gids...)
		return true
	}); err != nil {
		return nil, x.st, err
	}
	return append([]uint32(nil), *buf...), x.st, nil
}

// count tallies one unit: exact candidate runs wholesale via the
// deleted-bitmap popcount (the count fast path), inexact runs — a
// buffered unit's always is — one popcount per surviving block mask.
//
//imprintvet:locks held=mu.R
func (p *part) count(u unit) segOut {
	var o segOut
	q := &p.q
	ev := p.eval(u, &o.st)
	limit := uint64(q.limit)
	q.t.walkBlocks(ev, &o.st,
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
// selection-mask kernel call and one popcount each, buffered rows
// included. Units are counted in parallel and the tallies summed in
// unit order; allocations per execution are a small constant,
// independent of segments and rows.
func (q *Query) Count() (uint64, core.QueryStats, error) {
	var x exec
	x.begin(q)
	defer x.end()
	if run, err := x.ready(x.checkProjection()); !run {
		return 0, x.st, err
	}
	limit := uint64(q.limit)
	var n uint64
	if err := x.forEachUnit(
		func(u unit) segOut { return x.parts[u.c].count(u) },
		func(_ unit, o segOut) bool {
			n += o.count
			return !q.limited || n < limit
		}); err != nil {
		return 0, x.st, err
	}
	if q.limited && n > limit {
		n = limit
	}
	return n, x.st, nil
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
// The table's read lock (every shard's, on a sharded table) is held for
// the duration of the iteration, and sync.RWMutex is not reentrant:
// calling any write method (Update, Delete, Batch.Commit, Compact,
// Maintain, AddColumn, ...) from inside the loop body deadlocks, and
// nested reads can too once a writer is queued. To mutate matching rows, materialize the ids first (IDs) and
// write after the loop. Plan errors (unknown column, type-mismatched
// bound) yield nothing and are reported by Err.
func (q *Query) Batches() iter.Seq[*RowBatch] {
	return func(yield func(*RowBatch) bool) {
		var x exec
		x.begin(q)
		defer x.end()
		names, err := x.projection()
		if err == nil && q.order != nil {
			err = x.column(q.order.col)
		}
		var run bool
		if run, q.err = x.ready(err); !run {
			return
		}
		// The watermarks bind captured serve both the gather (ids at or
		// past a part's base live in its buffer, not in segments) and the
		// units that produce those ids.
		g := q.newGatherer(names, x.parts, yield)
		defer g.finish()
		if q.order != nil {
			var ids []uint32
			if ids, q.err = x.rankedIDs(); q.err == nil {
				g.add(ids)
			}
			return
		}
		q.err = x.streamIDs(func(_ unit, gids []uint32) bool { return g.add(gids) })
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
