package table

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ctxErr reports a context's cancellation state, tolerating the nil
// context of an unbounded execution.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// abortErr wraps a cancellation so executors report which table's query
// was cut short while errors.Is still matches context.Canceled /
// context.DeadlineExceeded.
func (t *Table) abortErr(err error) error {
	return fmt.Errorf("table %s: query canceled: %w", t.name, err)
}

// resolveParallelism turns SelectOptions.Parallelism into the worker
// count for nsegs segments: 0 means GOMAXPROCS, and there is never a
// point in more workers than segments.
func resolveParallelism(opts SelectOptions, nsegs int) int {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	return max(1, min(par, nsegs))
}

// segOut is what one segment worker hands back to the merging consumer.
type segOut struct {
	st      core.QueryStats
	ids     *[]uint32 // materialized global ids (IDs/Rows); pooled, consumer returns it
	count   uint64    // qualifying rows (Count, Aggregate)
	fast    uint64    // live rows of exact root runs (Explain's count fast path)
	vect    uint64    // blocks of inexact root runs (Explain's vectorized preview)
	plan    *PlanNode
	aggPlan AggSegmentPlan // aggregate pushdown tiers (ExplainAggregate)
	aggs    []aggPartial   // per-spec partials (Aggregate)
	groups  []groupOut     // per-group partials (GroupBy)
	ord     orderPartial   // bounded-heap partial (OrderBy)
}

// forEachSegment evaluates segments 0..nsegs-1 with work, fanning them
// across par workers, and feeds the results to consume in ascending
// segment order (so query results are deterministic regardless of
// parallelism). consume returning false cancels the segments no worker
// has started yet — the early-exit behind Limit — while in-flight
// segments drain before the call returns (workers touch table state
// that is only guarded while the caller holds its read locks). It reads
// no table state itself: the execution frame maps segment numbers to
// (part, local segment) units.
//
// ctx (nil for unbounded executions) cancels the fan-out between
// segments: serial executions check it before each segment, parallel
// workers before claiming the next one, and the merging consumer before
// each merge — a canceled query returns the context's error promptly
// without evaluating segments no worker has started, discarding any
// partial results. The error comes back unwrapped; executors wrap it
// with abortErr.
//
// With one worker (or one segment) everything runs inline on the
// calling goroutine, with a plain early break.
//
// lagged makes work read the merge: the work of segment s starts only
// once segment s-par has been consumed, so whatever state consume
// published through s-par is settled when work(s) reads it — a pure
// function of the segments before it, never of worker timing. Inline
// executions satisfy this by construction (consume(s-1) precedes
// work(s)).
func forEachSegment(ctx context.Context, nsegs, par int, lagged bool, work func(s int) segOut, consume func(s int, o segOut) bool) error {
	if nsegs == 0 {
		return nil
	}
	if par <= 1 || nsegs == 1 {
		for s := 0; s < nsegs; s++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if !consume(s, work(s)) {
				return nil
			}
		}
		return nil
	}

	outs := make([]segOut, nsegs)
	done := make([]chan struct{}, nsegs)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// merged[s] closes once segment s is consumed (lagged only); quit
	// releases the workers still waiting when the consumer stops early.
	var merged []chan struct{}
	var quit chan struct{}
	if lagged {
		merged = make([]chan struct{}, nsegs)
		for i := range merged {
			merged[i] = make(chan struct{})
		}
		quit = make(chan struct{})
	}
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s := int(next.Add(1)) - 1
				if s >= nsegs {
					return
				}
				if lagged && s >= par {
					select {
					case <-merged[s-par]:
					case <-quit:
					}
				}
				if !stop.Load() && ctxErr(ctx) == nil {
					outs[s] = work(s)
				}
				close(done[s])
			}
		}()
	}
	// Deferred so a panic in consume (e.g. a Rows() yield panicking)
	// still stops and drains the workers before the caller's unwind
	// releases the table read lock — otherwise in-flight workers would
	// race whatever writer runs next. Completed-but-unconsumed segments
	// also get their pooled id buffers recycled here.
	consumed := 0
	defer func() {
		stop.Store(true)
		if lagged {
			close(quit)
		}
		wg.Wait()
		for s := consumed; s < nsegs; s++ {
			putIDScratch(outs[s].ids)
		}
	}()
	for s := 0; s < nsegs; s++ {
		<-done[s]
		// Checked before taking ownership of outs[s], so the deferred
		// cleanup recycles the pooled buffers of every unconsumed segment.
		if err := ctxErr(ctx); err != nil {
			return err
		}
		consumed = s + 1
		if !consume(s, outs[s]) {
			return nil
		}
		if lagged {
			close(merged[s])
		}
	}
	return nil
}

// idScratchPool recycles the per-segment candidate-id buffers the
// evaluator materializes into, so steady-state queries stop growing a
// fresh []uint32 per segment per query. Buffers are returned by the
// merging consumer once their ids are copied out (or yielded).
var idScratchPool = sync.Pool{New: func() any { return new([]uint32) }}

// getIDScratch fetches a pooled id buffer, reporting whether it brought
// usable capacity from a previous query (surfaced as
// QueryStats.ScratchReused). The same *[]uint32 must be handed back to
// putIDScratch so Get and Put exchange one pointer, never re-boxing.
func getIDScratch() (*[]uint32, bool) {
	buf := idScratchPool.Get().(*[]uint32)
	*buf = (*buf)[:0]
	return buf, cap(*buf) > 0
}

func putIDScratch(buf *[]uint32) {
	if buf != nil {
		idScratchPool.Put(buf)
	}
}

// runScratchPool recycles candidate-run buffers: the per-segment run
// lists index probes produce and predicate composition merges into.
// Together with the pooled id buffers and the per-segment kernel caches
// it makes a steady-state vectorized Count/IDs execution allocation-
// free (pinned by TestVectorizedAllocs).
var runScratchPool = sync.Pool{New: func() any { return new([]core.CandidateRun) }}

func getRunScratch() *[]core.CandidateRun {
	buf := runScratchPool.Get().(*[]core.CandidateRun)
	*buf = (*buf)[:0]
	return buf
}

func putRunScratch(buf *[]core.CandidateRun) {
	if buf != nil {
		runScratchPool.Put(buf)
	}
}

// laneScratchPool recycles candidate-lane bitmaps: the per-cacheline
// hits of imprint probes and the row bitmaps composed from them.
var laneScratchPool = sync.Pool{New: func() any { return new([]uint64) }}

// getLaneScratch returns a pooled bitmap of n words, its contents stale.
func getLaneScratch(n int) *[]uint64 {
	buf := laneScratchPool.Get().(*[]uint64)
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

func putLaneScratch(buf *[]uint64) {
	if buf != nil {
		laneScratchPool.Put(buf)
	}
}

// spanAction tells walkBlocks how to continue after a run was offered
// wholesale.
type spanAction int

const (
	spanPerBlock spanAction = iota // walk the run block by block
	spanDone                       // the run was fully handled wholesale
	spanStop                       // stop the walk
)

// blockOnes returns the all-lanes-set mask of an n-row block, n in
// [1, BlockRows].
func blockOnes(n int) uint64 { return ^uint64(0) >> (64 - uint(n)) }

// liveMask64 returns the live-lane mask of the n-row block starting at
// global row b (64-aligned): bit i set iff row b+i is not deleted,
// lanes >= n zero. One word load folds 64 rows of delete state.
// Callers hold the read lock.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (t *Table) liveMask64(b, n int) uint64 {
	if t.deleted == nil || t.ndel == 0 {
		return blockOnes(n)
	}
	// The bitmap covers every sealed row; buffered rows may sit past its
	// tail (no delete grew it that far) and are live there.
	if have := t.deleted.Len() - b; have < n {
		if have <= 0 {
			return blockOnes(n)
		}
		return t.deleted.LiveMask64(b, have) | blockOnes(n)&^blockOnes(have)
	}
	return t.deleted.LiveMask64(b, n)
}

// walkBlocks is the single definition of the candidate-run walk every
// executor shares. Each run is first offered wholesale to span (global
// [from, to) bounds clamped to the segment, plus its exactness); a
// spanPerBlock reply walks the run BlockRows rows at a time, handing
// block (the consumer) the block's global base row and its 64-lane
// selection mask: deleted lanes are cleared with one word-AND against
// the deleted bitmap, and inexact runs additionally evaluate the
// residual predicate over the block through the evaluation's
// selection-mask kernel (counted in st.BlocksVectorized). The kernel
// is asked only for the live lanes the evaluation's candidate lanes
// keep — the rows of the cachelines the imprint marks, Algorithm 3's
// residual, not the whole block its run holds — and is skipped when
// none is left. Comparisons counts one comparison per lane the kernel
// is asked for (for one imprint leaf: its scanned cachelines' rows),
// preserving its Figure-11 meaning. block returning false stops the
// walk. Runs start on block boundaries and segments hold whole blocks,
// so every mask is 64-row aligned; only a segment's ragged tail yields
// a shorter block.
//
// The same walk evaluates buffered rows (ev.buffered: one inexact run
// over a stretch of the part's delta vectors, evalDelta): the rows may
// start inside a block — the lanes below ev.lo are cleared — and the
// evaluated live lanes count into st.DeltaRowsScanned instead of
// Comparisons and BlocksVectorized.
// Callers hold the read lock.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (t *Table) walkBlocks(ev evaluated, st *core.QueryStats, span func(from, to int, exact bool) spanAction, block func(base int, mask uint64) bool) {
	base := ev.origin
	deletes := t.deleted != nil && t.ndel > 0
	for _, r := range ev.runs {
		from := max(base+int(r.Start)*BlockRows, base+ev.lo)
		to := min(base+(int(r.Start)+int(r.Count))*BlockRows, base+ev.hi)
		if span != nil {
			switch span(from, to, r.Exact) {
			case spanDone:
				continue
			case spanStop:
				return
			}
		}
		if block == nil {
			continue
		}
		residual := !r.Exact && ev.kern != nil
		for b := from &^ (BlockRows - 1); b < to; b += BlockRows {
			n := min(BlockRows, to-b)
			m := blockOnes(n)
			if deletes {
				m = t.liveMask64(b, n)
			}
			if b < from {
				m &^= blockOnes(from - b)
			}
			if ev.buffered {
				st.DeltaRowsScanned += uint64(bits.OnesCount64(m))
				if ev.kern != nil {
					m &= ev.kern(b-base, b-base+n, m)
				}
			} else if residual {
				m &= ev.lanes.block((b - base) / BlockRows)
				st.Comparisons += uint64(bits.OnesCount64(m))
				st.BlocksVectorized++
				if m != 0 {
					m &= ev.kern(b-base, b-base+n, m)
				}
			}
			if m != 0 && !block(b, m) {
				return
			}
		}
	}
}

// deletedInSpan popcounts the deleted bitmap over [from, to); callers
// hold the read lock.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (t *Table) deletedInSpan(from, to int) int {
	if t.deleted == nil || t.ndel == 0 {
		return 0
	}
	return t.deleted.CountRange(from, to)
}

// liveRows is the single definition of the Count fast path's wholesale
// tally for one row span: the span minus a popcount over the deleted
// bitmap, no per-row work. Count applies it to exact runs and Explain
// previews it (fastCountRows); callers hold the read lock.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (t *Table) liveRows(from, to int) int {
	return to - from - t.deletedInSpan(from, to)
}

// fastCountSegment previews the Count fast path's coverage across one
// segment's run list: the live rows of its exact runs. Callers hold the
// read lock.
//
//imprintvet:locks held=mu.R
//imprintvet:hotpath
func (t *Table) fastCountSegment(s int, runs []core.CandidateRun) uint64 {
	base := s * t.segRows
	end := base + t.segLen(s)
	var n uint64
	for _, r := range runs {
		if !r.Exact {
			continue
		}
		from := base + int(r.Start)*BlockRows
		to := base + (int(r.Start)+int(r.Count))*BlockRows
		if to > end {
			to = end
		}
		n += uint64(t.liveRows(from, to))
	}
	return n
}

// vectorizedBlocksSegment previews the vectorized residual tier across
// one segment's run list: the 64-row blocks of its inexact runs, which
// an execution would evaluate through selection-mask kernels (and count
// in QueryStats.BlocksVectorized). Callers hold the read lock.
func (t *Table) vectorizedBlocksSegment(s int, runs []core.CandidateRun) uint64 {
	end := t.segLen(s)
	var n uint64
	for _, r := range runs {
		if r.Exact {
			continue
		}
		from := int(r.Start) * BlockRows
		to := from + int(r.Count)*BlockRows
		if to > end {
			to = end
		}
		n += uint64((to - from + BlockRows - 1) / BlockRows)
	}
	return n
}
