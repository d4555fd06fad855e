package table

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Sharded query execution (see shard.go for the storage layout): an
// executor on a sharded table read-locks the parent (schema) and every
// child shard in ascending order, binds the predicate once per shard,
// captures each shard's delta watermark exactly once, and fans out
// shard-first over (shard, local segment) units in ascending
// global-segment order on the same bounded worker pool unsharded
// executions use. The per-unit work is the unchanged single-shard
// machinery — vectorized block walk, per-segment pruning, bounded
// top-k heaps — with row ids shifted from the child's local id space
// to the global round-robin id space. The merge consumes units in
// global-segment order and folds each shard's delta partials
// afterwards in shard order, so Count/IDs/Rows/Aggregate/GroupBy/
// OrderBy/Explain are deterministic at every parallelism level and,
// on densely-filled tables, byte-identical to the unsharded layout.

// shardUnit is one (shard, local segment) work item of a sharded
// fan-out; units are processed in ascending global-segment order.
type shardUnit struct {
	c    int // owning shard
	lseg int // shard-local segment index
	gseg int // global segment: lseg*nshards + c
}

// shardExec is one execution's bound state across the shards: a query
// clone and execution tree per shard, the delta watermark captured
// exactly once per shard (every merge path must observe one capture),
// and the ascending unit list. Valid only while the caller holds the
// parent read lock and every shard's read lock.
type shardExec struct {
	sh    *shardState
	kids  []*Query
	ens   []*execNode
	views []*deltaView
	units []shardUnit
}

// shardBind resolves one execution against every shard: per-shard
// query clones (prepared executions pick up the statement's per-shard
// compilation), bound execution trees, delta watermarks, and the unit
// list. Callers hold the parent read lock and every shard's read lock.
//
//imprintvet:locks held=mu.R,kid.R
func (q *Query) shardBind() (*shardExec, error) {
	sh := q.t.shard
	se := &shardExec{
		sh:    sh,
		kids:  make([]*Query, sh.nshards),
		ens:   make([]*execNode, sh.nshards),
		views: make([]*deltaView, sh.nshards),
	}
	for c, kid := range sh.kids {
		kq := &Query{
			t: kid, cols: q.cols, pred: q.pred, binds: q.binds,
			bindErr: q.bindErr, limit: q.limit, limited: q.limited,
			order: q.order, opts: q.opts,
		}
		if q.prep != nil {
			kq.prep = q.prep.kids[c]
		}
		en, err := kq.bind()
		if err != nil {
			return nil, err
		}
		se.kids[c] = kq
		se.ens[c] = en
		se.views[c] = kid.deltaViewLocked()
		for lseg := 0; lseg < kid.segCount(); lseg++ {
			se.units = append(se.units, shardUnit{c: c, lseg: lseg, gseg: lseg*sh.nshards + c})
		}
	}
	sort.Slice(se.units, func(i, j int) bool { return se.units[i].gseg < se.units[j].gseg })
	return se, nil
}

// forEachUnit fans the units across the bounded worker pool (the
// exact forEachSegment machinery — it touches no table state) and
// consumes them in ascending global-segment order.
func (se *shardExec) forEachUnit(q *Query, work func(i int) segOut, consume func(i int, o segOut) bool) error {
	n := len(se.units)
	return q.t.forEachSegment(q.opts.Ctx, n, resolveParallelism(q.opts, n), work, consume)
}

// gidShift is the offset that rebases unit u's kid-global row ids
// (local segment lseg) into the parent's global id space (segment
// gseg).
func (se *shardExec) gidShift(u shardUnit) uint32 {
	return uint32((u.gseg - u.lseg) * se.sh.segRows)
}

// collectGids is the unit worker behind IDs and Batches: unit i's
// qualifying ids, rebased to the global id space.
//
//imprintvet:locks held=kid.R
func (se *shardExec) collectGids(i int) segOut {
	u := se.units[i]
	o := se.kids[u.c].collectIDs(se.ens[u.c], u.lseg)
	if shift := se.gidShift(u); shift != 0 {
		ids := *o.ids
		for k := range ids {
			ids[k] += shift
		}
	}
	return o
}

// shardCheckProjection validates the projected names against the
// shards' shared schema; callers hold shard 0's read lock.
func (q *Query) shardCheckProjection() error {
	kid := q.t.shard.kids[0]
	for _, name := range q.cols {
		if _, ok := kid.cols[name]; !ok {
			return fmt.Errorf("table %s: no column %q", q.t.name, name)
		}
	}
	return nil
}

// deltaGids collects the qualifying buffered delta rows of every shard
// as ascending global ids. Unlike the unsharded layout — where delta
// ids all follow sealed ids — one shard's delta rows can precede
// another shard's sealed segments in the global id space, so sharded
// merges interleave delta ids rather than appending them.
//
//imprintvet:locks held=kid.R
func (se *shardExec) deltaGids(st *core.QueryStats) []uint32 {
	var out []uint32
	for c, view := range se.views {
		if view == nil {
			continue
		}
		match := view.matcher(se.ens[c])
		view.scan(match, st, func(id int, _ []any) bool {
			out = append(out, uint32(se.sh.gidOf(c, id)))
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// mergeDeltaIDs merges the shards' qualifying delta ids into the
// sealed result ids (both ascending) and applies the limit. Sealed
// ids dropped by an early limit stop all exceed every kept id, so
// merge-then-truncate returns exactly the first Limit qualifying ids.
//
//imprintvet:locks held=kid.R
func (se *shardExec) mergeDeltaIDs(q *Query, res []uint32, st *core.QueryStats) []uint32 {
	dg := se.deltaGids(st)
	switch {
	case len(dg) == 0:
	case len(res) == 0 || dg[0] > res[len(res)-1]:
		res = append(res, dg...)
	default:
		merged := make([]uint32, 0, len(res)+len(dg))
		i, j := 0, 0
		for i < len(res) && j < len(dg) {
			if res[i] <= dg[j] {
				merged = append(merged, res[i])
				i++
			} else {
				merged = append(merged, dg[j])
				j++
			}
		}
		merged = append(merged, res[i:]...)
		merged = append(merged, dg[j:]...)
		res = merged
	}
	if q.limited && len(res) > q.limit {
		res = res[:q.limit]
	}
	return res
}

// shardIDs is IDs over a sharded table: per-unit id collection with
// the ids rebased to the global id space, merged in global-segment
// order, delta ids interleaved by id.
func (q *Query) shardIDs() ([]uint32, core.QueryStats, error) {
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	q.t.shardRLock()
	defer q.t.shardRUnlock()
	var st core.QueryStats
	if err := q.shardCheckProjection(); err != nil {
		return nil, st, err
	}
	if q.order != nil {
		return q.shardOrderedIDs(nil)
	}
	if q.limited && q.limit == 0 {
		return nil, st, nil
	}
	se, err := q.shardBind()
	if err != nil {
		return nil, st, err
	}
	var res []uint32
	err = se.forEachUnit(q,
		se.collectGids,
		func(i int, o segOut) bool {
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
		res = se.mergeDeltaIDs(q, res, &st)
	}
	return res, st, nil
}

// shardCount is Count over a sharded table: per-unit tallies summed in
// global-segment order, each shard's delta rows counted afterwards.
func (q *Query) shardCount() (uint64, core.QueryStats, error) {
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	q.t.shardRLock()
	defer q.t.shardRUnlock()
	var st core.QueryStats
	if err := q.shardCheckProjection(); err != nil {
		return 0, st, err
	}
	if q.limited && q.limit == 0 {
		return 0, st, nil
	}
	se, err := q.shardBind()
	if err != nil {
		return 0, st, err
	}
	limit := uint64(q.limit)
	var n uint64
	err = se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			return se.kids[u.c].countSegment(se.ens[u.c], u.lseg)
		},
		func(i int, o segOut) bool {
			st.Add(o.st)
			n += o.count
			return !q.limited || n < limit
		})
	if err != nil {
		return 0, st, q.t.abortErr(err)
	}
	for c, view := range se.views {
		if q.limited && n >= limit {
			break
		}
		if view == nil {
			continue
		}
		match := view.matcher(se.ens[c])
		view.scan(match, &st, func(int, []any) bool {
			n++
			return !q.limited || n < limit
		})
	}
	if q.limited && n > limit {
		n = limit
	}
	return n, st, nil
}

// shardBatches is the Batches iterator over a sharded table: a
// streaming merge that feeds the gatherer sealed ids in ascending
// global order, interleaving each pending delta id before the first
// sealed id that exceeds it. Rows gather from the owning shard (sealed
// slab or delta buffer), and every shard's read lock is held for the
// duration of the iteration — the reentrancy caveats of Batches apply
// to all shards.
func (q *Query) shardBatches(yield func(*RowBatch) bool) {
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	q.t.shardRLock()
	defer q.t.shardRUnlock()
	q.err = nil
	sh := q.t.shard
	names := append([]string(nil), q.cols...)
	if len(names) == 0 {
		names = append(names, q.t.order...)
	}
	kcols := make([][]anyColumn, sh.nshards)
	for c, kid := range sh.kids {
		kcols[c] = make([]anyColumn, len(names))
		for i, name := range names {
			col, ok := kid.cols[name]
			if !ok {
				q.err = fmt.Errorf("table %s: no column %q", q.t.name, name)
				return
			}
			kcols[c][i] = col
		}
	}
	if q.limited && q.limit == 0 {
		return
	}
	se, err := q.shardBind()
	if err != nil {
		q.err = err
		return
	}
	parts := make([]gatherPart, sh.nshards)
	for c := range parts {
		parts[c] = newGatherPart(names, kcols[c], se.views[c])
	}
	g := q.newGatherer(names, parts, yield)
	defer g.finish()
	if q.order != nil {
		ids, _, err := q.shardOrderedIDs(se)
		if err != nil {
			q.err = err
			return
		}
		g.add(ids)
		return
	}
	var dst core.QueryStats
	dg := se.deltaGids(&dst)
	want := true
	if err := se.forEachUnit(q,
		se.collectGids,
		func(i int, o segOut) bool {
			defer putIDScratch(o.ids)
			for ids := *o.ids; want && len(ids) > 0; {
				// Pending delta ids below the next sealed id go first,
				// then the sealed ids below the next pending delta id.
				n := sort.Search(len(dg), func(k int) bool { return dg[k] >= ids[0] })
				if n > 0 {
					want = g.add(dg[:n])
					dg = dg[n:]
					continue
				}
				n = len(ids)
				if len(dg) > 0 {
					n = sort.Search(len(ids), func(k int) bool { return ids[k] > dg[0] })
				}
				want = g.add(ids[:n])
				ids = ids[n:]
			}
			return want
		}); err != nil {
		q.err = q.t.abortErr(err)
		return
	}
	if want {
		g.add(dg)
	}
}

// shardOrderedIDs executes an OrderBy query over a sharded table:
// per-unit bounded heaps pushing global ids, one exact delta partial
// per shard, all ranked by the typed merge. Callers hold the parent
// and every shard's read lock; se may be nil (bound here after the
// ordering column is validated, preserving error precedence).
//
//imprintvet:locks held=mu.R,kid.R
func (q *Query) shardOrderedIDs(se *shardExec) ([]uint32, core.QueryStats, error) {
	var st core.QueryStats
	sh := q.t.shard
	cols := make([]anyColumn, sh.nshards)
	for c, kid := range sh.kids {
		col, ok := kid.cols[q.order.col]
		if !ok {
			return nil, st, fmt.Errorf("table %s: no column %q", q.t.name, q.order.col)
		}
		cols[c] = col
	}
	if q.limited && q.limit == 0 {
		return nil, st, nil
	}
	if se == nil {
		var err error
		if se, err = q.shardBind(); err != nil {
			return nil, st, err
		}
	}
	k := 0
	if q.limited {
		k = q.limit
	}
	desc := q.order.desc
	parts := make([]orderPartial, len(se.units))
	err := se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			acc := cols[u.c].topkAcc(u.lseg, uint32(u.gseg*q.t.segRows), desc, k)
			return sh.kids[u.c].topkSegment(se.ens[u.c], u.lseg, q.opts, acc)
		},
		func(i int, o segOut) bool {
			st.Add(o.st)
			parts[i] = o.ord
			return true
		})
	if err != nil {
		return nil, st, q.t.abortErr(err)
	}
	for c, view := range se.views {
		if view == nil {
			continue
		}
		oci := view.colIdx(q.order.col)
		match := view.matcher(se.ens[c])
		var vals []any
		var ids []uint32
		view.scan(match, &st, func(id int, row []any) bool {
			vals = append(vals, row[oci])
			ids = append(ids, uint32(sh.gidOf(c, id)))
			return true
		})
		if p := cols[c].deltaOrd(vals, ids); p != nil {
			parts = append(parts, p)
		}
	}
	return cols[0].topkMerge(parts, desc, k), st, nil
}
