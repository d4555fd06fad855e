package table

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// Sharded aggregation, grouping and explain (see shardexec.go for the
// execution frame). Aggregate partials merge in ascending
// global-segment order and each shard's delta partial folds once
// afterwards in shard order, so results are deterministic at every
// parallelism level and — on densely-filled tables — identical to the
// unsharded layout.

// shardResolveAggs validates the specs against every shard (the
// schemas are identical, so per-shard binds differ only in their
// column handles).
func (q *Query) shardResolveAggs(specs []AggSpec) ([][]aggBind, error) {
	sh := q.t.shard
	kbinds := make([][]aggBind, sh.nshards)
	for c, kid := range sh.kids {
		binds, err := kid.resolveAggs(specs)
		if err != nil {
			return nil, err
		}
		kbinds[c] = binds
	}
	return kbinds, nil
}

// shardAggregate is Aggregate over a sharded table.
func (q *Query) shardAggregate(specs []AggSpec) (*AggResult, core.QueryStats, error) {
	q.t.mu.RLock()
	defer q.t.mu.RUnlock()
	q.t.shardRLock()
	defer q.t.shardRUnlock()
	var st core.QueryStats
	if q.order != nil {
		return nil, st, fmt.Errorf("table %s: OrderBy does not apply to Aggregate (aggregates are order-independent)", q.t.name)
	}
	kbinds, err := q.shardResolveAggs(specs)
	if err != nil {
		return nil, st, err
	}
	if err := q.shardCheckProjection(); err != nil {
		return nil, st, err
	}
	binds := kbinds[0]
	res := &AggResult{vals: make([]AggValue, len(binds))}
	merged := make([]aggPartial, len(binds))
	finish := func() *AggResult {
		for i, b := range binds {
			res.vals[i] = merged[i].value(b.spec)
		}
		return res
	}
	if q.limited && q.limit == 0 {
		return finish(), st, nil
	}
	se, err := q.shardBind()
	if err != nil {
		return nil, st, err
	}
	if q.limited {
		return q.shardLimitedAggregate(se, kbinds, merged, finish, &st)
	}
	if err := se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			return se.kids[u.c].aggSegment(se.ens[u.c], u.lseg, kbinds[u.c])
		},
		func(i int, o segOut) bool {
			st.Add(o.st)
			res.Rows += o.count
			for i := range merged {
				merged[i].mergeInto(binds[i].spec.op, o.aggs[i])
			}
			return true
		}); err != nil {
		return nil, st, q.t.abortErr(err)
	}
	for c := range se.views {
		res.Rows += se.kids[c].deltaAggFold(se.views[c], se.ens[c], kbinds[c], merged, res.Rows, &st)
	}
	return finish(), st, nil
}

// deltaEnt is one qualifying buffered delta row addressed by its
// global id, for merges that must interleave delta rows with sealed
// rows in id order.
type deltaEnt struct {
	gid uint32
	c   int
	row []any
}

// deltaEntries collects the qualifying delta rows of every shard,
// ascending by global id.
//
//imprintvet:locks held=kid.R
func (se *shardExec) deltaEntries(st *core.QueryStats) []deltaEnt {
	var out []deltaEnt
	for c, view := range se.views {
		if view == nil {
			continue
		}
		match := view.matcher(se.ens[c])
		view.scan(match, st, func(id int, row []any) bool {
			out = append(out, deltaEnt{gid: uint32(se.sh.gidOf(c, id)), c: c, row: row})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gid < out[j].gid })
	return out
}

// shardLimitedAggregate folds the first q.limit qualifying rows in
// ascending global-id order: sealed ids stream unit by unit with each
// pending delta row folded before the first sealed id that exceeds it
// (sharded delta ids interleave with sealed ids, unlike the unsharded
// append-only tail).
//
//imprintvet:locks held=mu.R,kid.R
func (q *Query) shardLimitedAggregate(se *shardExec, kbinds [][]aggBind, merged []aggPartial, finish func() *AggResult, st *core.QueryStats) (*AggResult, core.QueryStats, error) {
	binds := kbinds[0]
	dents := se.deltaEntries(st)
	dcis := make([][]int, len(se.views))
	for c, view := range se.views {
		if view == nil {
			continue
		}
		dcis[c] = make([]int, len(binds))
		for i, b := range binds {
			if b.col != nil {
				dcis[c][i] = view.colIdx(b.spec.col)
			}
		}
	}
	var dAccs []deltaAgg
	var drows uint64
	foldDelta := func(e deltaEnt) {
		if dAccs == nil {
			dAccs = make([]deltaAgg, len(binds))
			for i, b := range binds {
				if b.col != nil {
					dAccs[i] = b.col.deltaAgg(b.spec.op)
				}
			}
		}
		for i, acc := range dAccs {
			if acc != nil {
				acc.add(e.row[dcis[e.c][i]])
			}
		}
		drows++
	}
	taken := 0
	var rows uint64
	di := 0
	err := se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			return se.kids[u.c].collectIDs(se.ens[u.c], u.lseg)
		},
		func(ui int, o segOut) bool {
			u := se.units[ui]
			st.Add(o.st)
			defer putIDScratch(o.ids)
			shift := se.gidShift(u)
			base := uint32(u.lseg * q.t.segRows)
			var accs []segAgg
			var segTaken uint64
			for _, id := range *o.ids {
				gid := id + shift
				for di < len(dents) && dents[di].gid < gid && taken < q.limit {
					foldDelta(dents[di])
					di++
					taken++
					rows++
				}
				if taken >= q.limit {
					break
				}
				if segTaken == 0 {
					accs = segAccs(kbinds[u.c], u.lseg)
				}
				for _, acc := range accs {
					acc.addRow(id - base)
				}
				segTaken++
				taken++
				rows++
			}
			if segTaken > 0 {
				mergeAccs(merged, binds, accs, segTaken)
			}
			return taken < q.limit
		})
	if err != nil {
		return nil, *st, q.t.abortErr(err)
	}
	for ; di < len(dents) && taken < q.limit; di++ {
		foldDelta(dents[di])
		taken++
		rows++
	}
	if drows > 0 {
		for i := range merged {
			if dAccs[i] != nil {
				merged[i].mergeInto(binds[i].spec.op, dAccs[i].partial())
			} else {
				merged[i].mergeInto(binds[i].spec.op, aggPartial{rows: drows})
			}
		}
	}
	res := finish()
	res.Rows = rows
	return res, *st, nil
}

// shardAggregate is GroupBy.Aggregate over a sharded table: the same
// per-segment grouping worker per unit, group partials merged in
// global-segment order, each shard's delta groups folded once
// afterwards, final groups sorted by key.
func (g *GroupedQuery) shardAggregate(specs []AggSpec) (*GroupedResult, core.QueryStats, error) {
	q := g.q
	t := q.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.shardRLock()
	defer t.shardRUnlock()
	var st core.QueryStats
	if q.order != nil {
		return nil, st, fmt.Errorf("table %s: OrderBy does not apply to GroupBy aggregation", t.name)
	}
	if q.limited && q.limit > 0 {
		return nil, st, fmt.Errorf("table %s: Limit does not apply to GroupBy aggregation (drop the limit or use Limit(0))", t.name)
	}
	sh := t.shard
	kbinds, err := q.shardResolveAggs(specs)
	if err != nil {
		return nil, st, err
	}
	if err := q.shardCheckProjection(); err != nil {
		return nil, st, err
	}
	keyCols := make([]anyColumn, sh.nshards)
	for c, kid := range sh.kids {
		keyCol, ok := kid.cols[g.key]
		if !ok {
			return nil, st, fmt.Errorf("table %s: no column %q", t.name, g.key)
		}
		if err := keyCol.groupCheck(); err != nil {
			return nil, st, fmt.Errorf("table %s: %w", t.name, err)
		}
		keyCols[c] = keyCol
	}
	if q.limited && q.limit == 0 {
		return &GroupedResult{Key: g.key}, st, nil
	}
	se, err := q.shardBind()
	if err != nil {
		return nil, st, err
	}
	kgs := make([]*GroupedQuery, sh.nshards)
	for c := range sh.kids {
		kgs[c] = &GroupedQuery{q: se.kids[c], key: g.key}
	}
	merge := groupMerge{binds: kbinds[0], groups: map[groupKey]*mergedGroup{}}
	if err := se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			return kgs[u.c].groupSegment(se.ens[u.c], u.lseg, kbinds[u.c], keyCols[u.c])
		},
		func(i int, o segOut) bool {
			st.Add(o.st)
			merge.addSegment(o.groups)
			return true
		}); err != nil {
		return nil, st, t.abortErr(err)
	}
	for c, view := range se.views {
		merge.addDelta(view, se.ens[c], g.key, keyCols[c], kbinds[c], &st)
	}
	return merge.result(g.key), st, nil
}

// shardExplain builds the plan of a sharded execution: every (shard,
// local segment) unit is evaluated like a real execution and the
// per-unit plans merge into one tree with per-unit breakdowns labeled
// by global segment. withAggs distinguishes ExplainAggregate (which
// validates its specs like Aggregate) from plain Explain.
func (q *Query) shardExplain(specs []AggSpec, withAggs bool) (*Plan, error) {
	t := q.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.shardRLock()
	defer t.shardRUnlock()
	sh := t.shard
	var kbinds [][]aggBind
	if withAggs {
		if q.order != nil {
			return nil, fmt.Errorf("table %s: OrderBy does not apply to Aggregate (aggregates are order-independent)", t.name)
		}
		var err error
		if kbinds, err = q.shardResolveAggs(specs); err != nil {
			return nil, err
		}
	}
	names := append([]string(nil), q.cols...)
	if len(names) == 0 {
		names = append(names, t.order...)
	}
	for _, name := range names {
		if _, ok := sh.kids[0].cols[name]; !ok {
			return nil, fmt.Errorf("table %s: no column %q", t.name, name)
		}
	}
	se, err := q.shardBind()
	if err != nil {
		return nil, err
	}
	var st core.QueryStats
	nunits := len(se.units)
	par := resolveParallelism(q.opts, nunits)
	segPlans := make([]*PlanNode, nunits)
	infos := make([]planSegInfo, nunits)
	aggSegs := make([]AggSegmentPlan, nunits)
	var fast, vect uint64
	pruned := 0
	ferr := se.forEachUnit(q,
		func(i int) segOut {
			u := se.units[i]
			kid := sh.kids[u.c]
			var o segOut
			ev := kid.evalSegment(se.ens[u.c], u.lseg, q.opts, &o.st, true)
			o.plan = ev.plan
			o.fast = kid.fastCountSegment(u.lseg, ev.runs)
			if !q.opts.Scalar {
				o.vect = kid.vectorizedBlocksSegment(u.lseg, ev.runs)
			}
			if kbinds != nil && !q.limited {
				ap := kid.aggSegmentPlan(u.lseg, ev, kbinds[u.c])
				ap.Segment = u.gseg
				aggSegs[i] = ap
			}
			releaseEval(&ev)
			return o
		},
		func(i int, o segOut) bool {
			u := se.units[i]
			st.Add(o.st)
			segPlans[i] = o.plan
			infos[i] = planSegInfo{seg: u.gseg, rows: sh.kids[u.c].segLen(u.lseg)}
			fast += o.fast
			vect += o.vect
			if o.plan.CandidateBlocks == 0 {
				pruned++
			}
			return true
		})
	if ferr != nil {
		return nil, t.abortErr(ferr)
	}
	lim := -1
	if q.limited {
		lim = q.limit
	}
	sealed := 0
	for _, kid := range sh.kids {
		sealed += kid.rows
	}
	deltaRows := 0
	for c, view := range se.views {
		if view == nil {
			continue
		}
		deltaRows += len(view.rows)
		view.scan(view.matcher(se.ens[c]), &st, func(int, []any) bool { return true })
	}
	p := &Plan{
		Table:            t.name,
		Columns:          names,
		Limit:            lim,
		TotalRows:        sealed + deltaRows,
		TotalBlocks:      (sealed + BlockRows - 1) / BlockRows,
		DeltaRows:        deltaRows,
		SegmentRows:      t.segRows,
		Segments:         nunits,
		Parallelism:      par,
		SegmentsPruned:   pruned,
		Root:             aggregatePlans(segPlans, infos),
		Stats:            st,
		FastCountRows:    fast,
		BlocksVectorized: vect,
	}
	if q.order != nil {
		p.OrderBy = q.order.String()
	}
	if kbinds != nil {
		for _, b := range kbinds[0] {
			p.Aggregates = append(p.Aggregates, b.spec.String())
		}
		if !q.limited {
			p.AggSegments = aggSegs
		}
	}
	return p, nil
}
