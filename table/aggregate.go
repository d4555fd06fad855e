package table

import (
	"fmt"
	"strings"

	"repro/internal/coltype"
	"repro/internal/core"
)

// Aggregation executes inside the same per-segment workers as every
// other query: each segment folds its qualifying rows into one partial
// per aggregate, and the consumer merges the partials in segment order,
// so results are byte-identical at every parallelism level (float sums
// included — the merge order never changes). The fold is GroupBy's
// (groupby.go) with one group: the oneSlot slotter puts every row in
// slot 0, so one implementation of every operator serves both.
//
// Per segment, each aggregate is answered at the cheapest tier the
// evaluation allows:
//
//   - summary-answered: a segment whose candidate runs are all exact
//     and cover every row, with no pending deletes, answers Min/Max
//     straight from its min/max summary (unless in-place updates have
//     widened it) and CountAll from the row count — the value slab is
//     never touched. Reported in QueryStats.SummaryAggRows.
//   - run-wholesale: exact, delete-free candidate runs fold their value
//     span in one tight loop with no residual predicate check.
//     Reported in QueryStats.WholesaleAggRows.
//   - scanned: everything else — buffered rows always — walks block by
//     block, applying the deleted bitmap and the residual kernel like
//     any other executor, and hands each block's selection mask to the
//     fold, which walks only the surviving lanes (and none at all for
//     count(*) without an integer sum beside it).

// aggOp is one aggregate operator.
type aggOp int

const (
	aggSum aggOp = iota
	aggMin
	aggMax
	aggAvg
	aggCount
)

func (op aggOp) String() string {
	switch op {
	case aggSum:
		return "sum"
	case aggMin:
		return "min"
	case aggMax:
		return "max"
	case aggAvg:
		return "avg"
	case aggCount:
		return "count"
	}
	return "?"
}

// fold is the accumulation an operator needs: avg folds a sum and
// divides when the value is rendered.
func (op aggOp) fold() aggOp {
	if op == aggAvg {
		return aggSum
	}
	return op
}

// AggSpec names one aggregate of a Query.Aggregate (or GroupBy)
// execution, built with Sum, Min, Max, Avg and CountAll.
type AggSpec struct {
	op  aggOp
	col string
}

// Sum totals a numeric column over the qualifying rows. Integer
// columns accumulate exactly in int64 (uint64 values beyond 2^63 wrap);
// float columns accumulate in float64.
func Sum(col string) AggSpec { return AggSpec{op: aggSum, col: col} }

// Min returns the smallest qualifying value of a numeric or string
// column.
func Min(col string) AggSpec { return AggSpec{op: aggMin, col: col} }

// Max returns the largest qualifying value of a numeric or string
// column.
func Max(col string) AggSpec { return AggSpec{op: aggMax, col: col} }

// Avg returns the mean of a numeric column over the qualifying rows,
// as a float64.
func Avg(col string) AggSpec { return AggSpec{op: aggAvg, col: col} }

// CountAll counts the qualifying rows.
func CountAll() AggSpec { return AggSpec{op: aggCount} }

// String renders the spec, e.g. "sum(price)" or "count(*)".
func (a AggSpec) String() string {
	if a.op == aggCount {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.op, a.col)
}

// AggValue is one aggregate's typed result.
type AggValue struct {
	// Op is the operator name: "sum", "min", "max", "avg", "count".
	Op string
	// Column is the aggregated column; empty for count(*).
	Column string
	// Valid reports whether the value is defined: false when no row
	// qualified (min/max/avg are undefined over zero rows, and sum
	// follows the same convention; count is always valid).
	Valid bool
	// Float carries every numeric result as float64 (for integer
	// sums/minima/maxima it is the float64 conversion of Int).
	Float float64
	// Int carries the exact integer result when IsInt: integer-column
	// sum/min/max and count. uint64 values beyond 2^63 wrap.
	Int   int64
	IsInt bool
	// Str carries min/max over a string column when IsStr.
	Str   string
	IsStr bool
}

// String renders the value for logs, e.g. "sum(qty)=180".
func (v AggValue) String() string {
	name := v.Op + "(*)"
	if v.Column != "" {
		name = fmt.Sprintf("%s(%s)", v.Op, v.Column)
	}
	switch {
	case !v.Valid:
		return name + "=∅"
	case v.IsStr:
		return fmt.Sprintf("%s=%q", name, v.Str)
	case v.IsInt:
		return fmt.Sprintf("%s=%d", name, v.Int)
	}
	return fmt.Sprintf("%s=%v", name, v.Float)
}

// AggResult is the result set of one Query.Aggregate execution: one
// AggValue per requested spec, in request order.
type AggResult struct {
	// Rows is the number of qualifying rows the aggregates cover.
	Rows uint64
	vals []AggValue
}

// Len returns the number of aggregates.
func (r *AggResult) Len() int { return len(r.vals) }

// At returns the i-th aggregate's value, in request order.
func (r *AggResult) At(i int) AggValue { return r.vals[i] }

// Values returns all aggregate values in request order (a copy, safe to
// keep).
func (r *AggResult) Values() []AggValue { return append([]AggValue(nil), r.vals...) }

// Float returns the i-th aggregate as float64 (0 when invalid).
func (r *AggResult) Float(i int) float64 { return r.vals[i].Float }

// Int returns the i-th aggregate as int64 (0 when invalid or not
// integer-typed).
func (r *AggResult) Int(i int) int64 { return r.vals[i].Int }

// String renders every aggregate for logs.
func (r *AggResult) String() string {
	parts := make([]string, len(r.vals))
	for i, v := range r.vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, " ")
}

// ---- partial accumulators ----

// partKind tags the value representation an aggPartial carries.
type partKind uint8

const (
	partNone partKind = iota // no value (zero rows, or count-only)
	partInt
	partFloat
	partStr
)

// aggPartial is one aggregate's partial result over one segment,
// merged commutatively by the consumer in segment order.
type aggPartial struct {
	rows uint64
	kind partKind
	i    int64
	f    float64
	s    string
}

// mergeInto folds partial b into a under op. Only the value merge is
// op-dependent; rows always add. Float extrema merge by foldMin/foldMax,
// so the answer does not depend on where unit boundaries fall.
func (a *aggPartial) mergeInto(op aggOp, b aggPartial) {
	a.rows += b.rows
	if b.kind == partNone {
		return
	}
	if a.kind == partNone {
		a.kind, a.i, a.f, a.s = b.kind, b.i, b.f, b.s
		return
	}
	switch op {
	case aggSum, aggAvg:
		a.i += b.i
		a.f += b.f
	case aggMin:
		switch a.kind {
		case partInt:
			a.i = min(a.i, b.i)
		case partFloat:
			a.f = foldMin(a.f, b.f)
		case partStr:
			a.s = min(a.s, b.s)
		}
	case aggMax:
		switch a.kind {
		case partInt:
			a.i = max(a.i, b.i)
		case partFloat:
			a.f = foldMax(a.f, b.f)
		case partStr:
			a.s = max(a.s, b.s)
		}
	}
}

// value renders a merged partial as the spec's final AggValue.
func (p aggPartial) value(spec AggSpec) AggValue {
	v := AggValue{Op: spec.op.String(), Column: spec.col}
	if spec.op == aggCount {
		v.Valid, v.IsInt = true, true
		v.Int = int64(p.rows)
		v.Float = float64(p.rows)
		return v
	}
	if p.rows == 0 {
		return v
	}
	v.Valid = true
	if spec.op == aggAvg {
		sum := p.f
		if p.kind == partInt {
			sum = float64(p.i)
		}
		v.Float = sum / float64(p.rows)
		return v
	}
	switch p.kind {
	case partInt:
		v.IsInt = true
		v.Int = p.i
		v.Float = float64(p.i)
	case partFloat:
		v.Float = p.f
	case partStr:
		v.IsStr = true
		v.Str = p.s
	}
	return v
}

// ---- numeric columns ----

// isIntType reports whether V is an integer type (float columns
// accumulate in float64 instead).
func isIntType[V coltype.Value]() bool {
	var zero V
	switch any(zero).(type) {
	case float32, float64:
		return false
	}
	return true
}

func (c *colState[V]) aggCheck(op aggOp) error { return nil }

// aggSummary answers op over all live rows of segment s purely from the
// segment summary. Only Min/Max are summary-answerable, and only while
// the summary is exact (no in-place update widened it). The caller
// guarantees full coverage and a delete-free segment, and fills in the
// row count.
//
//imprintvet:locks held=mu.R
func (c *colState[V]) aggSummary(op aggOp, s int) (aggPartial, bool) {
	seg := c.segs[s]
	if seg.sumWide || len(seg.vals) == 0 {
		return aggPartial{}, false
	}
	var v V
	switch op {
	case aggMin:
		v = seg.min
	case aggMax:
		v = seg.max
	default:
		return aggPartial{}, false
	}
	if isIntType[V]() {
		return aggPartial{kind: partInt, i: int64(v), f: float64(v)}, true
	}
	return aggPartial{kind: partFloat, f: float64(v)}, true
}

// numPartial renders a numeric accumulator's value over rows > 0 rows:
// integer columns carry the exact int64 (and its float64 conversion),
// float columns the float64.
func numPartial(isInt bool, rows uint64, i int64, f float64) aggPartial {
	if isInt {
		return aggPartial{rows: rows, kind: partInt, i: i, f: float64(i)}
	}
	return aggPartial{rows: rows, kind: partFloat, f: f}
}

// ---- string columns ----

func (c *strColState) aggCheck(op aggOp) error {
	if op == aggSum || op == aggAvg {
		return fmt.Errorf("column %q is string: %s needs a numeric column", c.name, op)
	}
	return nil
}

// aggSummary: a string segment's dictionary can hold symbols no live
// row carries anymore (updates reuse codes, deletes keep theirs), so
// min/max always fold over the code slab — never summary-answered.
//
//imprintvet:locks held=mu.R
func (c *strColState) aggSummary(op aggOp, s int) (aggPartial, bool) {
	return aggPartial{}, false
}

// ---- execution ----

// aggBind is one resolved spec: its column (nil for count(*)) and the
// accumulator that folds it.
type aggBind struct {
	spec AggSpec
	col  anyColumn
	// acc indexes the per-segment accumulator the spec reads; -1 for
	// count(*). Specs that need the same fold — sum and avg of one
	// column (avg divides when the value is rendered), or a repeated
	// spec — share one, numbered in order of first use, so the slab is
	// folded once for all of them.
	acc int
}

// resolveAggs validates the requested specs against the table; callers
// hold the read lock.
func (t *Table) resolveAggs(specs []AggSpec) ([]aggBind, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("table %s: Aggregate needs at least one aggregate (Sum, Min, Max, Avg, CountAll)", t.name)
	}
	binds := make([]aggBind, len(specs))
	naccs := 0
	for i, spec := range specs {
		binds[i] = aggBind{spec: spec, acc: -1}
		if spec.op == aggCount {
			if spec.col != "" {
				return nil, fmt.Errorf("table %s: count(*) takes no column", t.name)
			}
			continue
		}
		c, ok := t.cols[spec.col]
		if !ok {
			return nil, fmt.Errorf("table %s: no column %q", t.name, spec.col)
		}
		if err := c.aggCheck(spec.op); err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		binds[i].col = c
		binds[i].acc = naccs
		for _, b := range binds[:i] {
			if b.col != nil && b.spec.col == spec.col && b.spec.op.fold() == spec.op.fold() {
				binds[i].acc = b.acc
				break
			}
		}
		if binds[i].acc == naccs {
			naccs++
		}
	}
	return binds, nil
}

// runCoverage summarizes one segment's composed run list: whether the
// runs cover every block of the segment and whether all of them are
// exact (runs are disjoint and ascending by construction).
func runCoverage(runs []core.CandidateRun, blocks int) (full, allExact bool) {
	covered := 0
	allExact = true
	for _, r := range runs {
		covered += int(r.Count)
		if !r.Exact {
			allExact = false
		}
	}
	return covered == blocks, allExact
}

// aggSummaryEligible reports whether segment s can be aggregated
// without visiting rows one by one: every candidate run exact and
// covering the whole segment, with no pending deletes. Callers hold
// the read lock.
//
//imprintvet:locks held=mu.R
func (t *Table) aggSummaryEligible(s int, runs []core.CandidateRun) bool {
	n := t.segLen(s)
	full, allExact := runCoverage(runs, (n+BlockRows-1)/BlockRows)
	return full && allExact && t.deletedInSpan(s*t.segRows, s*t.segRows+n) == 0
}

// aggWalk drives one unit's qualifying rows through an aggregate fold:
// exact, delete-free runs are offered wholesale to visitSpan (positions
// in the unit's slab, every row live and qualifying); every other block
// arrives at visitMask as its base position plus the surviving-lane
// selection mask (deleted folded, residual evaluated).
// Callers hold the read lock.
//
//imprintvet:locks held=mu.R
func (t *Table) aggWalk(ev evaluated, st *core.QueryStats, visitSpan func(from, to int), visitMask func(base int, mask uint64)) {
	base := ev.origin
	t.walkBlocks(ev, st,
		func(from, to int, exact bool) spanAction {
			if exact && visitSpan != nil && t.deletedInSpan(from, to) == 0 {
				visitSpan(from-base, to-base)
				return spanDone
			}
			return spanPerBlock
		},
		func(b int, mask uint64) bool {
			visitMask(b-base, mask)
			return true
		})
}

// aggregate is the per-unit aggregate worker: evaluate the predicate,
// then fold each aggregate at the cheapest tier (summary / wholesale /
// scanned) the coverage allows — a buffered unit's one inexact run
// leaves it the scanned tier. A summary-eligible segment answers what
// its summary can and folds the rest as one span; any other walks its
// runs. Either way the fold is the one-slot groupFold.
//
//imprintvet:locks held=mu.R
func (p *part) aggregate(u unit) segOut {
	var o segOut
	t, s, binds := p.t, u.lseg, p.aggs
	ev := p.eval(u, &o.st)
	if len(ev.runs) == 0 { // pruned: no rows, so no partials to merge
		releaseEval(&ev)
		return o
	}
	o.aggs = make([]aggPartial, len(binds))
	summary := !u.buf && t.aggSummaryEligible(s, ev.runs)
	r := p.ref(u)
	// The fold holds an accumulator only where the summary cannot answer;
	// folds counts the requested aggregates it answers, shared or not.
	f := groupFold{slots: oneSlot{}}
	var folds uint64
	for i, b := range binds {
		if b.col == nil {
			continue // count(*): the row count, no slab touched
		}
		if summary {
			if sp, ok := b.col.aggSummary(b.spec.op, s); ok {
				sp.rows = uint64(t.segLen(s))
				o.aggs[i] = sp
				continue
			}
		}
		f.add(b, r)
		folds++
	}
	if summary {
		f.span(0, t.segLen(s))
	} else {
		t.aggWalk(ev, &o.st, f.span, f.mask)
	}
	// Rows of whole spans count once per requested aggregate: at the
	// summary tier where no value is folded, else at the wholesale tier.
	o.st.SummaryAggRows += f.whole * (uint64(len(binds)) - folds)
	o.st.WholesaleAggRows += f.whole * folds
	if o.count = f.total; o.count > 0 {
		f.parts(binds, 0, o.count, o.aggs)
	}
	releaseEval(&ev)
	return o
}

// Aggregate executes the query as a set of aggregates over the
// qualifying rows, computed inside the per-segment workers and merged
// in segment order — results are identical at every parallelism level.
// Fully-selected segments push down: Min/Max answer from the segment
// min/max summary and count(*) from the row count without touching the
// value slab (QueryStats.SummaryAggRows), and exact candidate runs
// fold their spans wholesale with no residual check
// (QueryStats.WholesaleAggRows). Works on ad-hoc queries and prepared
// executions alike (bind parameters first).
//
// A query with Limit aggregates only the first Limit qualifying rows
// in ascending id order; that path folds their selection masks block
// by block (no pushdown). OrderBy does not apply to aggregates and is
// rejected.
func (q *Query) Aggregate(specs ...AggSpec) (*AggResult, core.QueryStats, error) {
	var x exec
	x.begin(q)
	defer x.end()
	if q.order != nil {
		return nil, x.st, fmt.Errorf("table %s: OrderBy does not apply to Aggregate (aggregates are order-independent)", q.t.name)
	}
	err := x.checkProjection()
	if err == nil {
		err = x.resolveAggs(specs)
	}
	if err != nil {
		return nil, x.st, err
	}
	binds := x.parts[0].aggs
	res := &AggResult{vals: make([]AggValue, len(binds))}
	merged := make([]aggPartial, len(binds))
	run, err := x.ready(nil)
	if run {
		res.Rows, err = x.aggregate(merged)
	}
	if err != nil {
		return nil, x.st, err
	}
	for i, b := range binds {
		res.vals[i] = merged[i].value(b.spec)
	}
	return res, x.st, nil
}

// aggregate folds the bound execution's qualifying rows into merged
// and returns how many there were. Unlimited: per-unit partials merge
// in unit order. Limited: each run of the ordered stream's first Limit
// ids folds, grouped into one selection mask per block, through a
// one-slot fold of its unit's own, merged as the run ends — so the cap
// lands on the same rows at every parallelism level and shard count,
// and a float sum adds them one by one, in id order.
//
//imprintvet:locks held=mu.R
func (x *exec) aggregate(merged []aggPartial) (uint64, error) {
	binds := x.parts[0].aggs
	var rows uint64
	merge := func(count uint64, parts []aggPartial) bool {
		rows += count
		for i := range parts {
			merged[i].mergeInto(binds[i].spec.op, parts[i])
		}
		return true
	}
	if !x.q.limited {
		err := x.forEachUnit(
			func(u unit) segOut { return x.parts[u.c].aggregate(u) },
			func(_ unit, o segOut) bool { return merge(o.count, o.aggs) })
		return rows, err
	}
	parts := make([]aggPartial, len(binds))
	err := x.streamIDs(func(u unit, gids []uint32) bool {
		p := &x.parts[u.c]
		f := newGroupFold(oneSlot{}, p.aggs, p.ref(u))
		base := x.base(u)
		for len(gids) > 0 {
			blk := int(gids[0]-base) &^ (BlockRows - 1)
			var mask uint64
			for ; len(gids) > 0 && int(gids[0]-base) < blk+BlockRows; gids = gids[1:] {
				mask |= 1 << (int(gids[0]-base) - blk)
			}
			f.mask(blk, mask)
		}
		f.parts(p.aggs, 0, f.total, parts)
		return merge(f.total, parts)
	})
	return rows, err
}
