package table

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/coltype"
	"repro/internal/core"
)

// Aggregation executes inside the same per-segment workers as every
// other query: each segment folds its qualifying rows into one partial
// accumulator per aggregate, and the consumer merges the partials in
// segment order, so results are byte-identical at every parallelism
// level (float sums included — the merge order never changes).
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
//     any other executor.

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
// op-dependent; rows always add.
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
			a.f = min(a.f, b.f)
		case partStr:
			a.s = min(a.s, b.s)
		}
	case aggMax:
		switch a.kind {
		case partInt:
			a.i = max(a.i, b.i)
		case partFloat:
			a.f = max(a.f, b.f)
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

// segAgg folds the qualifying rows of one segment into a partial: rows
// one at a time (addRow), a 64-row selection mask at a time (addMask —
// how the vectorized walk hands over surviving rows), or whole live
// spans of exact candidate runs (addSpan). Implementations are typed
// per column; one segAgg serves one (aggregate, segment) pair of one
// execution.
type segAgg interface {
	addRow(local uint32)
	addMask(base int, mask uint64) // segment-local block base, surviving lanes
	addSpan(from, to int)          // segment-local, every row live and qualifying
	partial() aggPartial
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

//imprintvet:locks held=mu.R
func (c *colState[V]) aggAcc(op aggOp, r segRef) segAgg {
	return &numSegAgg[V]{op: op, vals: c.slab(r), isInt: isIntType[V]()}
}

// numSegAgg is the typed per-segment accumulator of a numeric column.
type numSegAgg[V coltype.Value] struct {
	op    aggOp
	vals  []V
	isInt bool
	rows  uint64
	any   bool
	m     V // min/max accumulator
	isum  int64
	fsum  float64
}

func (a *numSegAgg[V]) addRow(local uint32) {
	v := a.vals[local]
	switch a.op {
	case aggSum, aggAvg:
		if a.isInt {
			a.isum += int64(v)
		} else {
			a.fsum += float64(v)
		}
	case aggMin:
		if !a.any || v < a.m {
			a.m = v
		}
	case aggMax:
		if !a.any || v > a.m {
			a.m = v
		}
	}
	a.any = true
	a.rows++
}

// addMask folds the surviving lanes of one block, trailing-zero
// iteration inside the monomorphized accumulator so the interface cost
// is per block, not per row.
func (a *numSegAgg[V]) addMask(base int, mask uint64) {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		a.addRow(uint32(base + i))
	}
}

func (a *numSegAgg[V]) addSpan(from, to int) {
	vals := a.vals[from:to]
	if len(vals) == 0 {
		return
	}
	switch a.op {
	case aggSum, aggAvg:
		if a.isInt {
			var s int64
			for _, v := range vals {
				s += int64(v)
			}
			a.isum += s
		} else {
			var s float64
			for _, v := range vals {
				s += float64(v)
			}
			a.fsum += s
		}
	case aggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		if !a.any || m < a.m {
			a.m = m
		}
	case aggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		if !a.any || m > a.m {
			a.m = m
		}
	}
	a.any = true
	a.rows += uint64(len(vals))
}

func (a *numSegAgg[V]) partial() aggPartial {
	switch {
	case a.rows == 0:
		return aggPartial{}
	case a.op == aggMin || a.op == aggMax:
		return numPartial(a.isInt, a.rows, int64(a.m), float64(a.m))
	case a.isInt:
		return numPartial(true, a.rows, a.isum, 0)
	}
	return numPartial(false, a.rows, 0, a.fsum)
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

//imprintvet:locks held=mu.R
func (c *strColState) aggAcc(op aggOp, r segRef) segAgg {
	a := &strSegAgg{op: op}
	a.codes, a.syms, a.ordered = c.codeSlab(r)
	return a
}

// strSegAgg folds min/max over a string slab's codes and decodes the
// winner once. Where code order is string order (a sealed segment)
// codes compare directly; a delta slab's compare by symbol.
type strSegAgg struct {
	op      aggOp
	codes   []int32
	syms    []string
	ordered bool
	rows    uint64
	any     bool
	m       int32
}

// strBetter reports whether code c beats the incumbent m under op
// (aggMin or aggMax).
func strBetter(op aggOp, c, m int32, syms []string, ordered bool) bool {
	if c == m {
		return false
	}
	less := c < m
	if !ordered {
		less = syms[c] < syms[m]
	}
	return less == (op == aggMin)
}

func (a *strSegAgg) addRow(local uint32) {
	c := a.codes[local]
	if !a.any || strBetter(a.op, c, a.m, a.syms, a.ordered) {
		a.m = c
	}
	a.any = true
	a.rows++
}

func (a *strSegAgg) addMask(base int, mask uint64) {
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		a.addRow(uint32(base + i))
	}
}

func (a *strSegAgg) addSpan(from, to int) {
	if !a.ordered {
		for local := from; local < to; local++ {
			a.addRow(uint32(local))
		}
		return
	}
	codes := a.codes[from:to]
	if len(codes) == 0 {
		return
	}
	m := slices.Max(codes)
	if a.op == aggMin {
		m = slices.Min(codes)
	}
	if !a.any || strBetter(a.op, m, a.m, a.syms, true) {
		a.m = m
	}
	a.any = true
	a.rows += uint64(len(codes))
}

func (a *strSegAgg) partial() aggPartial {
	p := aggPartial{rows: a.rows}
	if a.rows == 0 {
		return p
	}
	p.kind, p.s = partStr, a.syms[a.m]
	return p
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

// segAccs builds the accumulators over the rows r names, one per
// distinct aggBind.acc.
//
//imprintvet:locks held=mu.R
func segAccs(binds []aggBind, r segRef) []segAgg {
	accs := make([]segAgg, 0, len(binds))
	for _, b := range binds {
		if b.acc == len(accs) {
			accs = append(accs, b.col.aggAcc(b.spec.op, r))
		}
	}
	return accs
}

// mergeAccs merges the accumulators' partials into merged, one per
// bind; count(*) binds merge the bare row count.
func mergeAccs(merged []aggPartial, binds []aggBind, accs []segAgg, rows uint64) {
	for i, b := range binds {
		p := aggPartial{rows: rows}
		if b.acc >= 0 {
			p = accs[b.acc].partial()
		}
		merged[i].mergeInto(b.spec.op, p)
	}
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
// leaves it the scanned tier.
//
//imprintvet:locks held=mu.R
func (p *part) aggregate(u unit) segOut {
	var o segOut
	t, s, binds := p.t, u.lseg, p.aggs
	ev := p.eval(u, &o.st)
	o.aggs = make([]aggPartial, len(binds))
	n := t.segLen(s)
	if !u.buf && t.aggSummaryEligible(s, ev.runs) {
		o.count = uint64(n)
		var accs []segAgg // by aggBind.acc, built and folded on first use
		for i, b := range binds {
			if b.col == nil { // count(*): the row count, no slab touched
				o.aggs[i] = aggPartial{rows: uint64(n)}
				o.st.SummaryAggRows += uint64(n)
				continue
			}
			if p, ok := b.col.aggSummary(b.spec.op, s); ok {
				p.rows = uint64(n)
				o.aggs[i] = p
				o.st.SummaryAggRows += uint64(n)
				continue
			}
			if accs == nil {
				accs = make([]segAgg, len(binds))
			}
			if accs[b.acc] == nil {
				accs[b.acc] = b.col.aggAcc(b.spec.op, segRef{s: s})
				accs[b.acc].addSpan(0, n)
			}
			o.aggs[i] = accs[b.acc].partial()
			o.st.WholesaleAggRows += uint64(n)
		}
		releaseEval(&ev)
		return o
	}
	accs := segAccs(binds, p.ref(u))
	// The tiers count per requested aggregate, shared accumulator or not.
	var counts, folds uint64
	for _, b := range binds {
		if b.col == nil {
			counts++
		} else {
			folds++
		}
	}
	t.aggWalk(ev, &o.st,
		func(from, to int) {
			span := uint64(to - from)
			o.count += span
			// count(*) tallies the span wholesale, values untouched.
			o.st.SummaryAggRows += span * counts
			o.st.WholesaleAggRows += span * folds
			for _, acc := range accs {
				acc.addSpan(from, to)
			}
		},
		func(base int, mask uint64) {
			o.count += uint64(bits.OnesCount64(mask))
			for _, acc := range accs {
				acc.addMask(base, mask)
			}
		})
	mergeAccs(o.aggs, binds, accs, o.count)
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
// in ascending id order; that path folds row by row (no pushdown).
// OrderBy does not apply to aggregates and is rejected.
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
// in unit order. Limited: the first Limit ids of the ordered stream
// fold row by row through their unit's accumulators, merged as each
// unit's run ends — so the cap lands on the same rows at every
// parallelism level and shard count.
//
//imprintvet:locks held=mu.R
func (x *exec) aggregate(merged []aggPartial) (uint64, error) {
	q := x.q
	binds := x.parts[0].aggs
	var rows uint64
	if !q.limited {
		err := x.forEachUnit(
			func(u unit) segOut { return x.parts[u.c].aggregate(u) },
			func(_ unit, o segOut) bool {
				rows += o.count
				for i := range merged {
					merged[i].mergeInto(binds[i].spec.op, o.aggs[i])
				}
				return true
			})
		return rows, err
	}
	err := x.streamIDs(func(u unit, gids []uint32) bool {
		p := &x.parts[u.c]
		rows += uint64(len(gids))
		accs := segAccs(p.aggs, p.ref(u))
		base := x.base(u)
		for _, gid := range gids {
			for _, acc := range accs {
				acc.addRow(gid - base)
			}
		}
		mergeAccs(merged, binds, accs, uint64(len(gids)))
		return true
	})
	return rows, err
}
