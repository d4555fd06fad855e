package table

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Plan is the rendered execution plan of a Query: what the evaluator
// decided per leaf and per segment (pruned vs imprints probe vs scan,
// the estimated selectivity behind that choice) and what each
// subtree's candidate-run list looked like after composition.
// Explain executes the index probes against every segment — the
// candidate-run statistics are real — but never materializes a row.
type Plan struct {
	Table       string
	Columns     []string // resolved projection
	Limit       int      // row cap; negative when the query has no limit
	TotalRows   int      // sealed plus buffered delta rows
	TotalBlocks int      // row blocks of BlockRows rows (sealed storage)
	// DeltaRows is the number of buffered delta rows the execution would
	// scan exactly alongside the sealed segments; zero under the
	// immediate seal policy.
	DeltaRows int
	// SegmentRows / Segments describe the storage segmentation the plan
	// ran over; Parallelism is the worker count execution would use.
	SegmentRows int
	Segments    int
	Parallelism int
	// SegmentsPruned counts the segments that contributed no candidate
	// blocks at the root — fully skipped by summary/dictionary pruning
	// or probed down to nothing.
	SegmentsPruned int
	Root           *PlanNode
	Stats          core.QueryStats // aggregated index-probe stats
	// FastCountRows is the number of live rows Count would tally
	// wholesale from the exact candidate runs (span minus a deleted-
	// bitmap popcount) — the count fast path's coverage.
	FastCountRows uint64
	// BlocksVectorized previews the vectorized residual tier: the 64-row
	// blocks of inexact candidate runs a full execution would evaluate
	// through selection-mask kernels. An unlimited execution reports the
	// same number in QueryStats.BlocksVectorized; one that stops early
	// (Limit) reports fewer.
	BlocksVectorized uint64
	// OrderBy names the ordering an OrderBy query would apply (e.g.
	// "price desc"); empty without one.
	OrderBy string
	// Aggregates lists the aggregate specs an ExplainAggregate
	// described (e.g. "sum(price)"); empty for plain Explain.
	Aggregates []string
	// AggSegments is the per-segment aggregate pushdown breakdown of an
	// ExplainAggregate: which tier each segment's aggregates resolve to.
	AggSegments []AggSegmentPlan
}

// AggSegmentPlan is one segment's aggregate pushdown decision.
type AggSegmentPlan struct {
	Segment int
	Rows    int // rows of the segment
	// Tier is the segment's worst row source: "summary" (every
	// aggregate answered from summaries / the row count — value slabs
	// never touched), "wholesale" (exact runs folded span-wise, no
	// residual checks), "scanned" (row-by-row residual evaluation), or
	// "pruned" (no candidate rows).
	Tier string
	// SummaryRows / WholesaleRows / ScannedRows count per-aggregate row
	// contributions by tier (as QueryStats.SummaryAggRows and friends).
	SummaryRows   uint64
	WholesaleRows uint64
	ScannedRows   uint64
}

// PlanNode is one node of the plan tree, mirroring the predicate tree.
// Leaf statistics are aggregated across segments; SegmentDetails holds
// the per-segment breakdown when the table has more than one segment.
type PlanNode struct {
	Op     string // "and", "or", "andnot", "leaf", "all"
	Pred   string // leaf predicate rendering, e.g. `city in ["A", "N"]`
	Column string // leaf column name
	// Access is the leaf access path: "imprints" or "scan" (the column
	// has no imprint, or Reason says why it was not probed) — or
	// "pruned" when every segment was pruned, and "mixed" when segments
	// resolved differently (see SegmentDetails).
	Access string
	// Reason says why a non-default path was chosen: "summary excludes"
	// (pruned: the leaf's own min/max or dictionary rules the segment
	// out), "conjunct excluded" (pruned: an enclosing and's — or andnot's
	// minuend's — summaries ruled the segment out first, so the leaf was
	// neither probed nor sampled there), "unselective" (scan: the
	// histogram estimates that nearly every row qualifies) or "probe
	// prunes nothing" (scan: the sampled imprint could skip or mark exact
	// almost no block).
	Reason string
	// Selectivity is the leaf's estimated selectivity (fraction of rows
	// expected to qualify, row-weighted across probed segments) from the
	// imprint histograms; negative when no segment has an imprint to
	// estimate from (scan-only).
	Selectivity float64
	// Residual is the sampled share of blocks a probe would leave to the
	// residual evaluator (core.Index.ResidualShare, row-weighted across
	// sampled segments) — the second stage of the access-path choice;
	// negative when no segment was sampled (no imprint, the estimate
	// already chose the scan, or ScanThreshold >= 1 rules a scan out).
	Residual float64
	// Runs / CandidateBlocks / ExactBlocks summarize the candidate-run
	// lists this subtree produced across segments: maximal runs, total
	// candidate row blocks, and how many of those are exact (no residual
	// check).
	Runs            int
	CandidateBlocks uint64
	ExactBlocks     uint64
	Stats           core.QueryStats // leaf probe stats
	// SegmentDetails breaks a leaf down per segment (multi-segment
	// tables only): the access path each segment resolved to, including
	// "pruned" for segments skipped without probing.
	SegmentDetails []SegmentPlan
	Children       []*PlanNode
}

// SegmentPlan is one segment's slice of a leaf's plan.
type SegmentPlan struct {
	Segment         int
	Rows            int
	Access          string // "pruned", "imprints", "scan"
	Reason          string
	Selectivity     float64 // negative when the segment has no imprint
	Residual        float64 // negative when the segment was not sampled
	Runs            int
	CandidateBlocks uint64
	ExactBlocks     uint64
	Stats           core.QueryStats
}

// setRuns records a node's candidate-run summary.
func (n *PlanNode) setRuns(runs []core.CandidateRun) {
	n.Runs = len(runs)
	for _, r := range runs {
		n.CandidateBlocks += uint64(r.Count)
		if r.Exact {
			n.ExactBlocks += uint64(r.Count)
		}
	}
}

// opNode builds an inner plan node from its composed runs and children.
func opNode(op string, runs []core.CandidateRun, kids []*PlanNode) *PlanNode {
	n := &PlanNode{Op: op, Children: kids}
	n.setRuns(runs)
	return n
}

// Explain builds the query's execution plan without materializing rows:
// every segment is evaluated (in parallel, like a real execution) and
// the per-segment plans are merged into one tree with per-leaf segment
// breakdowns, labeled by global segment.
func (q *Query) Explain() (*Plan, error) { return q.explain(nil, false) }

// ExplainAggregate builds the plan of an Aggregate execution of the
// query: the predicate plan of Explain plus the per-segment aggregate
// pushdown decisions — which segments answer purely from summaries,
// which fold exact runs wholesale, and which fall back to a row-by-row
// scan (see AggSegmentPlan). Like Explain, no value is aggregated.
// Queries ExplainAggregate cannot describe faithfully are rejected
// like Aggregate rejects them (OrderBy); a Limit-ed aggregation folds
// its first rows' selection masks through the id path, so its plan
// carries the limit but no pushdown tier lines.
func (q *Query) ExplainAggregate(specs ...AggSpec) (*Plan, error) { return q.explain(specs, true) }

// explain is the one body behind both: withAggs distinguishes
// ExplainAggregate (which validates its specs like Aggregate) from
// plain Explain.
func (q *Query) explain(specs []AggSpec, withAggs bool) (*Plan, error) {
	var x exec
	x.begin(q)
	defer x.end()
	if withAggs && q.order != nil {
		return nil, fmt.Errorf("table %s: OrderBy does not apply to Aggregate (aggregates are order-independent)", q.t.name)
	}
	names, err := x.projection()
	if err == nil && q.order != nil {
		err = x.column(q.order.col)
	}
	if err == nil && withAggs {
		err = x.resolveAggs(specs)
	}
	if err == nil {
		err = x.bind()
	}
	if err != nil {
		return nil, err
	}
	// A Limit-ed aggregation folds its ids' masks through the id path;
	// no pushdown tiers apply, so none are advertised.
	tiers := withAggs && !q.limited
	segPlans := make([]*PlanNode, 0, x.units)
	infos := make([]planSegInfo, 0, x.units)
	var aggSegs []AggSegmentPlan
	if tiers {
		aggSegs = make([]AggSegmentPlan, 0, x.units)
	}
	var fast, vect uint64
	pruned := 0
	if err := x.forEachUnit(
		func(u unit) segOut {
			p := &x.parts[u.c]
			var o segOut
			if u.buf {
				// Evaluate the buffered rows exactly (like an execution
				// would) so the plan's stats carry their cost.
				ev := p.eval(u, &o.st)
				p.t.walkBlocks(ev, &o.st, nil, func(int, uint64) bool { return true })
				releaseEval(&ev)
				return o
			}
			ev := p.t.evalSegment(p.en, u.lseg, q.opts, &o.st, true)
			o.plan = ev.plan
			o.fast = p.t.fastCountSegment(u.lseg, ev.runs)
			o.vect = p.t.vectorizedBlocksSegment(u.lseg, ev.runs)
			if tiers {
				o.aggPlan = p.t.aggSegmentPlan(u.lseg, ev, p.aggs)
				o.aggPlan.Segment = u.gseg
			}
			releaseEval(&ev)
			return o
		},
		func(u unit, o segOut) bool {
			if u.buf {
				return true
			}
			segPlans = append(segPlans, o.plan)
			infos = append(infos, planSegInfo{seg: u.gseg, rows: x.parts[u.c].t.segLen(u.lseg)})
			if tiers {
				aggSegs = append(aggSegs, o.aggPlan)
			}
			fast += o.fast
			vect += o.vect
			if o.plan.CandidateBlocks == 0 {
				pruned++
			}
			return true
		}); err != nil {
		return nil, err
	}
	lim := -1
	if q.limited {
		lim = q.limit
	}
	sealed, deltaRows := 0, 0
	for c := range x.parts {
		p := &x.parts[c]
		sealed += p.t.rows
		deltaRows += p.view.Rows
	}
	plan := &Plan{
		Table:            q.t.name,
		Columns:          names,
		Limit:            lim,
		TotalRows:        sealed + deltaRows,
		TotalBlocks:      (sealed + BlockRows - 1) / BlockRows,
		DeltaRows:        deltaRows,
		SegmentRows:      q.t.segRows,
		Segments:         x.units,
		Parallelism:      x.par,
		SegmentsPruned:   pruned,
		Root:             aggregatePlans(segPlans, infos),
		Stats:            x.st,
		FastCountRows:    fast,
		BlocksVectorized: vect,
		AggSegments:      aggSegs,
	}
	if q.order != nil {
		plan.OrderBy = q.order.String()
	}
	if withAggs {
		for _, b := range x.parts[0].aggs {
			plan.Aggregates = append(plan.Aggregates, b.spec.String())
		}
	}
	return plan, nil
}

// aggSegmentPlan classifies one segment's aggregate pushdown from its
// composed run list, mirroring the unlimited executor's tier decisions
// without folding any value. ScannedRows counts the live candidate
// rows the scan tier would visit row by row (qualifying or not — the
// residual checks have not run). Callers hold the read lock.
//
//imprintvet:locks held=mu.R
func (t *Table) aggSegmentPlan(s int, ev evaluated, binds []aggBind) AggSegmentPlan {
	n := t.segLen(s)
	ap := AggSegmentPlan{Segment: s, Rows: n}
	nspecs := uint64(len(binds))
	if t.aggSummaryEligible(s, ev.runs) {
		for _, b := range binds {
			if b.col == nil {
				ap.SummaryRows += uint64(n)
				continue
			}
			if _, ok := b.col.aggSummary(b.spec.op, s); ok {
				ap.SummaryRows += uint64(n)
			} else {
				ap.WholesaleRows += uint64(n)
			}
		}
	} else {
		// Classify run by run; every run is handled at span granularity
		// (spanDone), so the block path never executes.
		var scratch core.QueryStats
		t.walkBlocks(ev, &scratch,
			func(from, to int, exact bool) spanAction {
				if exact && t.deletedInSpan(from, to) == 0 {
					span := uint64(to - from)
					for _, b := range binds {
						if b.col == nil {
							ap.SummaryRows += span
						} else {
							ap.WholesaleRows += span
						}
					}
				} else {
					ap.ScannedRows += uint64(t.liveRows(from, to)) * nspecs
				}
				return spanDone
			}, nil)
	}
	switch {
	case ap.ScannedRows > 0:
		ap.Tier = "scanned"
	case ap.WholesaleRows > 0:
		ap.Tier = "wholesale"
	case ap.SummaryRows > 0:
		ap.Tier = "summary"
	default:
		ap.Tier = "pruned"
	}
	return ap
}

// planSegInfo labels one per-segment plan for the merge: the segment
// number the breakdown reports (a global segment for sharded tables)
// and its row count.
type planSegInfo struct {
	seg  int
	rows int
}

// aggregatePlans merges the per-segment plan trees (identical shape —
// one per segment of the same execution tree) into a single tree:
// statistics are summed, and leaves additionally keep the per-segment
// breakdown when there is more than one segment. infos labels plans
// one-to-one.
func aggregatePlans(plans []*PlanNode, infos []planSegInfo) *PlanNode {
	if len(plans) == 0 {
		// Empty table: a bare node standing for the whole (empty) scan.
		return &PlanNode{Op: "all", Pred: "true"}
	}
	if len(plans) == 1 {
		return plans[0]
	}
	first := plans[0]
	agg := &PlanNode{Op: first.Op, Pred: first.Pred, Column: first.Column, Selectivity: -1, Residual: -1}
	// Sum the run summaries and stats.
	for _, p := range plans {
		agg.Runs += p.Runs
		agg.CandidateBlocks += p.CandidateBlocks
		agg.ExactBlocks += p.ExactBlocks
		agg.Stats.Add(p.Stats)
	}
	if first.Op == "leaf" {
		aggregateLeaf(agg, plans, infos)
	}
	for k := range first.Children {
		kids := make([]*PlanNode, len(plans))
		for s, p := range plans {
			kids[s] = p.Children[k]
		}
		agg.Children = append(agg.Children, aggregatePlans(kids, infos))
	}
	return agg
}

// aggregateLeaf fills a merged leaf node: the per-segment breakdown,
// the dominant access path and the row-weighted selectivity estimate
// and sampled residual share.
func aggregateLeaf(agg *PlanNode, plans []*PlanNode, infos []planSegInfo) {
	access, pruneReason := "", "conjunct excluded"
	uniform, allPruned := true, true
	var estRows, estSum, resRows, resSum float64
	for s, p := range plans {
		if p.Reason == "summary excludes" {
			pruneReason = p.Reason
		}
		rows := infos[s].rows
		agg.SegmentDetails = append(agg.SegmentDetails, SegmentPlan{
			Segment:         infos[s].seg,
			Rows:            rows,
			Access:          p.Access,
			Reason:          p.Reason,
			Selectivity:     p.Selectivity,
			Residual:        p.Residual,
			Runs:            p.Runs,
			CandidateBlocks: p.CandidateBlocks,
			ExactBlocks:     p.ExactBlocks,
			Stats:           p.Stats,
		})
		if p.Access != "pruned" {
			allPruned = false
			if access == "" {
				access = p.Access
				agg.Reason = p.Reason
			} else if access != p.Access {
				uniform = false
			}
			if p.Selectivity >= 0 {
				estSum += p.Selectivity * float64(rows)
				estRows += float64(rows)
			}
			if p.Residual >= 0 {
				resSum += p.Residual * float64(rows)
				resRows += float64(rows)
			}
		}
	}
	switch {
	case allPruned:
		// Its own summary when it excluded any segment, else its conjuncts'.
		agg.Access, agg.Reason = "pruned", pruneReason
	case uniform:
		agg.Access = access
	default:
		agg.Access, agg.Reason = "mixed", ""
	}
	if estRows > 0 {
		agg.Selectivity = estSum / estRows
	}
	if resRows > 0 {
		agg.Residual = resSum / resRows
	}
}

// String renders the plan as an indented tree, e.g.:
//
//	select qty, city from orders limit 10 (550000 rows, 8594 blocks of 64, 9 segments of 65536, parallelism 4)
//	└─ or: 312 candidate blocks in 14 runs (88 exact)
//	   ├─ qty in [4900, 5100): imprints est=0.031 res=0.04 → 301 blocks in 12 runs (88 exact), 4211 probes
//	   │    · seg 0 (65536 rows): pruned (summary excludes)
//	   │    · seg 1 (65536 rows): imprints est=0.210 res=0.04 → 301 blocks in 12 runs (88 exact), 4211 probes
//	   └─ city prefix "Ams": imprints est=0.120 res=0.11 → 95 blocks in 3 runs (0 exact), 4211 probes
func (p *Plan) String() string {
	var sb strings.Builder
	if len(p.Aggregates) > 0 {
		fmt.Fprintf(&sb, "select %s from %s", strings.Join(p.Aggregates, ", "), p.Table)
	} else {
		fmt.Fprintf(&sb, "select %s from %s", strings.Join(p.Columns, ", "), p.Table)
	}
	if p.OrderBy != "" {
		fmt.Fprintf(&sb, " order by %s", p.OrderBy)
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&sb, " limit %d", p.Limit)
	}
	fmt.Fprintf(&sb, " (%d rows, %d blocks of %d", p.TotalRows, p.TotalBlocks, BlockRows)
	if p.Segments > 1 {
		fmt.Fprintf(&sb, ", %d segments of %d, parallelism %d", p.Segments, p.SegmentRows, p.Parallelism)
		if p.SegmentsPruned > 0 {
			fmt.Fprintf(&sb, ", %d pruned", p.SegmentsPruned)
		}
	}
	if p.DeltaRows > 0 {
		fmt.Fprintf(&sb, ", delta: %d rows", p.DeltaRows)
	}
	if p.FastCountRows > 0 {
		fmt.Fprintf(&sb, ", count fast path: %d rows", p.FastCountRows)
	}
	if p.BlocksVectorized > 0 {
		fmt.Fprintf(&sb, ", vectorized: %d blocks", p.BlocksVectorized)
	}
	sb.WriteString(")\n")
	p.Root.render(&sb, "", "")
	if len(p.AggSegments) > 0 {
		sb.WriteString("aggregate pushdown:\n")
		for _, ap := range p.AggSegments {
			fmt.Fprintf(&sb, "  · seg %d (%d rows): %s", ap.Segment, ap.Rows, renderTier(ap.Tier))
			var parts []string
			if ap.SummaryRows > 0 {
				parts = append(parts, fmt.Sprintf("%d agg-rows from summaries", ap.SummaryRows))
			}
			if ap.WholesaleRows > 0 {
				parts = append(parts, fmt.Sprintf("%d agg-rows wholesale", ap.WholesaleRows))
			}
			if ap.ScannedRows > 0 {
				parts = append(parts, fmt.Sprintf("%d agg-rows scanned", ap.ScannedRows))
			}
			if len(parts) > 0 {
				fmt.Fprintf(&sb, " (%s)", strings.Join(parts, ", "))
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// renderTier names a pushdown tier in plan text.
func renderTier(tier string) string {
	switch tier {
	case "summary":
		return "summary-answered"
	case "wholesale":
		return "run-wholesale"
	}
	return tier
}

// renderEstimates prints the two inputs of the access-path choice that
// were taken: the histogram's selectivity estimate and the imprint
// sample's residual share.
func renderEstimates(sb *strings.Builder, est, res float64) {
	if est >= 0 {
		fmt.Fprintf(sb, " est=%.3f", est)
	}
	if res >= 0 {
		fmt.Fprintf(sb, " res=%.2f", res)
	}
}

func (n *PlanNode) render(sb *strings.Builder, branch, indent string) {
	if branch == "" {
		branch = "└─ "
	}
	sb.WriteString(indent + branch)
	switch n.Op {
	case "leaf":
		fmt.Fprintf(sb, "%s: %s", n.Pred, n.Access)
		if n.Reason != "" {
			fmt.Fprintf(sb, " (%s)", n.Reason)
		}
		renderEstimates(sb, n.Selectivity, n.Residual)
		fmt.Fprintf(sb, " → %d blocks in %d runs (%d exact)",
			n.CandidateBlocks, n.Runs, n.ExactBlocks)
		if n.Stats.Probes > 0 {
			fmt.Fprintf(sb, ", %d probes", n.Stats.Probes)
		}
	case "all":
		fmt.Fprintf(sb, "all rows → %d blocks in %d runs", n.CandidateBlocks, n.Runs)
	default:
		fmt.Fprintf(sb, "%s: %d candidate blocks in %d runs (%d exact)",
			n.Op, n.CandidateBlocks, n.Runs, n.ExactBlocks)
	}
	sb.WriteByte('\n')
	kidIndent := indent + "   "
	if branch == "├─ " {
		kidIndent = indent + "│  "
	}
	for _, sp := range n.SegmentDetails {
		sb.WriteString(kidIndent + "  · ")
		fmt.Fprintf(sb, "seg %d (%d rows): %s", sp.Segment, sp.Rows, sp.Access)
		if sp.Reason != "" {
			fmt.Fprintf(sb, " (%s)", sp.Reason)
		}
		if sp.Access != "pruned" {
			renderEstimates(sb, sp.Selectivity, sp.Residual)
			fmt.Fprintf(sb, " → %d blocks in %d runs (%d exact)",
				sp.CandidateBlocks, sp.Runs, sp.ExactBlocks)
			if sp.Stats.Probes > 0 {
				fmt.Fprintf(sb, ", %d probes", sp.Stats.Probes)
			}
		}
		sb.WriteByte('\n')
	}
	for i, kid := range n.Children {
		b := "├─ "
		if i == len(n.Children)-1 {
			b = "└─ "
		}
		kid.render(sb, b, kidIndent)
	}
}
