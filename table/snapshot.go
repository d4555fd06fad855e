package table

import (
	"repro/internal/core"
)

// Snapshot reads (the LSM-style write path's read side): an execution
// captures, under the read lock it already holds, the sealed-segment
// epoch (the segment list at t.rows) plus a delta watermark — the
// buffered rows visible at capture time. Sealed segments evaluate
// through the unchanged vectorized block walk; the delta rows are
// scanned exactly, row at a time, with the same compiled leaf
// semantics (leafPlan.rowCheck). Concurrent appends land beyond the
// watermark and concurrent seal installs re-home rows the execution
// reads from the delta — either way the union each executor produces
// is the table as of capture, so readers get stable results while
// writers stream.

// deltaView is one execution's delta watermark: the buffered rows
// visible to it, addressed by global id base+i. Valid only while the
// capturing execution holds the table's read lock (the view aliases
// the store's live slice; see delta.Store.View).
type deltaView struct {
	t    *Table
	base int
	rows [][]any
	cols []string
}

// deltaViewLocked captures the delta watermark for one execution; nil
// when the table has no delta ingest or nothing is buffered. Callers
// hold the read lock for the view's lifetime.
//
//imprintvet:locks held=mu.R
func (t *Table) deltaViewLocked() *deltaView {
	d := t.delta
	if d == nil {
		return nil
	}
	base, rows := d.store.View()
	if len(rows) == 0 {
		return nil
	}
	return &deltaView{t: t, base: base, rows: rows, cols: d.store.Cols()}
}

// colIdx returns a column's position in the delta row layout, or -1.
func (v *deltaView) colIdx(name string) int {
	for i, c := range v.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// matcher compiles an execution tree into an exact row-at-a-time test
// over delta rows, composing each leaf's rowCheck under the same
// and/or/andnot semantics the segment evaluator applies. A nil tree
// matches every row.
func (v *deltaView) matcher(en *execNode) func(row []any) bool {
	if en == nil {
		return nil
	}
	switch en.op {
	case "leaf":
		ci := v.colIdx(en.leaf.col)
		if ci < 0 {
			// Cannot happen: executions bind against table columns and
			// the delta layout mirrors t.order. Fail closed.
			return func([]any) bool { return false }
		}
		check := en.plan.rowCheck()
		return func(row []any) bool { return check(row[ci]) }
	case "and":
		kids := v.matchKids(en)
		return func(row []any) bool {
			for _, k := range kids {
				if !k(row) {
					return false
				}
			}
			return true
		}
	case "or":
		kids := v.matchKids(en)
		return func(row []any) bool {
			for _, k := range kids {
				if k(row) {
					return true
				}
			}
			return false
		}
	default: // "andnot" — binary: p and not q
		p, q := v.matcher(en.kids[0]), v.matcher(en.kids[1])
		return func(row []any) bool { return p(row) && !q(row) }
	}
}

func (v *deltaView) matchKids(en *execNode) []func(row []any) bool {
	kids := make([]func(row []any) bool, len(en.kids))
	for i, kid := range en.kids {
		kids[i] = v.matcher(kid)
	}
	return kids
}

// scan walks the view's live rows in id order, evaluating match (nil
// matches all) exactly and visiting qualifying rows until visit
// returns false. It reports whether the walk ran to completion and
// counts evaluated rows into st.DeltaRowsScanned.
//
//imprintvet:locks held=mu.R
func (v *deltaView) scan(match func(row []any) bool, st *core.QueryStats, visit func(id int, row []any) bool) bool {
	return v.scanRows(0, len(v.rows), match, st, visit)
}

// scanRows is scan over the view's rows [lo, hi) only.
//
//imprintvet:locks held=mu.R
func (v *deltaView) scanRows(lo, hi int, match func(row []any) bool, st *core.QueryStats, visit func(id int, row []any) bool) bool {
	for i, row := range v.rows[lo:hi] {
		id := v.base + lo + i
		if v.t.deletedAt(id) {
			continue
		}
		st.DeltaRowsScanned++
		if match != nil && !match(row) {
			continue
		}
		if !visit(id, row) {
			return false
		}
	}
	return true
}
