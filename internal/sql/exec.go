package sql

import (
	"fmt"

	"repro/internal/core"
	"repro/table"
)

// Result is one statement execution's result set in a uniform shape:
// column headers plus rows, held as typed column batches. Plain selects
// stream qualifying rows, aggregates produce one row, grouped
// aggregates one row per group (in ascending key order, deterministic
// at every parallelism level).
//
// On the wire (imprintd's reply encoder) a Result is the object
// {"table", "columns", "rows": [[cell, ...], ...], "row_count",
// "stats"}; encoding/json sees every field but the rows.
type Result struct {
	Table    string   `json:"table"`
	Columns  []string `json:"columns"`
	RowCount int      `json:"row_count"`
	// Stats reports the index-work counters for aggregate and grouped
	// executions; row-streaming executions omit it (the iterator path
	// does not surface per-query stats).
	Stats *core.QueryStats `json:"stats,omitempty"`
	// Batches holds the rows in order, one typed vector per result
	// column (table.Query.Batches for plain selects; aggregate and group
	// rows use the same cells, null where an aggregate is undefined).
	Batches []*table.RowBatch `json:"-"`
}

// Rows boxes the result into one []any per row: a column's own Go type
// for plain selects; int64, float64, string or nil for aggregates.
func (r *Result) Rows() [][]any {
	rows := make([][]any, 0, r.RowCount)
	for _, b := range r.Batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.AppendRow(make([]any, 0, len(b.Cols)), i))
		}
	}
	return rows
}

// Release recycles the result's batches once the caller is done with
// the rows; the Result must not be read afterwards.
func (r *Result) Release() {
	for _, b := range r.Batches {
		b.Release()
	}
	r.Batches = nil
}

// Exec runs one execution of the statement: binds are raw placeholder
// values (native Go values or decoded JSON — json.Number for numbers),
// converted to the exact types the prepared plan requires; opts carries
// the per-execution context and parallelism.
func (s *Statement) Exec(binds map[string]any, opts table.SelectOptions) (*Result, error) {
	q, err := s.start(binds, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Table: s.tbl.Name(), Columns: s.cols}
	switch s.kind {
	case kindAgg:
		if s.limit >= 0 {
			q.Limit(s.limit)
		}
		ar, st, err := q.Aggregate(s.aggs...)
		if err != nil {
			return nil, err
		}
		cols := make([]table.ColVec, len(s.ast.Proj))
		for i, p := range s.ast.Proj {
			cols[i] = aggVec(1, func(int) table.AggValue { return ar.At(p.Index) })
		}
		res.Batches = []*table.RowBatch{{Cols: cols}}
		res.RowCount = 1
		res.Stats = &st
	case kindGroup:
		gr, st, err := q.GroupBy(s.group).Aggregate(s.aggs...)
		if err != nil {
			return nil, err
		}
		if n := len(gr.Groups); n > 0 {
			cols := make([]table.ColVec, len(s.ast.Proj))
			for i, p := range s.ast.Proj {
				if p.IsAgg {
					cols[i] = aggVec(n, func(g int) table.AggValue { return gr.Groups[g].Aggs[p.Index] })
				} else {
					cols[i] = keyVec(gr.Groups)
				}
			}
			res.Batches = []*table.RowBatch{{Cols: cols}}
			res.RowCount = n
		}
		res.Stats = &st
	default: // kindRows
		if s.order != nil {
			q.OrderBy(*s.order)
		}
		if s.limit >= 0 {
			q.Limit(s.limit)
		}
		for b := range q.Batches() {
			res.Batches = append(res.Batches, b)
			res.RowCount += b.Len()
		}
		if err := q.Err(); err != nil {
			res.Release()
			return nil, err
		}
	}
	return res, nil
}

// aggVec flattens n typed aggregate values into one result column:
// exact int64 for integer results, float64 otherwise, string for string
// min/max, null where undefined (no qualifying rows). The column's kind
// is that of its first defined value.
func aggVec(n int, at func(i int) table.AggValue) table.ColVec {
	v := table.ColVec{Kind: table.KindFloat, Bits: 64}
	for i := 0; i < n; i++ {
		a := at(i)
		if !a.Valid {
			continue
		}
		if a.IsInt {
			v.Kind = table.KindInt
		} else if a.IsStr {
			v.Kind = table.KindString
		}
		break
	}
	for i := 0; i < n; i++ {
		a := at(i)
		if !a.Valid {
			if v.Null == nil {
				v.Null = make([]bool, n)
			}
			v.Null[i] = true
			a = table.AggValue{} // a null cell's slot holds a zero
		}
		switch v.Kind {
		case table.KindInt:
			v.Ints = append(v.Ints, a.Int)
		case table.KindString:
			v.Strs = append(v.Strs, a.Str)
		default:
			v.Floats = append(v.Floats, a.Float)
		}
	}
	return v
}

// keyVec is the group-key column: int64 keys for integer key columns
// (uint64 for uint64 columns), strings for string key columns.
func keyVec(groups []table.Group) table.ColVec {
	v := table.ColVec{Bits: 64}
	for _, g := range groups {
		switch k := g.Key.(type) {
		case int64:
			v.Ints = append(v.Ints, k)
		case uint64:
			v.Kind = table.KindUint
			v.Uints = append(v.Uints, k)
		case string:
			v.Kind = table.KindString
			v.Strs = append(v.Strs, k)
		}
	}
	return v
}

// Explain returns the native query plan for one execution of the
// statement (aggregate shapes explain their aggregation pushdown; the
// grouped shape explains the same scan without the per-key fold).
func (s *Statement) Explain(binds map[string]any, opts table.SelectOptions) (*table.Plan, error) {
	q, err := s.start(binds, opts)
	if err != nil {
		return nil, err
	}
	switch s.kind {
	case kindAgg, kindGroup:
		return q.ExplainAggregate(s.aggs...)
	default:
		if s.order != nil {
			q.OrderBy(*s.order)
		}
		if s.limit >= 0 {
			q.Limit(s.limit)
		}
		return q.Explain()
	}
}

// start begins one execution: converts and binds placeholder values
// and applies the per-execution options.
func (s *Statement) start(binds map[string]any, opts table.SelectOptions) (*table.Query, error) {
	for name := range binds {
		if _, ok := s.params[name]; !ok {
			return nil, fmt.Errorf("sql: unknown parameter $%s", name)
		}
	}
	q := s.prep.Exec().Options(opts)
	for name, pc := range s.params {
		raw, ok := binds[name]
		if !ok {
			return nil, fmt.Errorf("sql: unbound parameter $%s (wants %s)", name, pc.want())
		}
		v, err := pc.conv(raw)
		if err != nil {
			return nil, fmt.Errorf("sql: parameter $%s: %w", name, err)
		}
		q = q.Bind(name, v)
	}
	return q, nil
}
