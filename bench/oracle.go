package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/table"
)

// The answer oracle. Every statement is evaluated three ways — SQL
// through imprintd, the equivalent table-API call, and a brute-force
// pass over the generator's columns — and the three must agree.

// answer is a result set in the SQL response's shape; cells are int64,
// float64, string or nil.
type answer struct {
	cols []string
	rows [][]any
}

// matcher compiles the statement's conjunction into row checks over c.
func matcher(c *columns, r request) func(i int) bool {
	var checks []func(i int) bool
	for _, cd := range r.st.conds {
		v, op := r.params[cd.param], cd.op
		switch cd.col {
		case "ts", "qty":
			col, x := c.ts, v.(int64)
			if cd.col == "qty" {
				col = c.qty
			}
			switch op {
			case ">=":
				checks = append(checks, func(i int) bool { return col[i] >= x })
			case "<":
				checks = append(checks, func(i int) bool { return col[i] < x })
			default:
				checks = append(checks, func(i int) bool { return col[i] == x })
			}
		case "price":
			col, x := c.price, v.(float64)
			if op == ">=" {
				checks = append(checks, func(i int) bool { return col[i] >= x })
			} else {
				checks = append(checks, func(i int) bool { return col[i] < x })
			}
		case "pri":
			col, x := c.pri, uint8(v.(int64))
			checks = append(checks, func(i int) bool { return col[i] == x })
		case "city":
			col, x := c.city, v.(string)
			checks = append(checks, func(i int) bool { return col[i] == x })
		}
	}
	return func(i int) bool {
		for _, ck := range checks {
			if !ck(i) {
				return false
			}
		}
		return true
	}
}

// cell returns row i's value of a column as a response cell.
func (c *columns) cell(col string, i int) any {
	switch col {
	case "ts":
		return c.ts[i]
	case "qty":
		return c.qty[i]
	case "price":
		return c.price[i]
	case "pri":
		return int64(c.pri[i])
	}
	return c.city[i]
}

// acc folds one aggregate over matching rows.
type acc struct {
	a     agg
	n     int64
	sumI  int64
	sumF  float64
	lo    float64
	hi    float64
	float bool // aggregated column is float64
}

func (a *acc) add(c *columns, i int) {
	a.n++
	if a.a.col == "" {
		return
	}
	var f float64
	switch a.a.col {
	case "price":
		f, a.float = c.price[i], true
	case "qty":
		a.sumI += c.qty[i]
		f = float64(c.qty[i])
	case "ts":
		a.sumI += c.ts[i]
		f = float64(c.ts[i])
	}
	a.sumF += f
	if a.n == 1 || f < a.lo {
		a.lo = f
	}
	if a.n == 1 || f > a.hi {
		a.hi = f
	}
}

// value mirrors the engine's conventions: count is always defined, the
// others are NULL over zero rows; integer columns sum/min/max exactly.
func (a *acc) value() any {
	if a.a.fn == "count" {
		return a.n
	}
	if a.n == 0 {
		return nil
	}
	var f float64
	switch a.a.fn {
	case "sum":
		if !a.float {
			return a.sumI
		}
		f = a.sumF
	case "avg":
		return a.sumF / float64(a.n)
	case "min":
		f = a.lo
	case "max":
		f = a.hi
	}
	if !a.float {
		return int64(f)
	}
	return f
}

func newAccs(aggs []agg) []acc {
	out := make([]acc, len(aggs))
	for i, a := range aggs {
		out[i].a = a
	}
	return out
}

func accRow(prefix []any, accs []acc) []any {
	for i := range accs {
		prefix = append(prefix, accs[i].value())
	}
	return prefix
}

// eval answers r by brute force over the first n rows of c.
func eval(c *columns, r request, n int) answer {
	st := r.st
	match := matcher(c, r)
	ans := answer{cols: st.projection(), rows: [][]any{}}
	switch {
	case st.group != "":
		groups := map[string][]acc{}
		for i := 0; i < n; i++ {
			if !match(i) {
				continue
			}
			g, ok := groups[c.city[i]]
			if !ok {
				g = newAccs(st.aggs)
				groups[c.city[i]] = g
			}
			for k := range g {
				g[k].add(c, i)
			}
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ans.rows = append(ans.rows, accRow([]any{k}, groups[k]))
		}
	case len(st.aggs) > 0:
		accs := newAccs(st.aggs)
		for i := 0; i < n; i++ {
			if match(i) {
				for k := range accs {
					accs[k].add(c, i)
				}
			}
		}
		ans.rows = append(ans.rows, accRow(nil, accs))
	default:
		var ids []int
		if st.orderBy == "price" {
			// top-k by price descending, ties by ascending id: keep the
			// best st.limit ids in rank order.
			for i := 0; i < n; i++ {
				if !match(i) {
					continue
				}
				if len(ids) == st.limit && c.price[i] <= c.price[ids[len(ids)-1]] {
					continue
				}
				at := sort.Search(len(ids), func(k int) bool { return c.price[ids[k]] < c.price[i] })
				ids = append(ids, 0)
				copy(ids[at+1:], ids[at:])
				ids[at] = i
				if len(ids) > st.limit {
					ids = ids[:st.limit]
				}
			}
		} else {
			for i := 0; i < n && len(ids) < st.limit; i++ {
				if match(i) {
					ids = append(ids, i)
				}
			}
		}
		for _, id := range ids {
			row := make([]any, len(ans.cols))
			for k, col := range ans.cols {
				row[k] = c.cell(col, id)
			}
			ans.rows = append(ans.rows, row)
		}
	}
	return ans
}

// ---- table-API equivalent ----

// tableStmt is the table-API form of a statement, prepared once the
// way sql.Compile prepares it (one >=, < or = leaf per comparison).
type tableStmt struct {
	st   *stmt
	prep *table.Prepared
	aggs []table.AggSpec
}

func prepareTable(t *table.Table, st *stmt) (*tableStmt, error) {
	var leaves []table.Predicate
	for _, c := range st.conds {
		var b table.Bound
		switch c.col {
		case "ts", "qty":
			b = table.Param[int64](c.param)
		case "price":
			b = table.Param[float64](c.param)
		case "pri":
			b = table.Param[uint8](c.param)
		default:
			b = table.StrParam(c.param)
		}
		switch c.op {
		case ">=":
			leaves = append(leaves, table.AtLeastP(c.col, b))
		case "<":
			leaves = append(leaves, table.LessThanP(c.col, b))
		default:
			leaves = append(leaves, table.EqualsP(c.col, b))
		}
	}
	var pred table.Predicate
	if len(leaves) > 0 {
		pred = table.And(leaves...)
	}
	prep, err := t.Prepare(pred, table.SelectOptions{})
	if err != nil {
		return nil, err
	}
	ts := &tableStmt{st: st, prep: prep}
	if len(st.aggs) == 0 {
		prep.Select(st.projection()...)
	}
	for _, a := range st.aggs {
		switch a.fn {
		case "count":
			ts.aggs = append(ts.aggs, table.CountAll())
		case "sum":
			ts.aggs = append(ts.aggs, table.Sum(a.col))
		case "avg":
			ts.aggs = append(ts.aggs, table.Avg(a.col))
		case "min":
			ts.aggs = append(ts.aggs, table.Min(a.col))
		case "max":
			ts.aggs = append(ts.aggs, table.Max(a.col))
		}
	}
	return ts, nil
}

// query binds one execution (serial, like imprintd -parallelism 1).
func (ts *tableStmt) query(r request) *table.Query {
	q := ts.prep.Exec().Options(table.SelectOptions{Parallelism: 1})
	for _, c := range ts.st.conds {
		v := r.params[c.param]
		if c.col == "pri" {
			v = uint8(v.(int64))
		}
		q = q.Bind(c.param, v)
	}
	if ts.st.orderBy != "" {
		q.OrderBy(table.Desc(ts.st.orderBy))
	}
	if ts.st.limit >= 0 {
		q.Limit(ts.st.limit)
	}
	return q
}

func aggCell(v table.AggValue) any {
	switch {
	case !v.Valid:
		return nil
	case v.IsInt:
		return v.Int
	case v.IsStr:
		return v.Str
	}
	return v.Float
}

// exec runs the statement through the table API and shapes the result
// like the SQL layer does.
func (ts *tableStmt) exec(r request) (answer, error) {
	st := ts.st
	ans := answer{cols: st.projection(), rows: [][]any{}}
	q := ts.query(r)
	switch {
	case st.group != "":
		gr, _, err := q.GroupBy(st.group).Aggregate(ts.aggs...)
		if err != nil {
			return ans, err
		}
		for _, g := range gr.Groups {
			row := []any{g.Key}
			for _, v := range g.Aggs {
				row = append(row, aggCell(v))
			}
			ans.rows = append(ans.rows, row)
		}
	case len(st.aggs) > 0:
		ar, _, err := q.Aggregate(ts.aggs...)
		if err != nil {
			return ans, err
		}
		var row []any
		for i := 0; i < ar.Len(); i++ {
			row = append(row, aggCell(ar.At(i)))
		}
		ans.rows = append(ans.rows, row)
	default:
		for _, row := range q.Rows() {
			out := make([]any, len(ans.cols))
			for i := range out {
				out[i] = normCell(row.Value(i))
			}
			ans.rows = append(ans.rows, out)
		}
		if err := q.Err(); err != nil {
			return ans, err
		}
	}
	return ans, nil
}

// normCell widens a typed column value to the oracle's cell types.
func normCell(v any) any {
	switch x := v.(type) {
	case uint8:
		return int64(x)
	case int:
		return int64(x)
	}
	return v
}

// ---- comparing ----

// parseResponse decodes a /query 200 body into an answer (numbers kept
// as json.Number so int64 cells compare exactly).
func parseResponse(body []byte) (answer, error) {
	var resp struct {
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		RowCount int      `json:"row_count"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return answer{}, fmt.Errorf("decoding response: %w", err)
	}
	if resp.RowCount != len(resp.Rows) {
		return answer{}, fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	return answer{cols: resp.Columns, rows: resp.Rows}, nil
}

// asFloat reads any numeric cell.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	}
	return 0, false
}

// sameCell compares a response cell with an expected one: integers and
// strings exactly, floats to 1e-9 relative (float sums depend on the
// order rows are folded in, which differs between engine and oracle).
func sameCell(got, want any) bool {
	switch w := want.(type) {
	case nil:
		return got == nil
	case string:
		return got == w
	case int64:
		switch g := got.(type) {
		case int64:
			return g == w
		case json.Number:
			n, err := g.Int64()
			return err == nil && n == w
		}
		return false
	}
	g, ok1 := asFloat(got)
	w, ok2 := asFloat(want)
	return ok1 && ok2 && math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
}

// sameAnswer reports the first difference between got and want.
func sameAnswer(got, want answer) error {
	if fmt.Sprint(got.cols) != fmt.Sprint(want.cols) {
		return fmt.Errorf("columns %v, want %v", got.cols, want.cols)
	}
	if len(got.rows) != len(want.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if len(got.rows[i]) != len(want.rows[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got.rows[i]), len(want.rows[i]))
		}
		for k := range want.rows[i] {
			if !sameCell(got.rows[i][k], want.rows[i][k]) {
				return fmt.Errorf("row %d %s = %v, want %v", i, want.cols[k], got.rows[i][k], want.rows[i][k])
			}
		}
	}
	return nil
}

// between checks lo <= got <= hi on numeric cells, a NULL bound (no row
// qualified) counting as 0; every aggregated column is non-negative.
func between(got, lo, hi any) bool {
	g, _ := asFloat(got)
	l, _ := asFloat(lo)
	h, _ := asFloat(hi)
	slack := 1e-9 * math.Max(1, math.Abs(h))
	return g >= l-slack && g <= h+slack
}

// withinBounds checks a read that raced inserts: got must lie between
// the answer over the base rows (lo) and the answer over base plus
// every row sent (hi). Inserts only add rows, so counts, sums and
// maxima grow, minima shrink, and a limited row list only fills up;
// row statements are also re-checked row by row against the predicate.
func withinBounds(r request, got, lo, hi answer) error {
	st := r.st
	if fmt.Sprint(got.cols) != fmt.Sprint(hi.cols) {
		return fmt.Errorf("columns %v, want %v", got.cols, hi.cols)
	}
	aggsOK := func(got, lo, hi []any, off int) error {
		if len(got) != off+len(st.aggs) {
			return fmt.Errorf("%d cells, want %d", len(got), off+len(st.aggs))
		}
		for k, a := range st.aggs {
			g, l, h := got[off+k], any(nil), hi[off+k]
			if lo != nil {
				l = lo[off+k]
			}
			ok := true
			switch a.fn {
			case "min":
				if l == nil {
					l = g // no base row qualified: nothing bounds it from above
				}
				ok = g == nil && l == nil || between(g, h, l)
			case "avg":
				// not monotone under inserts: checked against the same
				// reply's own sum and count below.
			default:
				ok = between(g, l, h)
			}
			if !ok {
				return fmt.Errorf("%s = %v outside [%v, %v]", a, g, l, h)
			}
		}
		return nil
	}
	switch {
	case st.group != "":
		loBy, hiBy := map[any][]any{}, map[any][]any{}
		for _, row := range lo.rows {
			loBy[row[0]] = row
		}
		for _, row := range hi.rows {
			hiBy[row[0]] = row
		}
		for _, row := range got.rows {
			h, ok := hiBy[row[0]]
			if !ok {
				return fmt.Errorf("group %v has no rows", row[0])
			}
			if err := aggsOK(row, loBy[row[0]], h, 1); err != nil {
				return fmt.Errorf("group %v: %w", row[0], err)
			}
		}
		if len(got.rows) < len(lo.rows) {
			return fmt.Errorf("%d groups, base alone has %d", len(got.rows), len(lo.rows))
		}
	case len(st.aggs) > 0:
		if len(got.rows) != 1 {
			return fmt.Errorf("%d rows, want 1", len(got.rows))
		}
		if err := aggsOK(got.rows[0], lo.rows[0], hi.rows[0], 0); err != nil {
			return err
		}
		if st == stPriceAgg && got.rows[0][2] != nil {
			sum, _ := asFloat(got.rows[0][0])
			n, _ := asFloat(got.rows[0][2])
			if n > 0 && !sameCell(got.rows[0][1], sum/n) {
				return fmt.Errorf("avg %v is not sum/count = %v", got.rows[0][1], sum/n)
			}
		}
	default:
		if len(got.rows) < len(lo.rows) || len(got.rows) > len(hi.rows) {
			return fmt.Errorf("%d rows outside [%d, %d]", len(got.rows), len(lo.rows), len(hi.rows))
		}
		// Rebuild each returned row as a one-row relation and re-apply
		// the predicate to it.
		one := rowColumns(got)
		if one == nil {
			return fmt.Errorf("malformed row cells")
		}
		match := matcher(one, r)
		for i := range got.rows {
			if !match(i) {
				return fmt.Errorf("row %d %v does not satisfy the predicate", i, got.rows[i])
			}
			if st.orderBy == "price" && i > 0 && one.price[i] > one.price[i-1] {
				return fmt.Errorf("row %d out of order", i)
			}
		}
	}
	return nil
}

// rowColumns turns a row result back into columns (absent columns stay
// zero; every statement projects the columns its predicate reads).
func rowColumns(a answer) *columns {
	n := len(a.rows)
	c := &columns{ts: make([]int64, n), qty: make([]int64, n), price: make([]float64, n),
		pri: make([]uint8, n), city: make([]string, n)}
	for i, row := range a.rows {
		if len(row) != len(a.cols) {
			return nil
		}
		for k, col := range a.cols {
			switch col {
			case "city":
				s, ok := row[k].(string)
				if !ok {
					return nil
				}
				c.city[i] = s
			default:
				f, ok := asFloat(row[k])
				if !ok {
					return nil
				}
				switch col {
				case "ts":
					c.ts[i] = int64(f)
				case "qty":
					c.qty[i] = int64(f)
				case "price":
					c.price[i] = f
				case "pri":
					c.pri[i] = uint8(f)
				}
			}
		}
	}
	return c
}
