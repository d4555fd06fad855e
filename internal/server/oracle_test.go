package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/table"
)

// The randomized oracle: generate queries from a spec that can render
// itself as SQL AND evaluate itself directly over the raw column
// arrays, run the SQL through the full HTTP handler stack
// (lexer → parser → planner → prepared cache → worker pool → table),
// and require the JSON rows to be byte-identical to the independently
// computed ground truth.

// oPred is a WHERE-clause spec: renders to SQL and evaluates rows.
type oPred interface {
	sql() string
	eval(d *ordersData, i int) bool
}

type oCmp struct {
	col   string // qty, price, pri, city
	op    string
	numV  float64 // numeric literal (exact for the int columns' range)
	strV  string
	param string // when non-empty, rendered as $param
}

func (c *oCmp) rhs() string {
	if c.param != "" {
		return "$" + c.param
	}
	if c.col == "city" {
		return "'" + strings.ReplaceAll(c.strV, "'", "''") + "'"
	}
	if c.col == "price" {
		return fmt.Sprintf("%v", c.numV)
	}
	return fmt.Sprintf("%d", int64(c.numV))
}

func (c *oCmp) sql() string { return fmt.Sprintf("%s %s %s", c.col, c.op, c.rhs()) }

func cmpHolds[T int64 | float64 | string](op string, a, b T) bool {
	switch op {
	case "=":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	panic("bad op " + op)
}

func (c *oCmp) eval(d *ordersData, i int) bool {
	switch c.col {
	case "qty":
		return cmpHolds(c.op, d.qty[i], int64(c.numV))
	case "pri":
		return cmpHolds(c.op, int64(d.pri[i]), int64(c.numV))
	case "price":
		return cmpHolds(c.op, d.price[i], c.numV)
	case "city":
		return cmpHolds(c.op, d.city[i], c.strV)
	}
	panic("bad col " + c.col)
}

type oIn struct {
	col   string // qty or city
	nums  []int64
	strs  []string
	param string // when non-empty, IN $param binding the whole list
}

func (c *oIn) sql() string {
	if c.param != "" {
		return fmt.Sprintf("%s in $%s", c.col, c.param)
	}
	var parts []string
	if c.col == "qty" {
		for _, v := range c.nums {
			parts = append(parts, fmt.Sprintf("%d", v))
		}
	} else {
		for _, v := range c.strs {
			parts = append(parts, "'"+v+"'")
		}
	}
	return fmt.Sprintf("%s in (%s)", c.col, strings.Join(parts, ", "))
}

func (c *oIn) eval(d *ordersData, i int) bool {
	if c.col == "qty" {
		for _, v := range c.nums {
			if d.qty[i] == v {
				return true
			}
		}
		return false
	}
	for _, v := range c.strs {
		if d.city[i] == v {
			return true
		}
	}
	return false
}

type oLike struct{ prefix string }

func (c *oLike) sql() string { return "city like '" + c.prefix + "%'" }
func (c *oLike) eval(d *ordersData, i int) bool {
	return strings.HasPrefix(d.city[i], c.prefix)
}

type oBool struct {
	op   string // and | or
	kids []oPred
}

func (c *oBool) sql() string {
	parts := make([]string, len(c.kids))
	for i, k := range c.kids {
		parts[i] = "(" + k.sql() + ")"
	}
	return strings.Join(parts, " "+c.op+" ")
}

func (c *oBool) eval(d *ordersData, i int) bool {
	for _, k := range c.kids {
		hit := k.eval(d, i)
		if c.op == "and" && !hit {
			return false
		}
		if c.op == "or" && hit {
			return true
		}
	}
	return c.op == "and"
}

type oNot struct{ kid oPred }

func (c *oNot) sql() string                    { return "not (" + c.kid.sql() + ")" }
func (c *oNot) eval(d *ordersData, i int) bool { return !c.kid.eval(d, i) }

// oracleGen builds random query specs plus their parameter binds.
type oracleGen struct {
	rng    *rand.Rand
	params map[string]any
	nparam int
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

// leaf generates a comparison. underNot restricts to plain
// comparisons: the planner deliberately rejects NOT IN and NOT LIKE,
// so those must not appear beneath a NOT.
func (g *oracleGen) leaf(underNot bool) oPred {
	n := 7
	if underNot {
		n = 4
	}
	switch g.rng.Intn(n) {
	case 0:
		return g.maybeParam(&oCmp{col: "qty", op: cmpOps[g.rng.Intn(len(cmpOps))], numV: float64(g.rng.Intn(1000))})
	case 1:
		return g.maybeParam(&oCmp{col: "price", op: cmpOps[g.rng.Intn(len(cmpOps))], numV: float64(g.rng.Intn(10000)) / 100})
	case 2:
		return g.maybeParam(&oCmp{col: "pri", op: cmpOps[g.rng.Intn(len(cmpOps))], numV: float64(g.rng.Intn(6))})
	case 3:
		return g.maybeParam(&oCmp{col: "city", op: cmpOps[g.rng.Intn(len(cmpOps))], strV: oracleCities[g.rng.Intn(len(oracleCities))]})
	case 4:
		n := 1 + g.rng.Intn(4)
		in := &oIn{col: "qty"}
		for i := 0; i < n; i++ {
			in.nums = append(in.nums, int64(g.rng.Intn(1000)))
		}
		if g.rng.Intn(3) == 0 {
			in.param = g.bindName()
			g.params[in.param] = in.nums
		}
		return in
	case 5:
		n := 1 + g.rng.Intn(3)
		in := &oIn{col: "city"}
		for i := 0; i < n; i++ {
			in.strs = append(in.strs, oracleCities[g.rng.Intn(len(oracleCities))])
		}
		if g.rng.Intn(3) == 0 {
			in.param = g.bindName()
			g.params[in.param] = in.strs
		}
		return in
	default:
		prefixes := []string{"A", "B", "Be", "P", "Osl", "Z", ""}
		return &oLike{prefix: prefixes[g.rng.Intn(len(prefixes))]}
	}
}

func (g *oracleGen) bindName() string {
	g.nparam++
	return fmt.Sprintf("p%d", g.nparam)
}

// maybeParam converts a comparison literal to a placeholder bind some
// of the time, exercising the prepared-parameter path.
func (g *oracleGen) maybeParam(c *oCmp) oPred {
	if g.rng.Intn(3) != 0 {
		return c
	}
	c.param = g.bindName()
	switch c.col {
	case "qty", "pri":
		g.params[c.param] = int64(c.numV)
	case "price":
		g.params[c.param] = c.numV
	case "city":
		g.params[c.param] = c.strV
	}
	return c
}

func (g *oracleGen) pred(depth int, underNot bool) oPred {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf(underNot)
	}
	switch g.rng.Intn(3) {
	case 0:
		return &oNot{kid: g.pred(depth-1, true)}
	default:
		ops := []string{"and", "or"}
		n := 2 + g.rng.Intn(2)
		b := &oBool{op: ops[g.rng.Intn(2)]}
		for i := 0; i < n; i++ {
			b.kids = append(b.kids, g.pred(depth-1, underNot))
		}
		return b
	}
}

// colValue reads one raw column value for brute-force projection.
func colValue(d *ordersData, col string, i int) any {
	switch col {
	case "qty":
		return d.qty[i]
	case "price":
		return d.price[i]
	case "pri":
		return d.pri[i]
	case "city":
		return d.city[i]
	}
	panic("bad col " + col)
}

// numKey returns a column's value as a sortable float64 (exact for the
// integer columns' value ranges) or flags the column as string-keyed.
func sortKey(d *ordersData, col string, i int) (float64, string, bool) {
	switch col {
	case "qty":
		return float64(d.qty[i]), "", false
	case "price":
		return d.price[i], "", false
	case "pri":
		return float64(d.pri[i]), "", false
	case "city":
		return 0, d.city[i], true
	}
	panic("bad col " + col)
}

// aggCompute brute-forces one aggregate over the qualifying ids,
// mirroring the documented result typing: exact int64 for integer
// sum/min/max and count, float64 otherwise, nil over zero rows.
// (Only exact aggregates are generated: sum/avg over the float column
// would compare accumulation orders, not semantics.)
func aggCompute(d *ordersData, fn, col string, ids []int) any {
	if fn == "count" {
		return int64(len(ids))
	}
	if len(ids) == 0 {
		return nil
	}
	intVal := func(i int) int64 {
		if col == "qty" {
			return d.qty[i]
		}
		return int64(d.pri[i])
	}
	switch {
	case fn == "sum" || fn == "avg":
		var sum int64
		for _, i := range ids {
			sum += intVal(i)
		}
		if fn == "avg" {
			return float64(sum) / float64(len(ids))
		}
		return sum
	case col == "city":
		best := d.city[ids[0]]
		for _, i := range ids[1:] {
			if (fn == "min") == (d.city[i] < best) && d.city[i] != best {
				best = d.city[i]
			}
		}
		return best
	case col == "price":
		best := d.price[ids[0]]
		for _, i := range ids[1:] {
			if (fn == "min") == (d.price[i] < best) && d.price[i] != best {
				best = d.price[i]
			}
		}
		return best
	default:
		best := intVal(ids[0])
		for _, i := range ids[1:] {
			v := intVal(i)
			if (fn == "min") == (v < best) && v != best {
				best = v
			}
		}
		return best
	}
}

// oracleCase is one full generated query: SQL text, binds, and the
// brute-forced expected columns and rows.
type oracleCase struct {
	sql     string
	params  map[string]any
	columns []string
	rows    [][]any
}

// exact aggregate candidates: (fn, col). sum/avg restricted to the
// integer columns so brute-force addition matches the engine exactly.
var aggCandidates = [][2]string{
	{"count", "*"}, {"sum", "qty"}, {"avg", "qty"}, {"sum", "pri"}, {"avg", "pri"},
	{"min", "qty"}, {"max", "qty"}, {"min", "price"}, {"max", "price"},
	{"min", "pri"}, {"max", "pri"}, {"min", "city"}, {"max", "city"},
}

func aggSQL(fn, col string) string {
	if fn == "count" {
		return "count(*)"
	}
	return fn + "(" + col + ")"
}

// generate builds one random query and its expected result.
func generate(rng *rand.Rand, d *ordersData) oracleCase {
	g := &oracleGen{rng: rng, params: map[string]any{}}
	var where oPred
	whereSQL := ""
	if rng.Intn(5) > 0 {
		where = g.pred(2, false)
		whereSQL = " where " + where.sql()
	}
	ids := make([]int, 0, len(d.qty))
	for i := range d.qty {
		if where == nil || where.eval(d, i) {
			ids = append(ids, i)
		}
	}
	c := oracleCase{params: g.params}
	allCols := []string{"qty", "price", "pri", "city"}
	switch rng.Intn(3) {
	case 0: // plain rows, optional order/limit
		cols := allCols
		proj := "*"
		if rng.Intn(2) == 0 {
			n := 1 + rng.Intn(3)
			cols = nil
			for i := 0; i < n; i++ {
				cols = append(cols, allCols[rng.Intn(len(allCols))])
			}
			proj = strings.Join(cols, ", ")
		}
		suffix := ""
		if rng.Intn(2) == 0 { // ORDER BY
			oc := allCols[rng.Intn(len(allCols))]
			desc := rng.Intn(2) == 0
			dir := " asc"
			if desc {
				dir = " desc"
			}
			suffix = " order by " + oc + dir
			sorted := append([]int(nil), ids...)
			sort.SliceStable(sorted, func(a, b int) bool {
				ka, sa, isStr := sortKey(d, oc, sorted[a])
				kb, sb, _ := sortKey(d, oc, sorted[b])
				if isStr {
					if sa != sb {
						if desc {
							return sa > sb
						}
						return sa < sb
					}
				} else if ka != kb {
					if desc {
						return ka > kb
					}
					return ka < kb
				}
				return sorted[a] < sorted[b]
			})
			ids = sorted
		}
		if rng.Intn(2) == 0 { // LIMIT
			k := rng.Intn(20)
			suffix += fmt.Sprintf(" limit %d", k)
			if len(ids) > k {
				ids = ids[:k]
			}
		}
		c.sql = "select " + proj + " from orders" + whereSQL + suffix
		c.columns = cols
		for _, i := range ids {
			row := make([]any, len(cols))
			for j, col := range cols {
				row[j] = colValue(d, col, i)
			}
			c.rows = append(c.rows, row)
		}
	case 1: // aggregates
		n := 1 + rng.Intn(3)
		var parts []string
		row := make([]any, n)
		for i := 0; i < n; i++ {
			a := aggCandidates[rng.Intn(len(aggCandidates))]
			parts = append(parts, aggSQL(a[0], a[1]))
			row[i] = aggCompute(d, a[0], a[1], ids)
		}
		c.sql = "select " + strings.Join(parts, ", ") + " from orders" + whereSQL
		c.columns = parts
		c.rows = [][]any{row}
	default: // group by
		key := []string{"city", "pri", "qty"}[rng.Intn(3)]
		n := 1 + rng.Intn(2)
		var aggs [][2]string
		for i := 0; i < n; i++ {
			aggs = append(aggs, aggCandidates[rng.Intn(len(aggCandidates))])
		}
		c.columns = []string{key}
		parts := []string{key}
		for _, a := range aggs {
			parts = append(parts, aggSQL(a[0], a[1]))
			c.columns = append(c.columns, aggSQL(a[0], a[1]))
		}
		c.sql = "select " + strings.Join(parts, ", ") + " from orders" + whereSQL + " group by " + key
		// Partition ids by key, ascending.
		byKey := map[any][]int{}
		for _, i := range ids {
			var k any
			switch key {
			case "city":
				k = d.city[i]
			case "pri":
				k = int64(d.pri[i])
			default:
				k = d.qty[i]
			}
			byKey[k] = append(byKey[k], i)
		}
		keys := make([]any, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if key == "city" {
				return keys[a].(string) < keys[b].(string)
			}
			return keys[a].(int64) < keys[b].(int64)
		})
		for _, k := range keys {
			row := []any{k}
			for _, a := range aggs {
				row = append(row, aggCompute(d, a[0], a[1], byKey[k]))
			}
			c.rows = append(c.rows, row)
		}
	}
	return c
}

// marshalNoEscape matches the server's JSON encoding (no HTML
// escaping) so plan comparisons are byte-exact.
func marshalNoEscape(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(buf.Bytes())
}

// bufferedOrdersTable rebuilds d as a table of the given shard count
// whose last buffered rows sit unsealed in the delta store (serial
// commits fill the id space densely, so row i keeps id i at any shard
// count).
func bufferedOrdersTable(t *testing.T, d *ordersData, shards, buffered int) *table.Table {
	t.Helper()
	sealed := len(d.qty) - buffered
	tb := table.NewWithOptions("orders", table.TableOptions{SegmentRows: 256, Shards: shards})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(table.AddColumn(tb, "qty", d.qty[:sealed], table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "price", d.price[:sealed], table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "pri", d.pri[:sealed], table.Imprints, core.Options{}))
	must(tb.AddStringColumn("city", d.city[:sealed], table.Imprints, core.Options{}))
	must(tb.EnableDeltaIngest(table.IngestOptions{}))
	t.Cleanup(func() { tb.Close() })
	for lo := sealed; lo < len(d.qty); lo += 100 {
		hi := min(lo+100, len(d.qty))
		b := tb.NewBatch()
		must(table.Append(b, "qty", d.qty[lo:hi]))
		must(table.Append(b, "price", d.price[lo:hi]))
		must(table.Append(b, "pri", d.pri[lo:hi]))
		must(b.AppendStrings("city", d.city[lo:hi]))
		must(b.Commit())
	}
	if got := tb.IngestStats().DeltaRows; got != buffered {
		t.Fatalf("shards=%d: %d rows buffered, want %d", shards, got, buffered)
	}
	return tb
}

// TestRandomizedSQLOracle runs generated queries through the HTTP
// stack — at 1, 2 and 4 shards × parallelism 1, 2 and 8, a quarter of
// the rows still buffered in the delta store — and requires
// byte-identical rows from three routes: the reply (typed batches
// through the hand encoder), the same execution's boxed Result.Rows
// through encoding/json, and the brute-forced ground truth.
func TestRandomizedSQLOracle(t *testing.T) {
	_, d := newOrdersTable(t, 1200, 42)
	rng := rand.New(rand.NewSource(271828))
	iters := 45
	if testing.Short() {
		iters = 7
	}
	for _, shards := range []int{1, 2, 4} {
		tb := bufferedOrdersTable(t, d, shards, 300)
		for _, par := range []int{1, 2, 8} {
			_, ts := newTestServer(t, Config{Table: tb, Workers: 4, CacheSize: 64, Parallelism: par})
			for it := 0; it < iters; it++ {
				c := generate(rng, d)
				tag := fmt.Sprintf("shards=%d par=%d case %d %q (params %v)", shards, par, it, c.sql, c.params)
				status, fields := postQuery(t, ts, QueryRequest{Query: c.sql, Params: c.params})
				if status != http.StatusOK {
					t.Fatalf("%s: status %d: %s", tag, status, fields["error"])
				}
				wantCols, err := json.Marshal(c.columns)
				if err != nil {
					t.Fatal(err)
				}
				if c.rows == nil {
					c.rows = [][]any{}
				}
				wantRows, err := json.Marshal(c.rows)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bytes.TrimSpace(fields["columns"]), wantCols) {
					t.Fatalf("%s: columns\n got %s\nwant %s", tag, fields["columns"], wantCols)
				}
				if !bytes.Equal(bytes.TrimSpace(fields["rows"]), wantRows) {
					t.Fatalf("%s: rows\n got %s\nwant %s", tag, fields["rows"], wantRows)
				}
				if got := string(fields["row_count"]); got != fmt.Sprint(len(c.rows)) {
					t.Fatalf("%s: row_count %s, want %d", tag, got, len(c.rows))
				}
				st, err := sql.Compile(tb, c.sql)
				if err != nil {
					t.Fatalf("%s: compile: %v", tag, err)
				}
				res, err := st.Exec(c.params, table.SelectOptions{Parallelism: par})
				if err != nil {
					t.Fatalf("%s: exec: %v", tag, err)
				}
				if boxed := marshalNoEscape(t, res.Rows()); !bytes.Equal(boxed, wantRows) {
					t.Fatalf("%s: boxed Result.Rows\n got %s\nwant %s", tag, boxed, wantRows)
				}
			}
		}
	}
}

// TestExplainOracle mirrors a few statements with natively-built
// queries using the same predicate lowering and requires byte-identical
// Explain plans through GET /explain.
func TestExplainOracle(t *testing.T) {
	tb, _ := newOrdersTable(t, 1200, 42)
	_, ts := newTestServer(t, Config{Table: tb, Workers: 2, Parallelism: 2})
	opts := table.SelectOptions{Parallelism: 2}

	cases := []struct {
		sql    string
		params string
		build  func() (*table.Plan, error)
	}{
		{
			sql: "select * from orders where qty >= 100 and qty < 200",
			build: func() (*table.Plan, error) {
				return tb.Select("qty", "price", "pri", "city").
					Where(table.And(
						table.AtLeastP("qty", table.Val(int64(100))),
						table.LessThanP("qty", table.Val(int64(200))))).
					Options(opts).Explain()
			},
		},
		{
			sql:    "select * from orders where city = $c limit 7",
			params: `{"c": "Oslo"}`,
			build: func() (*table.Plan, error) {
				prep, err := tb.Prepare(table.EqualsP("city", table.StrParam("c")), opts)
				if err != nil {
					return nil, err
				}
				return prep.Select("qty", "price", "pri", "city").
					Bind("c", "Oslo").Limit(7).Explain()
			},
		},
		{
			sql: "select sum(qty), count(*) from orders where city like 'B%'",
			build: func() (*table.Plan, error) {
				return tb.Select().Where(table.StrPrefix("city", "B")).
					Options(opts).ExplainAggregate(table.Sum("qty"), table.CountAll())
			},
		},
		{
			sql: "select qty from orders where pri >= 3 order by qty desc limit 5",
			build: func() (*table.Plan, error) {
				return tb.Select("qty").
					Where(table.AtLeastP("pri", table.Val(uint8(3)))).
					Options(opts).OrderBy(table.Desc("qty")).Limit(5).Explain()
			},
		},
	}
	for _, tc := range cases {
		u := ts.URL + "/explain?q=" + url.QueryEscape(tc.sql)
		if tc.params != "" {
			u += "&params=" + url.QueryEscape(tc.params)
		}
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d: %s", tc.sql, resp.StatusCode, fields["error"])
		}
		native, err := tc.build()
		if err != nil {
			t.Fatalf("%q: native explain: %v", tc.sql, err)
		}
		want := marshalNoEscape(t, native)
		if !bytes.Equal(bytes.TrimSpace(fields["plan"]), want) {
			t.Errorf("%q: plan\n got %s\nwant %s", tc.sql, fields["plan"], want)
		}
	}
}
