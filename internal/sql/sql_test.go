package sql

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/table"
)

// testTable builds a deterministic multi-segment orders table: qty
// (int64), price (float64), pri (uint8), city (string).
func testTable(t testing.TB, rows int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cities := []string{"Amsterdam", "Athens", "Berlin", "Bern", "Lisbon", "Madrid", "Oslo", "Paris", "Prague", "Rome"}
	qty := make([]int64, rows)
	price := make([]float64, rows)
	pri := make([]uint8, rows)
	city := make([]string, rows)
	for i := 0; i < rows; i++ {
		qty[i] = int64(rng.Intn(1000))
		price[i] = float64(rng.Intn(10000)) / 100
		pri[i] = uint8(rng.Intn(5))
		city[i] = cities[rng.Intn(len(cities))]
	}
	tb := table.NewWithOptions("orders", table.TableOptions{SegmentRows: 256})
	if err := table.AddColumn(tb, "qty", qty, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "price", price, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "pri", pri, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNormalize(t *testing.T) {
	cases := [][2]string{
		{"select  *  from orders", "SELECT * FROM orders"},
		{"Select qty,price From orders Where qty>=10 And city='Oslo'",
			"SELECT qty, price FROM orders WHERE qty >= 10 AND city = 'Oslo'"},
		{"select COUNT( * ) from orders", "SELECT count(*) FROM orders"},
		{"select sum(qty) from orders where city in('a','b')",
			"SELECT sum(qty) FROM orders WHERE city IN ('a', 'b')"},
		{"select * from orders where qty <> 5", "SELECT * FROM orders WHERE qty != 5"},
		{"select * from orders where city = 'O''Hare'", "SELECT * FROM orders WHERE city = 'O''Hare'"},
		{"select * from orders where qty = $q limit 3", "SELECT * FROM orders WHERE qty = $q LIMIT 3"},
	}
	for _, c := range cases {
		if got := Normalize(c[0]); got != c[1] {
			t.Errorf("Normalize(%q) = %q, want %q", c[0], got, c[1])
		}
	}
	// Same statement, different spelling: one cache key.
	if Normalize("select * from orders where qty<5") != Normalize("SELECT  *  FROM orders WHERE qty < 5") {
		t.Error("equivalent spellings normalize differently")
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src string
		pos int
		sub string
	}{
		{"", 1, "expected SELECT"},
		{"frobnicate", 1, "expected SELECT"},
		{"select", 7, "expected column or aggregate"},
		{"select * frm orders", 10, "expected FROM"},
		{"select * from", 14, "expected table name"},
		{"select * from orders where", 27, "expected a condition"},
		{"select * from orders where qty", 31, "comparison operator"},
		{"select * from orders where qty = ", 34, "expected a literal"},
		{"select * from orders where qty = 'x' order", 43, "expected BY"},
		{"select * from orders limit -1", 28, "non-negative integer"},
		{"select * from orders where qty = 5 trailing", 36, "after end of statement"},
		{"select * from orders where city = 'unterminated", 35, "unterminated string"},
		{"select * from orders where qty = $", 34, "placeholder needs a name"},
		{"select * from orders where qty ~ 5", 32, "unexpected"},
		{"select min(*) from orders", 12, "min(*) is not supported"},
		{"select count(qty) from orders", 14, "count wants '*'"},
		{"select * from orders where qty = 12abc", 34, "malformed number"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): no error, want one at position %d", c.src, c.pos)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): error %v is not a *ParseError", c.src, err)
			continue
		}
		if pe.Pos != c.pos || !strings.Contains(pe.Msg, c.sub) {
			t.Errorf("Parse(%q) = pos %d %q, want pos %d containing %q", c.src, pe.Pos, pe.Msg, c.pos, c.sub)
		}
	}
}

func TestCompileErrorsCarryPositions(t *testing.T) {
	tb := testTable(t, 512)
	cases := []struct {
		src string
		pos int
		sub string
	}{
		{"select * from nope", 15, "unknown table"},
		{"select nope from orders", 8, "no column"},
		{"select * from orders where nope = 5", 28, "no column"},
		{"select * from orders where qty = 'x'", 34, "string literal on int64 column"},
		{"select * from orders where qty = 1.5", 34, "float literal"},
		{"select * from orders where pri = 300", 34, "out of range for uint8"},
		{"select * from orders where pri = -1", 34, "out of range for uint8"},
		{"select * from orders where city = 5", 35, "numeric literal on string column"},
		{"select * from orders where qty not in (1,2)", 32, "NOT IN is not supported"},
		{"select * from orders where not city like 'a%'", 37, "NOT LIKE is not supported"},
		{"select * from orders where qty like 'a%'", 32, "LIKE needs a string column"},
		{"select * from orders where city like '%a'", 33, "prefix patterns"},
		{"select * from orders where city like 'a_b%'", 33, "single trailing"},
		{"select * from orders where city in ('a', $p)", 42, "IN lists mix no placeholders"},
		{"select qty from orders group by city", 8, "must appear in GROUP BY"},
		{"select price, count(*) from orders", 8, "must appear in GROUP BY"},
		{"select city, count(*) from orders group by city order by city", 49, "ORDER BY does not combine"},
		{"select city, count(*) from orders group by city limit 5", 49, "LIMIT does not combine"},
		{"select count(*) from orders order by qty", 29, "ORDER BY does not apply"},
		{"select sum(city) from orders", 8, "sum and avg need numeric"},
		{"select price, count(*) from orders group by price", 36, "integer or string"},
		{"select * from orders where qty = $a and city = $a", 48, "used as both"},
	}
	for _, c := range cases {
		_, err := Compile(tb, c.src)
		if err == nil {
			t.Errorf("Compile(%q): no error, want one at position %d", c.src, c.pos)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Compile(%q): error %v is not a *ParseError", c.src, err)
			continue
		}
		if pe.Pos != c.pos || !strings.Contains(pe.Msg, c.sub) {
			t.Errorf("Compile(%q) = pos %d %q, want pos %d containing %q", c.src, pe.Pos, pe.Msg, c.pos, c.sub)
		}
	}
}

// TestExecAgainstNativeCount cross-checks a few fixed statements
// against hand-built native queries.
func TestExecAgainstNativeCount(t *testing.T) {
	tb := testTable(t, 2000)
	check := func(src string, pred table.Predicate) {
		t.Helper()
		st, err := Compile(tb, src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", src, err)
		}
		res, err := st.Exec(nil, table.SelectOptions{})
		if err != nil {
			t.Fatalf("Exec(%q): %v", src, err)
		}
		want, _, err := tb.Select().Where(pred).Count()
		if err != nil {
			t.Fatal(err)
		}
		got := res.Rows()[0][0].(int64)
		if uint64(got) != want {
			t.Errorf("%q: sql count %d, native %d", src, got, want)
		}
	}
	check("select count(*) from orders where qty >= 100 and qty < 200",
		table.Range[int64]("qty", 100, 200))
	check("select count(*) from orders where qty > 500",
		table.AndNot(table.AtLeast[int64]("qty", 500), table.Equals[int64]("qty", 500)))
	check("select count(*) from orders where qty <= 500",
		table.Or(table.LessThan[int64]("qty", 500), table.Equals[int64]("qty", 500)))
	check("select count(*) from orders where qty != 500",
		table.Or(table.LessThan[int64]("qty", 500),
			table.AndNot(table.AtLeast[int64]("qty", 500), table.Equals[int64]("qty", 500))))
	check("select count(*) from orders where not qty < 500",
		table.AtLeast[int64]("qty", 500))
	check("select count(*) from orders where not (qty < 500 or city = 'Oslo')",
		table.And(table.AtLeast[int64]("qty", 500),
			table.Or(table.StrLessThan("city", "Oslo"),
				table.AndNot(table.StrAtLeast("city", "Oslo"), table.StrEquals("city", "Oslo")))))
	check("select count(*) from orders where city like 'B%'",
		table.StrPrefix("city", "B"))
	check("select count(*) from orders where qty in (1, 2, 3, 700)",
		table.In[int64]("qty", 1, 2, 3, 700))
	check("select count(*) from orders where city in ('Oslo', 'Rome')",
		table.StrIn("city", "Oslo", "Rome"))
	check("select count(*) from orders where price < 25.5",
		table.LessThan[float64]("price", 25.5))
	check("select count(*) from orders where pri >= 3",
		table.AtLeast[uint8]("pri", 3))
}

func TestExecBindsAndConversion(t *testing.T) {
	tb := testTable(t, 1000)
	st, err := Compile(tb, "select count(*) from orders where qty >= $lo and qty < $hi and city in $cs")
	if err != nil {
		t.Fatal(err)
	}
	want := []ParamInfo{{Name: "cs", Type: "[]string"}, {Name: "hi", Type: "int64"}, {Name: "lo", Type: "int64"}}
	if got := st.Params(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Params() = %v, want %v", got, want)
	}
	native, _, err := tb.Select().Where(table.And(
		table.Range[int64]("qty", 100, 600),
		table.StrIn("city", "Bern", "Paris"),
	)).Count()
	if err != nil {
		t.Fatal(err)
	}
	// Native Go values and decoded-JSON values both convert.
	for _, binds := range []map[string]any{
		{"lo": int64(100), "hi": int64(600), "cs": []string{"Bern", "Paris"}},
		{"lo": json.Number("100"), "hi": json.Number("600"), "cs": []any{"Bern", "Paris"}},
	} {
		res, err := st.Exec(binds, table.SelectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows()[0][0].(int64); uint64(got) != native {
			t.Errorf("binds %v: count %d, native %d", binds, got, native)
		}
	}
	// Unbound, unknown, and ill-typed binds all fail cleanly.
	if _, err := st.Exec(map[string]any{"lo": int64(1), "hi": int64(2)}, table.SelectOptions{}); err == nil || !strings.Contains(err.Error(), "unbound parameter $cs") {
		t.Errorf("missing bind: %v", err)
	}
	if _, err := st.Exec(map[string]any{"lo": int64(1), "hi": int64(2), "cs": []string{}, "zz": 1}, table.SelectOptions{}); err == nil || !strings.Contains(err.Error(), "unknown parameter $zz") {
		t.Errorf("unknown bind: %v", err)
	}
	if _, err := st.Exec(map[string]any{"lo": "x", "hi": int64(2), "cs": []string{}}, table.SelectOptions{}); err == nil || !strings.Contains(err.Error(), "$lo") {
		t.Errorf("ill-typed bind: %v", err)
	}
	// Narrow-typed params range-check at bind time.
	st2, err := Compile(tb, "select count(*) from orders where pri = $p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Exec(map[string]any{"p": json.Number("300")}, table.SelectOptions{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range bind: %v", err)
	}
	if _, err := st2.Exec(map[string]any{"p": json.Number("3")}, table.SelectOptions{}); err != nil {
		t.Errorf("in-range bind: %v", err)
	}
}

func TestExecRowsOrderLimitAndGroup(t *testing.T) {
	tb := testTable(t, 1500)
	// Top-k rows in order.
	st, err := Compile(tb, "select qty, city from orders where qty >= 900 order by qty desc limit 5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(nil, table.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Columns, []string{"qty", "city"}) {
		t.Fatalf("columns %v", res.Columns)
	}
	rows := res.Rows()
	if res.RowCount != 5 || len(rows) != 5 {
		t.Fatalf("rows %d, want 5", res.RowCount)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].(int64) < rows[i][0].(int64) {
			t.Fatalf("rows not descending: %v", rows)
		}
	}
	// Grouped aggregation matches the native grouped result.
	st, err = Compile(tb, "select city, count(*), sum(qty) from orders where qty < 500 group by city")
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.Exec(nil, table.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gr, _, err := tb.Select().Where(table.LessThan[int64]("qty", 500)).
		GroupBy("city").Aggregate(table.CountAll(), table.Sum("qty"))
	if err != nil {
		t.Fatal(err)
	}
	if rows = res.Rows(); len(rows) != len(gr.Groups) {
		t.Fatalf("%d groups, native %d", len(rows), len(gr.Groups))
	}
	for i, g := range gr.Groups {
		row := rows[i]
		if row[0].(string) != g.Key.(string) || row[1].(int64) != g.Aggs[0].Int || row[2].(int64) != g.Aggs[1].Int {
			t.Fatalf("group %d: sql %v, native %+v", i, row, g)
		}
	}
	// Aggregates over zero qualifying rows are null, count is 0.
	st, err = Compile(tb, "select count(*), min(price), avg(qty) from orders where qty > 100000")
	if err != nil {
		t.Fatal(err)
	}
	res, err = st.Exec(nil, table.SelectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Rows()[0]; row[0].(int64) != 0 || row[1] != nil || row[2] != nil {
		t.Fatalf("zero-row aggregates: %v", row)
	}
}

func TestExplain(t *testing.T) {
	tb := testTable(t, 1000)
	st, err := Compile(tb, "select * from orders where qty >= $lo limit 10")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Explain(map[string]any{"lo": int64(500)}, table.SelectOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("nil plan")
	}
	if _, err := json.Marshal(plan); err != nil {
		t.Fatalf("plan does not marshal: %v", err)
	}
	st, err = Compile(tb, "select sum(price) from orders where city = 'Oslo'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Explain(nil, table.SelectOptions{Parallelism: 1}); err != nil {
		t.Fatalf("aggregate explain: %v", err)
	}
}

// errors.As helper check: Compile of valid SQL on the wrong table.
func TestStatementMetadata(t *testing.T) {
	tb := testTable(t, 300)
	st, err := Compile(tb, "select * from orders where qty = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Table() != "orders" {
		t.Errorf("Table() = %q", st.Table())
	}
	if st.SQL != "SELECT * FROM orders WHERE qty = 1" {
		t.Errorf("SQL = %q", st.SQL)
	}
	if fmt.Sprint(st.Params()) != "[]" {
		t.Errorf("Params() = %v", st.Params())
	}
}
