package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/table"
)

// newWideTable builds a one-row table with a column of each width the
// insert validation distinguishes.
func newWideTable(t testing.TB) *table.Table {
	t.Helper()
	tb := table.New("w")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(table.AddColumn(tb, "i8", []int8{1}, table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "u8", []uint8{1}, table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "u64", []uint64{1}, table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "f32", []float32{1}, table.Imprints, core.Options{}))
	must(table.AddColumn(tb, "f64", []float64{1}, table.Imprints, core.Options{}))
	must(tb.AddStringColumn("s", []string{"a"}, table.Imprints, core.Options{}))
	return tb
}

// postBody runs one POST against the handler itself.
func postBody(s *Server, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	out, _ := io.ReadAll(rec.Body)
	return rec.Code, string(out)
}

// insertRow renders a one-row /insert body, each column's value given
// as raw JSON; a column set in over replaces the defaults.
func insertRow(over map[string]string) string {
	vals := map[string]string{"i8": "2", "u8": "2", "u64": "2", "f32": "2.5", "f64": "2.5", "s": `"b"`}
	for k, v := range over {
		vals[k] = v
	}
	var parts []string
	for _, k := range []string{"i8", "u8", "u64", "f32", "f64", "s", "nope"} {
		if v, ok := vals[k]; ok && v != "" {
			parts = append(parts, `"`+k+`":[`+v+`]`)
		}
	}
	return `{"columns":{` + strings.Join(parts, ",") + `}}`
}

// TestInsertValidation: a value a column cannot hold exactly answers
// 400 and commits nothing; a float32 past its range is one of them.
func TestInsertValidation(t *testing.T) {
	s, err := New(Config{Table: newWideTable(t), Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name string
		over map[string]string
		want string // "" accepts the row
	}{
		{"defaults", nil, ""},
		{"float32 max", map[string]string{"f32": "3.4028234663852886e38"}, ""},
		{"float32 subnormal", map[string]string{"f32": "1e-45"}, ""},
		{"float64 beyond float32", map[string]string{"f64": "1e39"}, ""},
		{"uint64 max", map[string]string{"u64": "18446744073709551615"}, ""},
		{"unknown column", map[string]string{"nope": "1"}, `unknown column \"nope\"`},
		{"missing column", map[string]string{"s": ""}, `missing column \"s\"`},
		{"string for int", map[string]string{"i8": `"x"`}, "wants int8"},
		{"int8 overflow", map[string]string{"i8": "128"}, "value 128 out of range for int8"},
		{"uint8 overflow", map[string]string{"u8": "256"}, "value 256 out of range for uint8"},
		{"uint8 negative", map[string]string{"u8": "-1"}, "negative value -1 for uint8"},
		{"uint64 negative", map[string]string{"u64": "-1"}, "negative value -1 for uint64"},
		{"uint64 past max", map[string]string{"u64": "18446744073709551616"}, "wants uint64"},
		{"uint fraction", map[string]string{"u64": "1.5"}, "wants uint64"},
		{"float32 overflow", map[string]string{"f32": "1e39"}, "value 1e+39 out of range for float32"},
		{"float32 negative overflow", map[string]string{"f32": "-3.5e38"}, "value -3.5e+38 out of range for float32"},
		{"float64 overflow", map[string]string{"f64": "1e400"}, "wants float64"},
	} {
		before := s.tbl.Rows()
		code, body := postBody(s, "/insert", insertRow(tc.over))
		switch {
		case tc.want == "" && code != http.StatusOK:
			t.Errorf("%s: status %d: %s", tc.name, code, body)
		case tc.want != "" && (code != http.StatusBadRequest || !strings.Contains(body, tc.want)):
			t.Errorf("%s: status %d body %s, want 400 with %q", tc.name, code, body, tc.want)
		case tc.want != "" && s.tbl.Rows() != before:
			t.Errorf("%s: rejected insert committed rows: %d -> %d", tc.name, before, s.tbl.Rows())
		}
	}
}

// TestUint64AboveMaxInt64RoundTrips: what a /query reply prints for a
// uint64 cell at or above 2^63 is accepted back, by /insert and as a
// $bind; a negative value or one past MaxUint64 still answers 400.
func TestUint64AboveMaxInt64RoundTrips(t *testing.T) {
	s, err := New(Config{Table: newWideTable(t), Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range []string{"9223372036854775808", "18446744073709551615"} {
		if code, body := postBody(s, "/insert", insertRow(map[string]string{"u64": v})); code != http.StatusOK {
			t.Fatalf("insert %s: status %d: %s", v, code, body)
		}
	}
	for _, v := range []string{"9223372036854775808", "18446744073709551615"} {
		for _, q := range []string{"select u64 from w where u64 = $v", "select u64 from w where u64 in $v"} {
			bind := v
			if strings.Contains(q, " in ") {
				bind = "[" + v + "]"
			}
			code, body := postBody(s, "/query", `{"query":"`+q+`","params":{"v":`+bind+`}}`)
			if code != http.StatusOK || !strings.Contains(body, `"rows":[[`+v+`]]`) {
				t.Errorf("%s with $v = %s: status %d body %s", q, bind, code, body)
			}
		}
	}
	for _, v := range []string{"-1", "18446744073709551616"} {
		code, body := postBody(s, "/query", `{"query":"select u64 from w where u64 = $v","params":{"v":`+v+`}}`)
		if code != http.StatusBadRequest {
			t.Errorf("$v = %s: status %d body %s, want 400", v, code, body)
		}
	}
}
