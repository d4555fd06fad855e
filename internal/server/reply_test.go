package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/table"
)

// post runs one POST /query against the handler itself and returns the
// recorded reply.
func post(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return rec
}

// TestNonFiniteFloatsEncodeAsNull is the regression test for the blank
// 200: a NaN or ±Inf cell (a stored float, or a float sum that
// overflowed) used to make encoding/json fail after the status line was
// out, leaving an empty body. Such cells are now null.
func TestNonFiniteFloatsEncodeAsNull(t *testing.T) {
	tb := table.New("m")
	if err := table.AddColumn(tb, "x", []float64{math.NaN(), 1.5, math.Inf(1), math.Inf(-1)}, table.NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "big", []float64{math.MaxFloat64, math.MaxFloat64, 1, 1}, table.NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Table: tb, Workers: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct{ query, rows string }{
		{"select x from m", `"rows":[[null],[1.5],[null],[null]]`},
		{"select sum(big), avg(big), count(*) from m", `"rows":[[null,null,4]]`},
	} {
		rec := post(s, fmt.Sprintf(`{"query":%q}`, tc.query))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.query, rec.Code, rec.Body)
		}
		body := rec.Body.String()
		if !strings.Contains(body, tc.rows) {
			t.Errorf("%s: body %s, want %s in it", tc.query, body, tc.rows)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.query, got, len(body))
		}
	}
	if st := s.Stats(); st.Served != 2 || st.Errors != 0 {
		t.Errorf("served %d, errors %d", st.Served, st.Errors)
	}
}

// TestWriteJSONEncodeFailure pins writeJSON's contract for the
// reflection-encoded endpoints: a value that cannot be encoded answers
// 500 with an ErrorResponse, never the intended status with no body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"load": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	body, _ := io.ReadAll(rec.Body)
	if !strings.HasPrefix(string(body), `{"error":"encoding reply: `) || !strings.HasSuffix(string(body), "\"}\n") {
		t.Fatalf("body %q is not an ErrorResponse", body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte body", got, len(body))
	}
}

// TestHandlerPanicContained provokes a panic inside a timed handler:
// the client gets a 500 with an ErrorResponse, the error counter moves,
// the panic is logged with its stack, and the server keeps serving.
func TestHandlerPanicContained(t *testing.T) {
	tb, _ := newOrdersTable(t, 100, 1)
	var logged []string
	s, err := New(Config{Table: tb, Workers: 1, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boom := s.timed("/query", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	boom(rec, httptest.NewRequest(http.MethodPost, "/query", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error":"internal error: boom"`) {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	st := s.Stats()
	if st.Errors != 1 || st.Endpoints["/query"].Count != 1 {
		t.Errorf("errors %d, /query observations %d, want 1 and 1", st.Errors, st.Endpoints["/query"].Count)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "panic serving /query: boom") || !strings.Contains(logged[0], "reply_test.go") {
		t.Errorf("log %q lacks the panic and its stack", logged)
	}
	// http.ErrAbortHandler is net/http's own signal and passes through.
	abort := s.timed("/query", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	func() {
		defer func() {
			if p := recover(); p != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler re-raised", p)
			}
		}()
		abort(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", nil))
	}()
	if rec := post(s, `{"query":"select count(*) from orders"}`); rec.Code != http.StatusOK {
		t.Fatalf("server stopped serving after a panic: %d %s", rec.Code, rec.Body)
	}
}

// TestRowsReplyAllocsIndependentOfRowCount pins the boxing-free result
// path: executing a rows statement and encoding its reply allocates the
// same whether it returns 200 rows or 2,000 — batches and the reply
// buffer recycle, and no cell is boxed — give or take one allocation
// per batch. (One segment holds all rows: what the executor allocates
// per segment visited is not the result path's.)
func TestRowsReplyAllocsIndependentOfRowCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	const rows = 4000
	qty, price, city := make([]int64, rows), make([]float64, rows), make([]string, rows)
	for i := range qty {
		qty[i], price[i], city[i] = int64(i%977), float64(i)/8, oracleCities[i%len(oracleCities)]
	}
	tb := table.New("orders")
	if err := table.AddColumn(tb, "qty", qty, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "price", price, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	measure := func(limit int) float64 {
		stmt, err := sql.Compile(tb, fmt.Sprintf("select * from orders where qty >= $lo limit %d", limit))
		if err != nil {
			t.Fatal(err)
		}
		params := map[string]any{"lo": int64(0)}
		opts := table.SelectOptions{Parallelism: 1}
		return testing.AllocsPerRun(20, func() {
			res, err := stmt.Exec(params, opts)
			if err != nil || res.RowCount != limit {
				t.Fatalf("exec: %v, %d rows, want %d", err, res.RowCount, limit)
			}
			buf := getReplyBuf()
			*buf = appendQueryResponse(*buf, &QueryResponse{Query: stmt.SQL, Result: res})
			putReplyBuf(buf)
			res.Release()
		})
	}
	small, large := measure(200), measure(2000)
	if batches := 2.0; large > small+batches {
		t.Fatalf("a 2,000-row reply made %.0f allocations, a 200-row reply %.0f: the result path allocates per row", large, small)
	}
}

// TestConcurrentRowsReplies hammers the recycled state — row batches
// and reply buffers — from several clients at once: every reply must
// equal the one the same statement produced alone, so no batch or
// buffer is recycled while a reply still reads it.
func TestConcurrentRowsReplies(t *testing.T) {
	tb, _ := newOrdersTable(t, 3000, 11)
	s, err := New(Config{Table: tb, Workers: 4, QueueDepth: 64, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	queries := []string{
		`{"query":"select * from orders where qty >= 100"}`,
		`{"query":"select city, qty from orders where pri = 3 limit 700"}`,
		`{"query":"select price, city from orders order by price desc limit 1500"}`,
		`{"query":"select city, count(*), max(price) from orders group by city"}`,
	}
	strip := func(body string) string { return body[:strings.LastIndex(body, `,"cached":`)] }
	want := make([]string, len(queries))
	for i, q := range queries {
		rec := post(s, q)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, rec.Code, rec.Body)
		}
		want[i] = strip(rec.Body.String())
	}
	const clients, rounds = 8, 25
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(queries)
				rec := post(s, queries[i])
				if rec.Code != http.StatusOK || strip(rec.Body.String()) != want[i] {
					errs <- fmt.Errorf("client %d round %d: status %d, reply differs from the serial one for %s", c, r, rec.Code, queries[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
