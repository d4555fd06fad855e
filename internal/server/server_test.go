package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/table"
)

// ordersData is the raw column data behind a test table, kept for
// brute-force oracle evaluation.
type ordersData struct {
	qty   []int64
	price []float64
	pri   []uint8
	city  []string
}

var oracleCities = []string{"Amsterdam", "Athens", "Berlin", "Bern", "Lisbon", "Madrid", "Oslo", "Paris", "Prague", "Rome"}

// newOrdersTable builds a deterministic multi-segment table and keeps
// the raw data for independent result computation.
func newOrdersTable(t testing.TB, rows int, seed int64) (*table.Table, *ordersData) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := &ordersData{
		qty:   make([]int64, rows),
		price: make([]float64, rows),
		pri:   make([]uint8, rows),
		city:  make([]string, rows),
	}
	for i := 0; i < rows; i++ {
		d.qty[i] = int64(rng.Intn(1000))
		d.price[i] = float64(rng.Intn(10000)) / 100
		d.pri[i] = uint8(rng.Intn(5))
		d.city[i] = oracleCities[rng.Intn(len(oracleCities))]
	}
	tb := table.NewWithOptions("orders", table.TableOptions{SegmentRows: 256})
	if err := table.AddColumn(tb, "qty", d.qty, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "price", d.price, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := table.AddColumn(tb, "pri", d.pri, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", d.city, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb, d
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postQuery runs one POST /query and decodes the response body.
func postQuery(t testing.TB, ts *httptest.Server, req QueryRequest) (int, map[string]json.RawMessage) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fields map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, fields
}

func rawString(t testing.TB, raw json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("unmarshal %q: %v", raw, err)
	}
	return s
}

func TestQueryEndpointBasics(t *testing.T) {
	tb, d := newOrdersTable(t, 1000, 1)
	_, ts := newTestServer(t, Config{Table: tb, Workers: 2, Parallelism: 1})

	status, fields := postQuery(t, ts, QueryRequest{Query: "select count(*) from orders where qty < 100"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, fields)
	}
	want := 0
	for _, q := range d.qty {
		if q < 100 {
			want++
		}
	}
	if got := string(fields["rows"]); got != fmt.Sprintf("[[%d]]", want) {
		t.Errorf("rows = %s, want [[%d]]", got, want)
	}
	if got := rawString(t, fields["query"]); got != "SELECT count(*) FROM orders WHERE qty < 100" {
		t.Errorf("normalized query = %q", got)
	}
	if string(fields["cached"]) != "false" {
		t.Errorf("first execution reported cached")
	}
	// A differently-spelled equivalent statement hits the cache.
	status, fields = postQuery(t, ts, QueryRequest{Query: "SELECT   COUNT( * )   FROM orders WHERE qty<100"})
	if status != http.StatusOK || string(fields["cached"]) != "true" {
		t.Errorf("equivalent spelling missed the cache: status %d cached %s", status, fields["cached"])
	}
	// Parameterized query with JSON binds.
	status, fields = postQuery(t, ts, QueryRequest{
		Query:  "select count(*) from orders where city in $cs",
		Params: map[string]any{"cs": []string{"Oslo", "Rome"}},
	})
	if status != http.StatusOK {
		t.Fatalf("param query status %d: %v", status, fields)
	}
	want = 0
	for _, c := range d.city {
		if c == "Oslo" || c == "Rome" {
			want++
		}
	}
	if got := string(fields["rows"]); got != fmt.Sprintf("[[%d]]", want) {
		t.Errorf("param rows = %s, want [[%d]]", got, want)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	tb, _ := newOrdersTable(t, 300, 2)
	_, ts := newTestServer(t, Config{Table: tb, Workers: 1, Parallelism: 1})

	// Parse errors return 400 with a position.
	status, fields := postQuery(t, ts, QueryRequest{Query: "select * from orders where"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d", status)
	}
	if string(fields["position"]) != "27" {
		t.Errorf("position = %s, want 27", fields["position"])
	}
	// Bind errors return 400.
	status, _ = postQuery(t, ts, QueryRequest{Query: "select * from orders where qty = $q"})
	if status != http.StatusBadRequest {
		t.Errorf("unbound param status %d", status)
	}
	// Malformed body returns 400.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d", resp.StatusCode)
	}
	// Wrong method is rejected by the mux.
	resp, err = http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status %d", resp.StatusCode)
	}
}

// TestLRUEvictionOrderAndReprepare pins the statement cache's LRU
// behavior: recency order, eviction of the least recently used entry,
// and transparent re-prepare on miss.
func TestLRUEvictionOrderAndReprepare(t *testing.T) {
	tb, _ := newOrdersTable(t, 300, 3)
	s, ts := newTestServer(t, Config{Table: tb, Workers: 1, CacheSize: 2, Parallelism: 1})

	qA := "select count(*) from orders where qty < 100"
	qB := "select count(*) from orders where qty < 200"
	qC := "select count(*) from orders where qty < 300"
	keyOf := func(q string) string {
		status, fields := postQuery(t, ts, QueryRequest{Query: q})
		if status != http.StatusOK {
			t.Fatalf("query %q status %d", q, status)
		}
		return rawString(t, fields["query"])
	}
	kA, kB := keyOf(qA), keyOf(qB)
	if got := s.cache.keys(); len(got) != 2 || got[0] != kB || got[1] != kA {
		t.Fatalf("cache order %v, want [%s %s]", got, kB, kA)
	}
	// Touching A refreshes it to the front...
	keyOf(qA)
	if got := s.cache.keys(); got[0] != kA || got[1] != kB {
		t.Fatalf("cache order after touch %v", got)
	}
	// ...so inserting C evicts B, the least recently used.
	kC := keyOf(qC)
	if got := s.cache.keys(); len(got) != 2 || got[0] != kC || got[1] != kA {
		t.Fatalf("cache order after eviction %v, want [%s %s]", got, kC, kA)
	}
	st := s.Stats()
	if st.Cache.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Cache.Evictions)
	}
	// B re-prepares on miss and still answers correctly.
	status, fields := postQuery(t, ts, QueryRequest{Query: qB})
	if status != http.StatusOK || string(fields["cached"]) != "false" {
		t.Fatalf("re-prepared B: status %d cached %s", status, fields["cached"])
	}
	if got := s.Stats(); got.Cache.Evictions != 2 || got.Cache.Size != 2 {
		t.Errorf("after reinsert: evictions %d size %d", got.Cache.Evictions, got.Cache.Size)
	}
	// Counter arithmetic: 6 lookups, 1 hit (the A touch).
	if st.Cache.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Cache.Hits)
	}
}

// TestAdmissionControl fills the worker pool and the accept queue,
// then verifies the next query is rejected up front with 429.
func TestAdmissionControl(t *testing.T) {
	tb, _ := newOrdersTable(t, 300, 4)
	s, ts := newTestServer(t, Config{Table: tb, Workers: 1, QueueDepth: 1, Parallelism: 1})

	release := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	// One job occupies the single worker...
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.submit(func() { close(running); <-release })
	}()
	<-running
	// ...and one occupies the single queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.submit(func() {})
	}()
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}

	status, fields := postQuery(t, ts, QueryRequest{Query: "select count(*) from orders"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%v)", status, fields)
	}
	if !strings.Contains(rawString(t, fields["error"]), "overloaded") {
		t.Errorf("error body %s", fields["error"])
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	// With capacity back, the same query is served.
	if status, _ := postQuery(t, ts, QueryRequest{Query: "select count(*) from orders"}); status != http.StatusOK {
		t.Errorf("post-release status %d", status)
	}
}

// TestDeadlineCancellation pins the 408 path: a negative timeout_ms
// yields an already-expired deadline, and the execution reports
// cancellation without scanning (the zero-work guarantee itself is
// pinned by the table layer's QueryStats test).
func TestDeadlineCancellation(t *testing.T) {
	tb, _ := newOrdersTable(t, 2000, 5)
	s, ts := newTestServer(t, Config{Table: tb, Workers: 2, Parallelism: 2})

	status, fields := postQuery(t, ts, QueryRequest{
		Query:     "select count(*) from orders where qty < 500",
		TimeoutMs: -1,
	})
	if status != http.StatusRequestTimeout {
		t.Fatalf("status %d, want 408 (%v)", status, fields)
	}
	if msg := rawString(t, fields["error"]); !strings.Contains(msg, "deadline") && !strings.Contains(msg, "cancel") {
		t.Errorf("error %q does not mention cancellation", msg)
	}
	if got := s.Stats().Canceled; got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	// The same query without the timeout succeeds (statement unharmed
	// in the cache).
	status, fields = postQuery(t, ts, QueryRequest{Query: "select count(*) from orders where qty < 500"})
	if status != http.StatusOK || string(fields["cached"]) != "true" {
		t.Errorf("post-cancel status %d cached %s", status, fields["cached"])
	}
}

func TestStatsAndHealthz(t *testing.T) {
	tb, _ := newOrdersTable(t, 300, 6)
	_, ts := newTestServer(t, Config{Table: tb, Workers: 1, Parallelism: 1})
	for i := 0; i < 3; i++ {
		postQuery(t, ts, QueryRequest{Query: "select count(*) from orders"})
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Served != 3 || st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
	q := st.Endpoints["/query"]
	if q.Count != 3 || len(q.Buckets) != len(BucketLabels) {
		t.Errorf("/query endpoint stats %+v", q)
	}
	var sum uint64
	for _, b := range q.Buckets {
		sum += b
	}
	if sum != q.Count {
		t.Errorf("histogram buckets sum %d != count %d", sum, q.Count)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz["status"] != "ok" || hz["table"] != "orders" {
		t.Errorf("healthz %v", hz)
	}
}

// TestGracefulShutdownDrains serves imprintd's shutdown sequence in
// miniature: with the worker busy, an in-flight request is queued,
// Shutdown is initiated, the request still completes with 200, and the
// final stats line reflects it.
func TestGracefulShutdownDrains(t *testing.T) {
	tb, _ := newOrdersTable(t, 300, 7)
	var logged []string
	var logMu sync.Mutex
	s, err := New(Config{Table: tb, Workers: 1, QueueDepth: 4, Parallelism: 1,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)

	release := make(chan struct{})
	running := make(chan struct{})
	go s.submit(func() { close(running); <-release })
	<-running

	// The HTTP query sits behind the blocked worker.
	type result struct {
		status int
		body   map[string]json.RawMessage
	}
	resCh := make(chan result, 1)
	go func() {
		st, fields := postQuery(t, hs, QueryRequest{Query: "select count(*) from orders"})
		resCh <- result{st, fields}
	}()
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}

	// Initiate draining, then unblock the worker: the in-flight query
	// must complete.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- hs.Config.Shutdown(ctx)
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)

	r := <-resCh
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query during shutdown: status %d (%v)", r.status, r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s.Close()
	s.LogStats()
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) == 0 || !strings.Contains(logged[len(logged)-1], "served 1 queries") {
		t.Errorf("shutdown stats log %v", logged)
	}
}

// TestShardBacklogShedding pins the sharded admission-control path: a
// query arriving while the hottest shard's delta backlog exceeds
// Config.MaxShardBacklog is shed with 429, and serving resumes once
// sealing drains the backlog below the limit.
func TestShardBacklogShedding(t *testing.T) {
	tb := table.NewWithOptions("orders", table.TableOptions{SegmentRows: 256, Shards: 4})
	if err := table.AddColumn(tb, "qty", []int64{}, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(table.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	s, ts := newTestServer(t, Config{Table: tb, Workers: 1, Parallelism: 1, MaxShardBacklog: 100})

	// One serial batch per segment: the first lands whole on one shard,
	// pushing that shard's backlog past the limit.
	b := tb.NewBatch()
	if err := table.Append(b, "qty", make([]int64, 256)); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tb.IngestStats().MaxShardDeltaRows(); got != 256 {
		t.Fatalf("setup: hottest shard buffers %d rows", got)
	}

	status, fields := postQuery(t, ts, QueryRequest{Query: "select count(*) from orders"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%v)", status, fields)
	}
	if !strings.Contains(rawString(t, fields["error"]), "ingest backlog") {
		t.Errorf("error body %s", fields["error"])
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// /stats reports the per-shard depths that triggered the shed.
	st := s.Stats()
	if len(st.Ingest.ShardDeltaRows) != 4 || st.Ingest.MaxShardDeltaRows() != 256 {
		t.Errorf("ingest stats %+v", st.Ingest)
	}

	// Sealing drains every shard; the same query is served again.
	tb.SealDelta()
	if got := tb.IngestStats().MaxShardDeltaRows(); got != 0 {
		t.Fatalf("seal left %d buffered rows", got)
	}
	status, fields = postQuery(t, ts, QueryRequest{Query: "select count(*) from orders"})
	if status != http.StatusOK {
		t.Fatalf("post-seal status %d (%v)", status, fields)
	}
}

// TestQueryGroupByUint64Key: group keys of a uint64 column at and above
// 2^63 reach the wire as unsigned JSON numbers in unsigned order, not
// wrapped to negative int64.
func TestQueryGroupByUint64Key(t *testing.T) {
	tb := table.NewWithOptions("u", table.TableOptions{SegmentRows: 64})
	keys := []uint64{1, 1 << 63, ^uint64(0), 1}
	if err := table.AddColumn(tb, "k", keys, table.Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Table: tb, Workers: 1, Parallelism: 1})
	status, fields := postQuery(t, ts, QueryRequest{Query: "select k, count(*) from u group by k"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, fields)
	}
	if got, want := string(fields["rows"]), "[[1,2],[9223372036854775808,1],[18446744073709551615,1]]"; got != want {
		t.Fatalf("rows = %s, want %s", got, want)
	}
}
