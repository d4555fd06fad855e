package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sql"
	"repro/table"
)

// Config configures a Server.
type Config struct {
	// Table is the served relation (required).
	Table *table.Table
	// Workers bounds concurrent query executions. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds queries admitted but not yet executing; a full
	// queue rejects new queries with 429 instead of building unbounded
	// backlog. 0 means 2×Workers.
	QueueDepth int
	// CacheSize bounds the prepared-statement LRU. 0 means 128;
	// negative disables caching.
	CacheSize int
	// DefaultTimeout caps every query execution that does not set its
	// own timeout_ms. 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxShardBacklog sheds queries with 429 while the hottest shard's
	// buffered delta backlog exceeds this many rows — sealing has
	// fallen behind, and piling reads onto the deepest delta store
	// only slows the catch-up. 0 disables backlog shedding.
	MaxShardBacklog int
	// Parallelism is the per-query segment fan-out passed to the table
	// layer. 0 lets the table pick (one worker per core); a serving
	// deployment typically wants 1 so concurrency comes from the
	// request pool rather than from each query.
	Parallelism int
	// Logf, when set, receives serving log lines.
	Logf func(format string, args ...any)
}

// Server serves SQL over JSON/HTTP for one table. Create with New,
// mount as an http.Handler, and Close when done to stop the worker
// pool. Endpoints: POST /query, GET /explain, GET /stats, GET /healthz.
type Server struct {
	cfg      Config
	tbl      *table.Table
	mux      *http.ServeMux
	cache    *stmtCache
	counters serverCounters

	jobs    chan *job
	quit    chan struct{}
	workers sync.WaitGroup
	closed  sync.Once
}

// job is one admitted query execution: run executes it on a worker and
// closes done.
type job struct {
	run  func()
	done chan struct{}
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Table == nil {
		return nil, errors.New("server: Config.Table is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = 128
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	s := &Server{
		cfg:   cfg,
		tbl:   cfg.Table,
		mux:   http.NewServeMux(),
		cache: newStmtCache(cfg.CacheSize),
		jobs:  make(chan *job, cfg.QueueDepth),
		quit:  make(chan struct{}),
	}
	s.mux.HandleFunc("POST /query", s.timed("/query", s.handleQuery))
	s.mux.HandleFunc("POST /insert", s.timed("/insert", s.handleInsert))
	s.mux.HandleFunc("GET /explain", s.timed("/explain", s.handleExplain))
	s.mux.HandleFunc("GET /stats", s.timed("/stats", s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.timed("/healthz", s.handleHealthz))
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				select {
				case j := <-s.jobs:
					j.run()
					close(j.done)
				case <-s.quit:
					return
				}
			}
		}()
	}
	return s, nil
}

// ServeHTTP dispatches to the server's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker pool. Drain in-flight HTTP requests first
// (http.Server.Shutdown); Close does not wait for unserved requests.
func (s *Server) Close() {
	s.closed.Do(func() {
		close(s.quit)
		s.workers.Wait()
	})
}

// Stats snapshots the serving counters plus the table's ingest health
// (also served at GET /stats). Recovery and quarantine state ride
// along: Ingest carries the WAL replay report, and Quarantined lists
// segments the table loaded degraded without.
func (s *Server) Stats() ServerStats {
	st := s.counters.snapshot(s.cache)
	st.Ingest = s.tbl.IngestStats()
	st.Quarantined = s.tbl.Quarantined()
	st.Degraded = len(st.Quarantined) > 0
	return st
}

// LogStats writes a one-line serving summary through Config.Logf; the
// imprintd shutdown path calls it after draining.
func (s *Server) LogStats() {
	if s.cfg.Logf == nil {
		return
	}
	st := s.Stats()
	s.cfg.Logf("served %d queries (%d errors, %d rejected, %d canceled); statement cache %d/%d entries, %d hits, %d misses, %d evictions",
		st.Served, st.Errors, st.Rejected, st.Canceled,
		st.Cache.Size, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions)
}

// timed wraps a handler with the endpoint's latency histogram and
// contains handler panics: replies go out whole at the end of a
// handler, so a panic before that can still be answered with a 500
// (counted as an error and logged) instead of a dropped connection.
func (s *Server) timed(path string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.counters.endpoint(path)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler {
					panic(p)
				}
				s.counters.errors.Add(1)
				if s.cfg.Logf != nil {
					s.cfg.Logf("panic serving %s: %v\n%s", path, p, debug.Stack())
				}
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
			}
			hist.observe(time.Since(start))
		}()
		h(w, r)
	}
}

// ---- request/response shapes ----

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the SQL text.
	Query string `json:"query"`
	// Params binds the query's $placeholders. Numbers may be JSON
	// numbers (converted with exact range checks); IN-list parameters
	// are JSON arrays.
	Params map[string]any `json:"params,omitempty"`
	// TimeoutMs overrides the server's default per-query deadline:
	// > 0 sets a deadline that many milliseconds out, < 0 sets one
	// already in the past (every execution path reports cancellation
	// before scanning a segment — useful for testing), 0/absent keeps
	// the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	Query string `json:"query"` // normalized statement text
	*sql.Result
	// Cached reports whether the statement came from the LRU.
	Cached    bool  `json:"cached"`
	ElapsedUs int64 `json:"elapsed_us"`
}

// ExplainResponse is the GET /explain success body.
type ExplainResponse struct {
	Query  string          `json:"query"`
	Params []sql.ParamInfo `json:"params"`
	Plan   *table.Plan     `json:"plan"`
	Cached bool            `json:"cached"`
}

// ErrorResponse is every error body: a message, plus the 1-based byte
// position in the query text for parse and planning errors.
type ErrorResponse struct {
	Error    string `json:"error"`
	Position int    `json:"position,omitempty"`
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		s.counters.errors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if limit := s.cfg.MaxShardBacklog; limit > 0 {
		if depth := s.tbl.MaxShardDeltaRows(); depth > limit {
			s.counters.rejected.Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("ingest backlog: hottest shard buffers %d delta rows (limit %d)", depth, limit))
			return
		}
	}
	st, cached, err := s.statement(req.Query)
	if err != nil {
		s.counters.errors.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.queryContext(r.Context(), req.TimeoutMs)
	defer cancel()

	var res *sql.Result
	var execErr error
	start := time.Now()
	admitted := s.submit(func() {
		res, execErr = st.Exec(req.Params, s.selectOptions(ctx))
	})
	if !admitted {
		s.counters.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server overloaded: %d executing, %d queued", s.cfg.Workers, s.cfg.QueueDepth))
		return
	}
	if execErr != nil {
		if errors.Is(execErr, context.Canceled) || errors.Is(execErr, context.DeadlineExceeded) {
			s.counters.canceled.Add(1)
			writeError(w, http.StatusRequestTimeout, execErr)
			return
		}
		s.counters.errors.Add(1)
		writeError(w, http.StatusBadRequest, execErr)
		return
	}
	defer res.Release()
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	*buf = appendQueryResponse(*buf, &QueryResponse{
		Query:     st.SQL,
		Result:    res,
		Cached:    cached,
		ElapsedUs: time.Since(start).Microseconds(),
	})
	s.counters.served.Add(1)
	writeBody(w, http.StatusOK, *buf)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing ?q= query text"))
		return
	}
	var params map[string]any
	if p := r.URL.Query().Get("params"); p != "" {
		dec := json.NewDecoder(strings.NewReader(p))
		dec.UseNumber()
		if err := dec.Decode(&params); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding ?params=: %w", err))
			return
		}
	}
	st, cached, err := s.statement(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := st.Explain(params, s.selectOptions(r.Context()))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ExplainResponse{
		Query: st.SQL, Params: st.Params(), Plan: plan, Cached: cached,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Quarantined segments mean the table is serving with holes marked
	// deleted: alive, but degraded until re-ingested and compacted.
	status := "ok"
	if len(s.tbl.Quarantined()) > 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"table":    s.tbl.Name(),
		"rows":     s.tbl.Rows(),
		"segments": s.tbl.Segments(),
	})
}

// ---- execution plumbing ----

// statement resolves query text to a compiled statement through the
// LRU: normalize, look up, compile-and-insert on miss.
func (s *Server) statement(src string) (*sql.Statement, bool, error) {
	key := sql.Normalize(src)
	if st, ok := s.cache.get(key); ok {
		return st, true, nil
	}
	// Compile from the normalized text so one cache key maps to exactly
	// one statement regardless of the original spelling.
	st, err := sql.Compile(s.tbl, key)
	if err != nil {
		return nil, false, err
	}
	s.cache.put(key, st)
	return st, false, nil
}

// queryContext derives the execution context: request cancellation
// (client disconnect) plus the effective per-query deadline.
func (s *Server) queryContext(parent context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	switch {
	case timeoutMs > 0:
		return context.WithTimeout(parent, time.Duration(timeoutMs)*time.Millisecond)
	case timeoutMs < 0:
		// Deterministically expired: execution reports cancellation
		// before any segment is scanned.
		return context.WithDeadline(parent, time.Unix(0, 0))
	case s.cfg.DefaultTimeout > 0:
		return context.WithTimeout(parent, s.cfg.DefaultTimeout)
	default:
		return context.WithCancel(parent)
	}
}

// selectOptions builds the per-execution table options.
func (s *Server) selectOptions(ctx context.Context) table.SelectOptions {
	return table.SelectOptions{Ctx: ctx, Parallelism: s.cfg.Parallelism}
}

// submit runs fn on the worker pool, waiting for completion. It
// reports false when the admission queue is full (the caller answers
// 429). Admitted work always runs to completion — cancellation is the
// execution context's job, so a disconnected client's query still
// finishes quickly via ctx instead of leaking a worker.
func (s *Server) submit(fn func()) bool {
	j := &job{run: fn, done: make(chan struct{})}
	select {
	case s.jobs <- j:
	default:
		return false
	}
	<-j.done
	return true
}

// ---- JSON helpers ----

// writeJSON marshals v before anything reaches the client, so a value
// that cannot be encoded answers 500 with an ErrorResponse rather than
// the chosen status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getReplyBuf()
	defer putReplyBuf(buf)
	out := bytes.NewBuffer(*buf)
	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		out.Reset()
		_ = enc.Encode(ErrorResponse{Error: "encoding reply: " + err.Error()}) // a string field always encodes
	}
	*buf = out.Bytes()
	writeBody(w, status, *buf)
}

// writeBody sends a complete JSON body in one Write, its length
// announced up front.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write means the client is gone; nothing to report to
}

func writeError(w http.ResponseWriter, status int, err error) {
	resp := ErrorResponse{Error: err.Error()}
	var pe *sql.ParseError
	if errors.As(err, &pe) {
		resp.Position = pe.Pos
	}
	writeJSON(w, status, resp)
}
