package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/wah"
	"repro/internal/wal"
	"repro/internal/zonemap"
	"repro/table"
)

// The traced run. The same generated requests are replayed serially —
// once over loopback against an imprintd child, then in-process at each
// nested public entry point (Server.ServeHTTP, sql.Statement.Exec, the
// equivalent table call, the core.Index probes) — and a layer's self
// time is its span minus the span of the entry point below it. Spans
// are recorded from this file, around the calls into each layer; spans
// inside the program are a later change.

// span is one timed call: which layer, for which request, caused by
// which span of the same request, from when to when (ns since the
// traced run began).
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timeCall runs f as span name of request req and returns how long it took.
func (t *tracer) timeCall(name, parent string, req int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.spans = append(t.spans, span{name, req, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return end.Sub(start)
}

const (
	// traceBatches insert batches are committed on the write side (the
	// whole pool, 131,072 rows): after up to a segment of them aligns the
	// image's partial tail, SealDelta still has a full 64K-row segment to cut.
	traceBatches = poolBatches
	tableOpens   = 3   // image opens behind the table.open_s median
	baselineReqs = 100 // requests the zonemap/WAH/scan baselines replay
)

// serve runs one request through the in-process server.
func serve(srv *server.Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	srv.ServeHTTP(rec, req)
	return rec
}

// selfTimes returns the median over requests of upper[i]-lower[i], in
// microseconds.
func selfTimes(upper, lower []time.Duration) float64 {
	d := make([]float64, len(upper))
	for i := range upper {
		d[i] = float64(upper[i]-lower[i]) / float64(time.Microsecond)
	}
	return median(d)
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// tracedRun produces the per-layer metrics of one workload.
func tracedRun(w *workload, cfg config, bin string) (*result, error) {
	fx, err := newFixture(cfg, w)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res := &result{Workload: w.name, Traced: true, Metrics: map[string]metric{}}
	tr := &tracer{t0: time.Now()}
	reqs := w.stream(fx.ds, 0, streamLen)[:w.traceRequests]
	n := len(reqs)

	// 1. Loopback: the real process, one connection, serial.
	loop, ks, err := loopbackReplay(w, fx, cfg, bin, reqs, res)
	if err != nil {
		return nil, err
	}

	// 2. In-process, top layer first. Opening the image is itself a
	// measured entry point.
	var tbl *table.Table
	var opens []float64
	for i := 0; i < tableOpens; i++ {
		start := time.Now()
		if tbl, _, err = table.Open(fx.image, table.LoadOptions{}); err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(start).Seconds())
	}
	res.set("table.open_s", median(opens), "s")
	srv, err := server.New(server.Config{Table: tbl, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// Warm pass (statement LRU, scratch pools), then the untraced pass
	// whose total the traced pass is compared with.
	for i, r := range reqs {
		if rec := serve(srv, "/query", r.body); rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	start := time.Now()
	for _, r := range reqs {
		serve(srv, "/query", r.body)
	}
	untraced := time.Since(start)

	serverDur := make([]time.Duration, n)
	var respBytes int
	start = time.Now()
	for i, r := range reqs {
		var rec *httptest.ResponseRecorder
		serverDur[i] = tr.timeCall("server", "", i, func() { rec = serve(srv, "/query", r.body) })
		respBytes += rec.Body.Len()
	}
	traced := time.Since(start)
	res.set("trace.overhead_pct", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds(), "%")
	res.set("server.response_bytes", float64(respBytes)/float64(n), "B")
	res.set("net.self_us", selfTimes(loop, serverDur), "us")

	// sql: statements compiled once (the LRU's job), binds decoded from
	// the request body exactly as the server hands them over.
	compiled := map[*stmt]*sql.Statement{}
	var compileUs []float64
	for _, st := range statements(reqs) {
		for k := 0; k < 20; k++ {
			t0 := time.Now()
			cs, err := sql.Compile(tbl, st.sql())
			if err != nil {
				return nil, err
			}
			compileUs = append(compileUs, float64(time.Since(t0))/float64(time.Microsecond))
			compiled[st] = cs
		}
	}
	res.set("sql.compile_us", median(compileUs), "us")
	sqlDur := make([]time.Duration, n)
	sqlStats := make([]*core.QueryStats, n)
	opts := table.SelectOptions{Ctx: context.Background(), Parallelism: 1}
	for i, r := range reqs {
		var qr server.QueryRequest
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.UseNumber()
		if err := dec.Decode(&qr); err != nil {
			return nil, err
		}
		var out *sql.Result
		sqlDur[i] = tr.timeCall("sql", "server", i, func() { out, err = compiled[r.st].Exec(qr.Params, opts) })
		if err != nil {
			return nil, err
		}
		sqlStats[i] = out.Stats
	}
	res.set("server.self_us", selfTimes(serverDur, sqlDur), "us")

	// table: the equivalent Prepared execution; its QueryStats must
	// repeat the SQL execution's exactly (serial, read-only).
	preps := map[*stmt]*tableStmt{}
	for _, st := range statements(reqs) {
		if preps[st], err = prepareTable(tbl, st); err != nil {
			return nil, err
		}
	}
	tableDur := make([]time.Duration, n)
	tableStats := make([]core.QueryStats, n)
	for i, r := range reqs {
		tableDur[i] = tr.timeCall("table", "sql", i, func() { tableStats[i], err = preps[r.st].run(r) })
		if err != nil {
			return nil, err
		}
	}
	// Counts, off the clock so the extra executions do not disturb the
	// timed ones above.
	var total core.QueryStats
	var counted, aggCells uint64
	for i, r := range reqs {
		ts, st := preps[r.st], tableStats[i]
		if len(r.st.aggs) == 0 {
			// Rows() surfaces no stats; IDs() runs the same plan.
			if _, st, err = ts.query(r).IDs(); err != nil {
				return nil, err
			}
			total.Add(st)
			continue
		}
		if sqlStats[i] == nil || *sqlStats[i] != st {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("request %d: table stats %+v differ from sql stats %+v", i, st, sqlStats[i]))
		}
		total.Add(st)
		cnt, cst, err := ts.query(r).Count()
		if err != nil {
			return nil, err
		}
		total.FastCountedRows += cst.FastCountedRows
		counted += cnt
		aggCells += cnt * uint64(len(r.st.aggs))
	}
	res.set("sql.self_us", selfTimes(sqlDur, tableDur), "us")
	rows := uint64(tbl.Rows())
	res.set("table.comparisons_per_row", float64(total.Comparisons)/float64(uint64(n)*rows), "count")
	res.set("table.blocks_vectorized", float64(total.BlocksVectorized)/float64(n), "count")
	res.set("table.fast_counted_share", share(total.FastCountedRows, counted), "ratio")
	res.set("table.summary_agg_share", share(total.SummaryAggRows, aggCells), "ratio")

	// core: the imprint probes of each request's numeric leaves.
	pr := newProber(tbl)
	coreDur := make([]time.Duration, n)
	for i, r := range reqs {
		coreDur[i] = tr.timeCall("core", "table", i, func() { pr.probe(r, false) })
	}
	for _, r := range reqs {
		pr.probe(r, true) // again, off the clock, counting false positives
	}
	res.set("table.self_us", selfTimes(tableDur, coreDur), "us")
	res.set("core.probe_us", medianUs(coreDur), "us")
	cl := pr.stats.CachelinesSkipped + pr.stats.CachelinesExact + pr.stats.CachelinesScanned
	res.set("core.cachelines_skipped_share", share(pr.stats.CachelinesSkipped, cl), "ratio")
	res.set("core.false_positive_share", share(pr.falsePositive, pr.scanned), "ratio")
	var ixBytes, colBytes int64
	for _, col := range []string{"ts", "qty", "price"} {
		is, err := tbl.IndexStats(col)
		if err != nil {
			return nil, err
		}
		ixBytes += is.SizeBytes
		colBytes += 8 * int64(tbl.Rows())
	}
	res.set("core.index_pct", 100*float64(ixBytes)/float64(colBytes), "%")

	pr.baselines(reqs[:min(n, baselineReqs)], res)
	if err := writeSide(fx, reqs, tr, res); err != nil {
		return nil, err
	}

	wrong := checkKept(fx, false, ks, fx.ds.withInserted(0))
	res.Failed += len(wrong)
	res.Errors = append(res.Errors, wrong...)
	res.Correct = res.Failed == 0
	if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// run executes the statement through the table API the way the SQL
// layer drives it, returning the execution's stats (zero for Rows).
func (ts *tableStmt) run(r request) (core.QueryStats, error) {
	q := ts.query(r)
	switch {
	case ts.st.group != "":
		_, st, err := q.GroupBy(ts.st.group).Aggregate(ts.aggs...)
		return st, err
	case len(ts.st.aggs) > 0:
		_, st, err := q.Aggregate(ts.aggs...)
		return st, err
	}
	for range q.Rows() {
	}
	return core.QueryStats{}, q.Err()
}

// loopbackReplay sends reqs one by one over one keep-alive connection
// to an imprintd child and returns each round-trip time plus the
// sampled replies; /stats and /proc deltas around the replay give the
// server.* and proc.* counts.
func loopbackReplay(w *workload, fx *fixture, cfg config, bin string, reqs []request, res *result) ([]time.Duration, []kept, error) {
	d, _, err := startDaemon(bin, fx.image, filepath.Join(cfg.outDir, "imprintd-"+w.name+"-trace.log"),
		fx.daemonArgs(w, "wal-loopback")...)
	if err != nil {
		return nil, nil, err
	}
	defer d.kill()
	raws := wireAll(d.addr, reqs)
	before, err := d.stats()
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, nil, err
	}
	self0, start := selfCPU(), time.Now()
	c := &conn{addr: d.addr}
	defer c.close()
	loop := make([]time.Duration, len(reqs))
	var ks []kept
	for i, raw := range raws {
		t0 := time.Now()
		status, err := c.do(raw)
		loop[i] = time.Since(t0)
		res.Attempted++
		if err != nil || status != http.StatusOK {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf("loopback request %d: status %d err %v", i, status, err))
			continue
		}
		if i%keepEvery == 0 && len(ks) < keepMax {
			ks = append(ks, kept{req: reqs[i], body: append([]byte(nil), c.body.Bytes()...)})
		}
	}
	elapsed, self1 := time.Since(start), selfCPU()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, nil, err
	}
	after, err := d.stats()
	if err != nil {
		return nil, nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	hits := after.Cache.Hits - before.Cache.Hits
	res.set("server.stmt_cache_hit_share", share(hits, hits+after.Cache.Misses-before.Cache.Misses), "ratio")
	res.set("server.rejected", float64(after.Rejected-before.Rejected), "count")
	res.set("proc.cpu_ms_per_op", float64((cpu1-cpu0).Microseconds())/1000/float64(len(reqs)), "ms")
	res.set("proc.peak_rss_mb", rss, "MB")
	res.set("loadgen.cpu_share", (self1-self0).Seconds()/elapsed.Seconds(), "ratio")
	return loop, ks, nil
}

// ---- core probes and the paper's baselines ----

// numCol is one numeric column's per-segment imprints, values and
// min/max summaries, fetched once so a probe pays for nothing else.
type numCol[V int64 | float64] struct {
	ix     []*core.Index[V]
	lo, hi []V
	buf    [3][]core.CandidateRun
	// baselines, built per segment on first use
	zm  []*zonemap.Index[V]
	wah []*wah.BitmapIndex[V]
}

func loadNumCol[V int64 | float64](t *table.Table, name string) *numCol[V] {
	c := &numCol[V]{}
	for s := 0; s < t.Segments(); s++ {
		ix, err := table.SegmentIndex[V](t, name, s)
		if err != nil || ix == nil {
			panic(fmt.Sprintf("column %s segment %d has no imprint: %v", name, s, err))
		}
		vals := ix.Column()
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		c.ix, c.lo, c.hi = append(c.ix, ix), append(c.lo, lo), append(c.hi, hi)
	}
	return c
}

// leaf is one bound numeric comparison.
type leaf[V int64 | float64] struct {
	op string
	v  V
}

func (l leaf[V]) holds(x V) bool {
	switch l.op {
	case ">=":
		return x >= l.v
	case "<":
		return x < l.v
	}
	return x == l.v
}

// prober replays the probes the table layer issues for a request: per
// numeric column, per segment the min/max summary does not exclude,
// one *CachelinesInto call per leaf that the summary does not already
// decide (and whose estimated selectivity is under the table's default
// 0.95 scan threshold), intersected when a column has two leaves.
type prober struct {
	i64           map[string]*numCol[int64]
	f64           map[string]*numCol[float64]
	stats         core.QueryStats
	scanned       uint64 // inexact candidate cachelines examined ...
	falsePositive uint64 // ... of which held no qualifying value
}

func newProber(t *table.Table) *prober {
	return &prober{
		i64: map[string]*numCol[int64]{"ts": loadNumCol[int64](t, "ts"), "qty": loadNumCol[int64](t, "qty")},
		f64: map[string]*numCol[float64]{"price": loadNumCol[float64](t, "price")},
	}
}

// numericLeaves returns the comparisons on the request's numeric
// column; every benchmark statement constrains exactly one (string
// leaves are resolved through the dictionary, not an imprint probe the
// table exports).
func numericLeaves(r request) (col string, ints []leaf[int64], floats []leaf[float64]) {
	for _, c := range r.st.conds {
		switch c.col {
		case "ts", "qty":
			col, ints = c.col, append(ints, leaf[int64]{c.op, r.params[c.param].(int64)})
		case "price":
			col, floats = c.col, append(floats, leaf[float64]{c.op, r.params[c.param].(float64)})
		}
	}
	return col, ints, floats
}

func (p *prober) probe(r request, countFP bool) {
	col, ints, floats := numericLeaves(r)
	if ints != nil {
		probeCol(p, p.i64[col], ints, countFP)
	} else {
		probeCol(p, p.f64[col], floats, countFP)
	}
}

func probeCol[V int64 | float64](p *prober, c *numCol[V], ls []leaf[V], countFP bool) {
segments:
	for s, ix := range c.ix {
		lo, hi := c.lo[s], c.hi[s]
		for _, l := range ls { // summary excludes the segment
			if l.op == ">=" && hi < l.v || l.op == "<" && lo >= l.v || l.op == "=" && (l.v < lo || l.v > hi) {
				continue segments
			}
		}
		var runs []core.CandidateRun
		probed := 0
		for _, l := range ls {
			var got []core.CandidateRun
			var st core.QueryStats
			switch {
			case l.op == ">=" && lo >= l.v, l.op == "<" && hi < l.v: // summary decides the leaf
				continue
			case l.op == ">=":
				if ix.EstimateSelectivity(l.v, hi) > 0.95 {
					continue
				}
				got, st = ix.AtLeastCachelinesInto(c.buf[probed][:0], l.v)
			case l.op == "<":
				if ix.EstimateSelectivity(lo, l.v) > 0.95 {
					continue
				}
				got, st = ix.LessThanCachelinesInto(c.buf[probed][:0], l.v)
			default:
				got, st = ix.PointCachelinesInto(c.buf[probed][:0], l.v)
			}
			c.buf[probed] = got
			if !countFP {
				p.stats.Add(st)
			}
			if probed == 1 {
				runs = core.IntersectRunsInto(c.buf[2][:0], runs, got)
				c.buf[2] = runs
			} else {
				runs = got
			}
			probed++
		}
		if !countFP || probed == 0 {
			continue
		}
		vals, vpc := ix.Column(), ix.ValuesPerCacheline()
		for _, run := range runs {
			if run.Exact {
				continue
			}
			for cl := int(run.Start); cl < int(run.Start+run.Count); cl++ {
				p.scanned++
				hit := false
			values:
				for _, x := range vals[cl*vpc : min((cl+1)*vpc, len(vals))] {
					for _, l := range ls {
						if !l.holds(x) {
							continue values
						}
					}
					hit = true
					break
				}
				if !hit {
					p.falsePositive++
				}
			}
		}
	}
}

// baselines counts each request's numeric range four ways — imprints,
// zonemap, WAH bitmaps, sequential scan — over every segment: the
// paper's comparison, kept reproducible on the benchmark's own
// predicates.
func (p *prober) baselines(reqs []request, res *result) {
	var us [4][]float64
	var zmBytes, wahBytes, colBytes int64
	sized := map[string]bool{}
	for _, r := range reqs {
		col, ints, floats := numericLeaves(r)
		var d [4]time.Duration
		var z, w, c int64
		if ints != nil {
			d = rangeCounts(p.i64[col], ints, 0, 1<<62, 1)
			z, w, c = p.i64[col].baselineBytes()
		} else {
			d = rangeCounts(p.f64[col], floats, 0, 1e300, 0)
			z, w, c = p.f64[col].baselineBytes()
		}
		if !sized[col] {
			sized[col] = true
			zmBytes, wahBytes, colBytes = zmBytes+z, wahBytes+w, colBytes+c
		}
		for i := range us {
			us[i] = append(us[i], float64(d[i])/float64(time.Microsecond))
		}
	}
	res.set("baseline.imprints_us", median(us[0]), "us")
	res.set("baseline.zonemap_probe_us", median(us[1]), "us")
	res.set("baseline.wah_probe_us", median(us[2]), "us")
	res.set("baseline.scan_us", median(us[3]), "us")
	res.set("baseline.zonemap_index_pct", 100*float64(zmBytes)/float64(colBytes), "%")
	res.set("baseline.wah_index_pct", 100*float64(wahBytes)/float64(colBytes), "%")
}

// build constructs the column's zonemap and WAH comparators once.
func (c *numCol[V]) build() {
	if c.zm != nil {
		return
	}
	for _, ix := range c.ix {
		c.zm = append(c.zm, zonemap.Build(ix.Column(), zonemap.Options{}))
		c.wah = append(c.wah, wah.BuildWithHistogram(ix.Column(), ix.Histogram()))
	}
}

func (c *numCol[V]) baselineBytes() (zm, wh, col int64) {
	c.build()
	for s := range c.ix {
		zm += c.zm[s].SizeBytes()
		wh += c.wah[s].SizeBytes()
		col += 8 * int64(len(c.ix[s].Column()))
	}
	return zm, wh, col
}

// rangeCounts folds the leaves into one [low, high) range (open ends
// from the type's extremes; a point v is [v, v+step)) and times
// CountRange over all segments for imprints, zonemap, WAH and scan.
func rangeCounts[V int64 | float64](c *numCol[V], ls []leaf[V], lowest, highest, step V) [4]time.Duration {
	c.build()
	low, high := lowest, highest
	for _, l := range ls {
		switch l.op {
		case ">=":
			low = l.v
		case "<":
			high = l.v
		default:
			low, high = l.v, l.v+step
		}
	}
	var d [4]time.Duration
	var counts [4]uint64
	for s, ix := range c.ix {
		t0 := time.Now()
		n0, _ := ix.CountRange(low, high)
		t1 := time.Now()
		n1, _ := c.zm[s].CountRange(low, high)
		t2 := time.Now()
		n2, _ := c.wah[s].CountRange(low, high)
		t3 := time.Now()
		n3, _ := scan.CountRange(ix.Column(), low, high)
		t4 := time.Now()
		d[0], d[1], d[2], d[3] = d[0]+t1.Sub(t0), d[1]+t2.Sub(t1), d[2]+t3.Sub(t2), d[3]+t4.Sub(t3)
		counts[0], counts[1], counts[2], counts[3] = counts[0]+n0, counts[1]+n1, counts[2]+n2, counts[3]+n3
	}
	if counts[0] != counts[3] || counts[1] != counts[3] || counts[2] != counts[3] {
		panic(fmt.Sprintf("baselines disagree on [%v, %v): imprints %d zonemap %d wah %d scan %d",
			low, high, counts[0], counts[1], counts[2], counts[3]))
	}
	return d
}

// ---- the write side ----

// writeSide times one commit at each nested entry point —
// ServeHTTP(/insert), Batch.Commit, wal.Log.Append and Log.Sync — on
// the same insert batches, then SealDelta, WAL replay (EnableWAL on a
// fresh table) and a few reads over the unsealed delta.
func writeSide(fx *fixture, reqs []request, tr *tracer, res *result) error {
	open := func(walDir string, autoSeal bool) (*table.Table, *table.RecoveryReport, time.Duration, error) {
		t, _, err := table.Open(fx.image, table.LoadOptions{})
		if err != nil {
			return nil, nil, 0, err
		}
		if err := t.EnableDeltaIngest(table.IngestOptions{AutoSeal: autoSeal}); err != nil {
			return nil, nil, 0, err
		}
		start := time.Now()
		rep, err := t.EnableWAL(table.WALOptions{Dir: walDir, Policy: wal.SyncAlways})
		return t, rep, time.Since(start), err
	}

	// A: through the server, background sealer on, as imprintd runs it.
	a, _, _, err := open(filepath.Join(fx.dir, "wal-a"), true)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{Table: a, Parallelism: 1})
	if err != nil {
		return err
	}
	insertDur := make([]time.Duration, traceBatches)
	var lag []float64
	for i := range insertDur {
		body := fx.ds.insertBody(i)
		var rec *httptest.ResponseRecorder
		insertDur[i] = tr.timeCall("server.insert", "", i, func() { rec = serve(srv, "/insert", body) })
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process insert %d: status %d: %s", i, rec.Code, rec.Body)
		}
		lag = append(lag, float64(a.IngestStats().DeltaRows))
	}
	var deltaScanned uint64
	reads := reqs[:min(len(reqs), 32)]
	for _, r := range reads {
		var qr server.QueryResponse
		if err := json.Unmarshal(serve(srv, "/query", r.body).Body.Bytes(), &qr); err != nil {
			return err
		}
		if qr.Result != nil && qr.Stats != nil {
			deltaScanned += qr.Stats.DeltaRowsScanned
		}
	}
	res.set("table.delta_rows_scanned", float64(deltaScanned)/float64(len(reads)), "rows")
	res.set("table.seal_lag_rows", median(lag), "rows")
	res.set("table.seal_retries", float64(a.IngestStats().SealRetries), "count")
	srv.Close()
	if err := a.Close(); err != nil {
		return err
	}

	// B: Batch.Commit directly, sealing by hand.
	walB := filepath.Join(fx.dir, "wal-b")
	b, _, _, err := open(walB, false)
	if err != nil {
		return err
	}
	commitDur := make([]time.Duration, traceBatches)
	for i := range commitDur {
		rows := fx.ds.insertBatch(i)
		batch := b.NewBatch()
		for _, err := range []error{
			table.Append(batch, "ts", rows.ts), table.Append(batch, "qty", rows.qty),
			table.Append(batch, "price", rows.price), table.Append(batch, "pri", rows.pri),
			batch.AppendStrings("city", rows.city),
		} {
			if err != nil {
				return err
			}
		}
		commitDur[i] = tr.timeCall("table.commit", "server.insert", i, func() { err = batch.Commit() })
		if err != nil {
			return err
		}
	}
	var walBytes int64
	err = filepath.WalkDir(walB, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			info, ierr := d.Info()
			if ierr != nil {
				return ierr
			}
			walBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	inserted := traceBatches * batchRows
	res.set("wal.bytes_per_row", float64(walBytes)/float64(inserted), "B")
	sealStart := time.Now()
	sealed := b.SealDelta()
	sealDur := time.Since(sealStart)
	tr.spans = append(tr.spans, span{"table.seal", 0, "", sealStart.Sub(tr.t0).Nanoseconds(), sealStart.Add(sealDur).Sub(tr.t0).Nanoseconds()})
	res.set("table.seal_us_per_krow", float64(sealDur)/float64(time.Microsecond)/(float64(max(sealed, 1))/1000), "us")
	if err := b.Close(); err != nil {
		return err
	}

	// wal: frames of the size the table logged, append and fsync apart.
	lg, err := wal.Open(filepath.Join(fx.dir, "wal-w"), wal.Options{Policy: wal.SyncOff})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0xa5}, max(int(walBytes)/traceBatches, 1))
	appendDur := make([]time.Duration, traceBatches)
	syncDur := make([]time.Duration, traceBatches)
	for i := range appendDur {
		appendDur[i] = tr.timeCall("wal.append", "table.commit", i, func() { _, err = lg.Append(payload) })
		if err != nil {
			return err
		}
		syncDur[i] = tr.timeCall("wal.sync", "table.commit", i, func() { err = lg.Sync() })
		if err != nil {
			return err
		}
	}
	if err := lg.Close(); err != nil {
		return err
	}
	res.set("wal.append_us", medianUs(appendDur), "us")
	res.set("wal.fsync_us", medianUs(syncDur), "us")
	walDur := make([]time.Duration, traceBatches)
	for i := range walDur {
		walDur[i] = appendDur[i] + syncDur[i]
	}
	res.set("table.commit_us", selfTimes(commitDur, walDur), "us")
	res.set("server.insert_self_us", selfTimes(insertDur, commitDur), "us")

	// Replay: a fresh table recovers B's log.
	c, rep, took, err := open(walB, false)
	if err != nil {
		return err
	}
	if rep.RowsReplayed != inserted {
		res.Failed++
		res.Errors = append(res.Errors, fmt.Sprintf("in-process replay recovered %d rows of %d", rep.RowsReplayed, inserted))
	}
	res.set("table.replay_rows_per_s", float64(rep.RowsReplayed)/took.Seconds(), "rows/s")
	return c.Close()
}
