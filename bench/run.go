package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/table"
)

// config is one invocation's settings; everything else is fixed so that
// two commits are always measured the same way.
type config struct {
	seed    uint64
	scale   float64
	seconds float64 // measured window per workload
	outDir  string  // child logs, span files, result files, scratch
}

// warmup is the unmeasured lead-in: a fifth of the measured window (the
// statement LRU, scratch pools and page cache fill within a second),
// at least half a second and at most five.
func (c config) warmup() time.Duration {
	w := c.seconds / 5
	return time.Duration(min(max(w, 0.5), 5) * float64(time.Second))
}

// setupSpawns is how many times imprintd is started on the image; the
// median spawn-to-healthz time is setup_s.
const setupSpawns = 9

// maxLoadgenShare aborts a run whose generator used more than half a
// core-second per second: it, not imprintd, would be the bottleneck.
const maxLoadgenShare = 0.5

// fixture is the generated input of one run: the relation, the table
// built from it and the image imprintd serves, under a scratch dir.
type fixture struct {
	ds    *dataset
	tbl   *table.Table
	dir   string
	image string
}

// newFixture generates the workload's inputs: mixed-ingest serves a
// 2-shard image, the read-only workloads an unsharded one.
func newFixture(cfg config, w *workload) (*fixture, error) {
	shards := 1
	if w.ingest {
		shards = 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	f := &fixture{ds: genDataset(cfg.seed, cfg.scale), dir: dir, image: filepath.Join(dir, "orders.ctbl")}
	if f.tbl, err = f.ds.buildTable(shards); err == nil {
		err = f.tbl.WriteFile(f.image)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("building the orders image: %w", err)
	}
	return f, nil
}

func (f *fixture) close() { os.RemoveAll(f.dir) }

// daemonArgs are the imprintd flags the workload adds to the common
// ones: mixed-ingest turns on delta ingest and a WAL under the fixture.
func (f *fixture) daemonArgs(w *workload, walDir string) []string {
	if !w.ingest {
		return nil
	}
	return []string{"-ingest", "-wal", filepath.Join(f.dir, walDir), "-fsync", "always"}
}

// timedRun measures one workload end to end against a real imprintd
// child, tracing off.
func timedRun(w *workload, cfg config, bin string) (*result, error) {
	fx, err := newFixture(cfg, w)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	res := &result{Workload: w.name, Metrics: map[string]metric{}, Info: map[string]metric{}}
	res.set("index_pct", 100*float64(fx.tbl.IndexBytes())/float64(fx.tbl.SizeBytes()), "%")

	logPath := filepath.Join(cfg.outDir, "imprintd-"+w.name+".log")
	args := fx.daemonArgs(w, "wal")
	var d *daemon
	var setups []float64
	for i := 0; i < setupSpawns; i++ {
		if d != nil {
			d.kill()
		}
		var took time.Duration
		if d, took, err = startDaemon(bin, fx.image, logPath, args...); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	res.set("setup_s", median(setups), "s")

	// The measured phase.
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	readers, writer, ph := runClients(w, fx.ds, d.addr, cfg.warmup(), time.Duration(cfg.seconds*float64(time.Second)))
	self1 := selfCPU()
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}

	var lat []time.Duration
	var keptAll []kept
	end := ph.measureFrom
	note := func(c clientResult) {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != "" {
			res.Errors = append(res.Errors, c.firstErr)
		}
		if c.end.After(end) {
			end = c.end
		}
	}
	for _, c := range readers {
		note(c)
		lat = append(lat, c.lat...)
		keptAll = append(keptAll, c.kept...)
	}
	if writer != nil {
		note(writer.clientResult)
	}
	elapsed := end.Sub(ph.measureFrom).Seconds()
	res.Samples = len(lat)
	res.set("ops_per_s", float64(len(lat))/elapsed, "1/s")
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
		v, err := percentile(lat, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", w.name, p.name, err)
		}
		res.set(p.name, v, "ms")
	}
	window := cfg.warmup().Seconds() + cfg.seconds
	share := (self1 - self0).Seconds() / window
	res.Info["loadgen.cpu_share"] = metric{share, "ratio"}
	res.Info["proc.cpu_share"] = metric{(cpu1 - cpu0).Seconds() / window, "ratio"}
	res.Info["proc.peak_rss_mb"] = metric{rss, "MB"}
	if share > maxLoadgenShare {
		return nil, fmt.Errorf("%s: the load generator used %.2f core-seconds per second (limit %.2f): it, not imprintd, is the bottleneck",
			w.name, share, maxLoadgenShare)
	}

	// Off the clock: crash and recover, then check answers.
	acked := 0
	if writer != nil {
		acked = writer.ackedTotal
		res.set("ingest_rows_per_s", float64(writer.ackedMeasured*batchRows)/elapsed, "rows/s")
		d.kill() // SIGKILL: nothing is flushed on the way out
		var took time.Duration
		if d, took, err = startDaemon(bin, fx.image, logPath, args...); err != nil {
			return nil, fmt.Errorf("recovery after kill -9: %w", err)
		}
		st, err := d.stats()
		if err != nil {
			return nil, err
		}
		replayed := 0
		if st.Ingest.Recovery != nil {
			replayed = st.Ingest.Recovery.RowsReplayed
		}
		res.set("recovery_rows_per_s", float64(replayed)/took.Seconds(), "rows/s")
		if replayed != acked*batchRows {
			res.Errors = append(res.Errors, fmt.Sprintf("recovery replayed %d rows, %d were acknowledged", replayed, acked*batchRows))
			res.Failed++
		}
	}
	all := fx.ds.withInserted(acked)
	wrong := checkKept(fx, w.ingest, keptAll, all)
	if writer != nil {
		checks := recoveryChecks(fx.ds)
		res.Attempted += len(checks)
		wrong = append(wrong, checkRecovered(d.addr, checks, all)...)
	}
	res.Failed += len(wrong)
	res.Errors = append(res.Errors, wrong...)
	res.Correct = len(wrong) == 0 && res.Failed == 0
	res.Info["failed_share"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	return res, nil
}

// withInserted returns the base rows followed by the first acked insert
// batches in commit order: the relation imprintd must hold after them.
func (ds *dataset) withInserted(acked int) *columns {
	all := ds.slice(0, ds.base)
	if acked == 0 {
		return &all
	}
	all = columns{
		ts: append([]int64(nil), all.ts...), qty: append([]int64(nil), all.qty...),
		price: append([]float64(nil), all.price...), pri: append([]uint8(nil), all.pri...),
		city: append([]string(nil), all.city...),
	}
	for i := 0; i < acked; i++ {
		all.append(ds.insertBatch(i))
	}
	return &all
}

// checkKept verifies the sampled replies: SQL answer ≡ table-API answer
// ≡ brute force; for reads that raced inserts, between the brute-force
// answers over the base rows and over base plus every batch sent by the
// time the reply arrived. Returns one line per wrong answer.
func checkKept(fx *fixture, raced bool, ks []kept, all *columns) []string {
	preps := map[*stmt]*tableStmt{}
	for _, k := range ks {
		if _, ok := preps[k.req.st]; !ok {
			ts, err := prepareTable(fx.tbl, k.req.st)
			if err != nil {
				return []string{fmt.Sprintf("preparing %q on the table API: %v", k.req.st.sql(), err)}
			}
			preps[k.req.st] = ts
		}
	}
	check := func(k kept) error {
		got, err := parseResponse(k.body)
		if err != nil {
			return err
		}
		lo := eval(all, k.req, fx.ds.base)
		if raced {
			hi := eval(all, k.req, min(fx.ds.base+k.sent*batchRows, all.rows()))
			return withinBounds(k.req, got, lo, hi)
		}
		if err := sameAnswer(got, lo); err != nil {
			return fmt.Errorf("sql vs brute force: %w", err)
		}
		viaTable, err := preps[k.req.st].exec(k.req)
		if err != nil {
			return err
		}
		if err := sameAnswer(viaTable, lo); err != nil {
			return fmt.Errorf("table API vs brute force: %w", err)
		}
		return nil
	}
	// Two checkers: brute force is a full pass over the relation.
	var mu sync.Mutex
	var wrong []string
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < len(ks); i += 2 {
				if err := check(ks[i]); err != nil {
					mu.Lock()
					wrong = append(wrong, fmt.Sprintf("wrong answer: %s %s: %v", ks[i].req.st.sql(), ks[i].req.body, err))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return wrong
}

// recoveryChecks are the statements run against the recovered imprintd:
// the row count plus one band or point per column, each reaching into
// the inserted rows.
func recoveryChecks(ds *dataset) []request {
	var (
		total = &stmt{aggs: countAll, limit: -1}
		qtyB  = &stmt{aggs: countAll, conds: band("qty"), limit: -1}
		price = &stmt{aggs: countAll, conds: band("price"), limit: -1}
		pri   = &stmt{aggs: countAll, conds: []cond{{"pri", "=", "v"}}, limit: -1}
		city  = &stmt{aggs: countAll, conds: []cond{{"city", "=", "c"}}, limit: -1}
	)
	tsTail := int64(ds.base) * tsStep
	return []request{
		newRequest(total, map[string]any{}),
		newRequest(stTsCount, map[string]any{"lo": tsTail / 2, "hi": tsTail * 2}),
		newRequest(qtyB, map[string]any{"lo": int64(qtyDomain / 4), "hi": int64(qtyDomain / 2)}),
		newRequest(price, map[string]any{"lo": 0.0, "hi": 2000.0}),
		newRequest(pri, map[string]any{"v": int64(1)}),
		newRequest(city, map[string]any{"c": ds.cities[len(ds.cities)/2]}),
	}
}

// checkRecovered runs the recovery checks against the restarted
// imprintd: every acknowledged row must be there, exactly.
func checkRecovered(addr string, checks []request, all *columns) []string {
	var wrong []string
	c := &conn{addr: addr}
	defer c.close()
	for _, r := range checks {
		status, err := c.do(wire(addr, "/query", r.body))
		if err != nil || status != 200 {
			wrong = append(wrong, fmt.Sprintf("after recovery: %s: status %d err %v", r.st.sql(), status, err))
			continue
		}
		got, err := parseResponse(c.body.Bytes())
		if err == nil {
			err = sameAnswer(got, eval(all, r, all.rows()))
		}
		if err != nil {
			wrong = append(wrong, fmt.Sprintf("after recovery: %s %s: %v", r.st.sql(), r.body, err))
		}
	}
	return wrong
}
