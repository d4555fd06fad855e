// Command imprintd serves SQL queries over JSON/HTTP against one
// imprint-indexed table. It fronts the table layer with a bounded
// worker pool (admission control: overflow answers 429), an LRU of
// prepared statements keyed by normalized query text, and per-query
// deadlines propagated into the segment fan-out so canceled queries
// stop scanning between segments.
//
// Usage:
//
//	imprintd [-addr :8080] [-load table.ctbl | -sample 100000]
//	         [-seed 42] [-segment-rows 0] [-shards 1]
//	         [-workers 0] [-queue 0] [-cache 128]
//	         [-default-timeout 0] [-parallelism 1]
//	         [-ingest] [-max-shard-backlog 0]
//	         [-wal DIR] [-fsync always|group|off] [-group-window 2ms]
//	         [-quarantine]
//
// Exactly one of -load (a table file written by Table.Write) or
// -sample (a synthetic "orders" table with that many rows) selects the
// served relation; -sample is the default. A -load start logs the
// image's bytes, its segment count and how long the load took.
//
// With -wal, every commit, update and delete is written to a
// write-ahead log under DIR before it is acknowledged; on startup the
// log is replayed and the recovery report logged, so a crash — kill -9
// included — loses no acknowledged write. It works with or without
// -ingest, which only chooses when inserted rows are sealed: inside the
// insert (the default) or buffered for the background sealer. -fsync
// picks the durability policy, -group-window the group-commit
// latency bound. With -quarantine, a -load image with checksum
// damage confined to individual segments loads degraded (casualties
// in /stats, /healthz reports "degraded") instead of failing.
//
// Endpoints:
//
//	POST /query    {"query": "select ...", "params": {...}, "timeout_ms": 0}
//	POST /insert   {"columns": {"qty": [1,2], "city": ["Oslo","Rome"]}}
//	GET  /explain  ?q=select ...&params={...}
//	GET  /stats    serving counters, latency histograms, recovery report
//	GET  /healthz  liveness plus table identity and degraded state
//
// SIGINT/SIGTERM drains in-flight requests, then logs the serving
// summary (queries served, rejections, cancellations, cache counters).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/table"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		load        = flag.String("load", "", "serve a table file written by Table.Write")
		sample      = flag.Int("sample", 100000, "rows in the synthetic sample table (ignored with -load)")
		seed        = flag.Int64("seed", 42, "sample table generation seed")
		segRows     = flag.Int("segment-rows", 0, "sample table segment size (0 = default)")
		workers     = flag.Int("workers", 0, "concurrent query executions (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "admission queue depth (0 = 2x workers)")
		cacheSize   = flag.Int("cache", 128, "prepared-statement LRU capacity (negative disables)")
		defTimeout  = flag.Duration("default-timeout", 0, "default per-query deadline (0 = none)")
		parallelism = flag.Int("parallelism", 1, "per-query segment fan-out (0 = one worker per core)")
		ingest      = flag.Bool("ingest", false, "enable LSM-style delta ingest (background sealing) on the served table")
		shards      = flag.Int("shards", 1, "sample table shard count (per-shard locks and ingest; ignored with -load)")
		maxBacklog  = flag.Int("max-shard-backlog", 0, "shed queries with 429 while the hottest shard buffers more than this many delta rows (0 = never)")
		walDir      = flag.String("wal", "", "write-ahead log directory; replayed on startup")
		fsyncPolicy = flag.String("fsync", "always", "WAL durability policy: always, group, or off")
		groupWindow = flag.Duration("group-window", 2*time.Millisecond, "max latency a group commit waits to batch fsyncs (with -fsync group)")
		quarantine  = flag.Bool("quarantine", false, "load past segment-level corruption in -load images (damaged segments served empty, rows marked deleted)")
	)
	flag.Parse()

	tbl, err := loadTable(*load, *sample, *seed, *segRows, *shards, *quarantine)
	if err != nil {
		var cse *table.CorruptSegmentError
		if errors.As(err, &cse) {
			log.Printf("corrupt segment: %v", cse)
		}
		fmt.Fprintln(os.Stderr, "imprintd:", err)
		os.Exit(1)
	}
	defer func() {
		if err := tbl.Close(); err != nil {
			log.Printf("table close: %v", err)
		}
	}()
	if *ingest {
		if err := tbl.EnableDeltaIngest(table.IngestOptions{AutoSeal: true}); err != nil {
			fmt.Fprintln(os.Stderr, "imprintd:", err)
			os.Exit(1)
		}
		log.Printf("delta ingest enabled (background sealing)")
	}
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "imprintd:", err)
			os.Exit(1)
		}
		rep, err := tbl.EnableWAL(table.WALOptions{
			Dir:         *walDir,
			Policy:      policy,
			GroupWindow: *groupWindow,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "imprintd:", err)
			os.Exit(1)
		}
		log.Printf("wal enabled at %s (fsync %s): recovery %s", *walDir, *fsyncPolicy, rep)
	}
	if q := tbl.Quarantined(); len(q) > 0 {
		for _, qs := range q {
			log.Printf("quarantined: %s", qs.Err)
		}
		log.Printf("serving DEGRADED: %d segments quarantined (rows marked deleted)", len(q))
	}
	log.Printf("serving table %q: %d rows, %d segments", tbl.Name(), tbl.Rows(), tbl.Segments())

	srv, err := server.New(server.Config{
		Table:           tbl,
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		DefaultTimeout:  *defTimeout,
		Parallelism:     *parallelism,
		MaxShardBacklog: *maxBacklog,
		Logf:            log.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "imprintd:", err)
		os.Exit(1)
	}

	// No WriteTimeout: query deadlines already bound execution, and a
	// large reply to a slow reader is not an attack. The header and idle
	// timeouts keep stalled or abandoned connections from piling up.
	hs := &http.Server{
		Addr: *addr, Handler: srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "imprintd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop accepting, let in-flight requests finish, then stop
	// the worker pool and report the serving totals.
	log.Printf("shutdown signal received, draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
	srv.LogStats()
}

// loadTable reads a persisted table (its shard layout comes from the
// file) or synthesizes the sample "orders" relation (qty int64, price
// float64, pri uint8, city string), sharded when -shards > 1.
func loadTable(path string, rows int, seed int64, segRows, shards int, quarantine bool) (*table.Table, error) {
	if path != "" {
		start := time.Now()
		tbl, rep, err := table.Open(path, table.LoadOptions{Quarantine: quarantine})
		if err != nil {
			return nil, err
		}
		took := time.Since(start)
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		log.Printf("loaded %s: %d bytes, %d segments in %s (%.0f MB/s)",
			path, fi.Size(), tbl.Segments(), took.Round(time.Microsecond), float64(fi.Size())/1e6/took.Seconds())
		if rep.Degraded() {
			log.Printf("loaded %s degraded: %d segments quarantined", path, len(rep.Quarantined))
		}
		return tbl, nil
	}
	if rows <= 0 {
		return nil, fmt.Errorf("need -load or a positive -sample row count")
	}
	cities := []string{"Amsterdam", "Athens", "Berlin", "Bern", "Lisbon", "Madrid", "Oslo", "Paris", "Prague", "Rome"}
	rng := rand.New(rand.NewSource(seed))
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
	tbl := table.NewWithOptions("orders", table.TableOptions{SegmentRows: segRows, Shards: shards})
	if err := table.AddColumn(tbl, "qty", qty, table.Imprints, core.Options{}); err != nil {
		return nil, err
	}
	if err := table.AddColumn(tbl, "price", price, table.Imprints, core.Options{}); err != nil {
		return nil, err
	}
	if err := table.AddColumn(tbl, "pri", pri, table.Imprints, core.Options{}); err != nil {
		return nil, err
	}
	if err := tbl.AddStringColumn("city", city, table.Imprints, core.Options{}); err != nil {
		return nil, err
	}
	return tbl, nil
}
