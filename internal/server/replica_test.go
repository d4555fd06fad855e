package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/table"
)

// TestMixedReplica is a profiling harness, not a behaviour test: an
// in-process replica of bench's mixed-ingest workload — a 2-shard,
// 2 M-row orders table with delta ingest, auto-seal and a
// fsync-always WAL behind server.New, one goroutine posting 512-row
// /insert bodies back to back and one replaying the blend of the three
// read mixes — so that `go test -cpuprofile` sees inside what the
// benchmark can only time from outside. It skips unless
// IMPRINT_REPLICA_SECONDS names the measured window:
//
//	IMPRINT_REPLICA_SECONDS=12 go test ./internal/server -run TestMixedReplica \
//	    -cpuprofile /root/scratch/replica.prof -o /root/scratch/server.test
//	go tool pprof -top -nodecount 50 /root/scratch/server.test /root/scratch/replica.prof
func TestMixedReplica(t *testing.T) {
	secs, _ := strconv.Atoi(os.Getenv("IMPRINT_REPLICA_SECONDS"))
	if secs <= 0 {
		t.Skip("profiling harness: set IMPRINT_REPLICA_SECONDS")
	}
	const base, pool, batchRows, tsStep = 2_000_000, 256 * 512, 512, 10
	n := base + pool
	rng := rand.New(rand.NewPCG(42, 1))
	ts, qty, price := make([]int64, n), make([]int64, n), make([]float64, n)
	pri, city := make([]uint8, n), make([]string, n)
	var cities []string
	for _, region := range []string{"af", "an", "as", "eu", "me", "na", "oc", "sa"} {
		for k := 0; k < 8; k++ {
			cities = append(cities, fmt.Sprintf("%s-%d", region, k))
		}
	}
	p := 500.0
	for i, runEnd, region := 0, 0, 0; i < n; i++ {
		if i == runEnd {
			region, runEnd = rng.IntN(8), i+2048+rng.IntN(14336)
		}
		p = math.Abs(p + (rng.Float64()-0.5)*4)
		if p > 1000 {
			p = 2000 - p
		}
		ts[i], qty[i], price[i] = int64(i)*tsStep+rng.Int64N(1000), rng.Int64N(1_000_000), math.Round(p*100)/100
		pri[i], city[i] = uint8(rng.IntN(5)), cities[region*8+rng.IntN(8)]
	}
	tb := table.NewWithOptions("orders", table.TableOptions{Shards: 2})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(table.AddColumn(tb, "ts", ts[:base], table.Imprints, core.Options{Seed: 1}))
	must(table.AddColumn(tb, "qty", qty[:base], table.Imprints, core.Options{Seed: 2}))
	must(table.AddColumn(tb, "price", price[:base], table.Imprints, core.Options{Seed: 3}))
	must(table.AddColumn(tb, "pri", pri[:base], table.Imprints, core.Options{Seed: 4}))
	must(tb.AddStringColumn("city", city[:base], table.Imprints, core.Options{Seed: 5}))
	must(tb.EnableDeltaIngest(table.IngestOptions{AutoSeal: true}))
	_, err := tb.EnableWAL(table.WALOptions{Dir: t.TempDir(), Policy: wal.SyncAlways})
	must(err)
	defer tb.Close()
	srv, err := New(Config{Table: tb, Parallelism: 1})
	must(err)
	defer srv.Close()

	post := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	inserts := make([][]byte, pool/batchRows)
	for b := range inserts {
		lo, hi := base+b*batchRows, base+(b+1)*batchRows
		priNums := make([]int, batchRows) // a []uint8 would marshal as base64
		for i, v := range pri[lo:hi] {
			priNums[i] = int(v)
		}
		inserts[b], err = json.Marshal(map[string]any{"columns": map[string]any{
			"ts": ts[lo:hi], "qty": qty[lo:hi], "price": price[lo:hi], "pri": priNums, "city": city[lo:hi]}})
		must(err)
	}
	sorted := slices.Clone(price[:base])
	slices.Sort(sorted)
	band := func(lo, hi float64) (float64, float64) { // a value band holding a lo..hi share of the rows
		share := lo + rng.Float64()*(hi-lo)
		at := rng.Float64() * (1 - share)
		return sorted[int(at*base)], sorted[int((at+share)*base)]
	}
	tsBand := func(rows int) map[string]any {
		lo := rng.Int64N(int64(base-rows) * tsStep)
		return map[string]any{"lo": lo, "hi": lo + int64(rows)*tsStep}
	}
	qtyBand := func(lo, hi float64) map[string]any {
		share := lo + rng.Float64()*(hi-lo)
		at := rng.Int64N(int64((1 - share) * 1e6))
		return map[string]any{"lo": at, "hi": at + int64(share*1e6)}
	}
	with := func(params map[string]any, k string, v any) map[string]any { params[k] = v; return params }
	draws := []func() (string, map[string]any){
		func() (string, map[string]any) {
			return "select count(*) from orders where ts >= $lo and ts < $hi", tsBand(200 + rng.IntN(1800))
		},
		func() (string, map[string]any) {
			return "select min(price), max(price) from orders where ts >= $lo and ts < $hi", tsBand(200 + rng.IntN(1800))
		},
		func() (string, map[string]any) {
			return "select count(*) from orders where qty = $v", map[string]any{"v": rng.Int64N(1_000_000)}
		},
		func() (string, map[string]any) {
			return "select count(*) from orders where city = $c and ts >= $lo and ts < $hi",
				with(tsBand(200+rng.IntN(1800)), "c", cities[rng.IntN(64)])
		},
		func() (string, map[string]any) {
			lo, hi := band(0.10, 0.40)
			return "select sum(price), avg(price), count(*) from orders where price >= $lo and price < $hi",
				map[string]any{"lo": lo, "hi": hi}
		},
		func() (string, map[string]any) {
			return "select city, count(*), sum(qty) from orders where qty >= $lo and qty < $hi group by city", qtyBand(0.20, 0.60)
		},
		func() (string, map[string]any) {
			return "select ts, qty, price from orders where qty >= $lo and qty < $hi order by price desc limit 10", qtyBand(0.10, 0.30)
		},
		func() (string, map[string]any) {
			return "select ts, qty, price, pri, city from orders where ts >= $lo and ts < $hi limit 2000", tsBand(2000 + rng.IntN(2000))
		},
		func() (string, map[string]any) {
			return "select * from orders where city = $c and qty < $hi limit 2000",
				map[string]any{"c": cities[rng.IntN(64)], "hi": 100_000 + rng.Int64N(900_000)}
		},
	}
	mixes := [][]int{{0, 0, 1, 2, 3}, {4, 5, 6}, {7, 7, 8}}
	queries := make([][]byte, 4096)
	for i := range queries {
		mix := mixes[rng.IntN(3)]
		text, params := draws[mix[rng.IntN(len(mix))]]()
		queries[i], err = json.Marshal(map[string]any{"query": text, "params": params})
		must(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var inserted int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			post("/insert", inserts[i%len(inserts)])
			inserted += batchRows
		}
	}()
	var lat []time.Duration
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		post("/query", queries[i%len(queries)])
		lat = append(lat, time.Since(start))
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(lat)
	st := tb.IngestStats()
	t.Logf("%d reads (%.1f/s), p50 %v, p99 %v; %d rows inserted (%.0f/s); %d rows buffered, %d seals, %d retries",
		len(lat), float64(len(lat))/float64(secs), lat[len(lat)/2], lat[len(lat)*99/100],
		inserted, float64(inserted)/float64(secs), st.DeltaRows, st.Seals, st.SealRetries)
}
