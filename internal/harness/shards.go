package harness

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	tbl "repro/table"
)

// ShardsExp measures the sharded-table write path: a writers × shards
// sweep (1/2/4/8 writers against 1/2/4/8 shards) where every writer
// commits pre-built append batches flat out — the loop body is the
// commit itself, so the measured rate is the commit path, not batch
// generation — while two concurrent readers run imprint-indexed band
// counts. Each commit routes to one shard and serializes only on that
// shard's delta lock, so on multi-core hosts the aggregate write rate
// scales with min(writers, shards, cores); per-shard background
// sealers drain each shard's delta independently. The experiment
// reports the aggregate write rate, reader p50/p99 latency observed
// during the write storm, and the seal lag (delta rows still buffered
// when the writers stop, worst shard in parentheses' place as its own
// column). The single-shard rows are the baseline the sharded rows are
// judged against.
func ShardsExp(cfg Config) *Experiment {
	n := int(100_000 * cfg.Scale)
	if n < 16_384 {
		n = 16_384
	}
	batchesPerWriter := int(400 * cfg.Scale)
	if batchesPerWriter < 40 {
		batchesPerWriter = 40
	}
	const batchRows = 1024
	cities := []string{
		"amsterdam", "athens", "berlin", "bern", "lisbon",
		"madrid", "oslo", "paris", "prague", "rome",
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x54a5))
	qty := make([]int64, n)
	city := make([]string, n)
	for i := 0; i < n; i++ {
		qty[i] = rng.Int64N(1_000_000)
		city[i] = cities[rng.IntN(len(cities))]
	}
	// One pre-built batch payload, committed over and over: the writers
	// measure the commit path alone.
	bq := make([]int64, batchRows)
	bc := make([]string, batchRows)
	for i := range bq {
		bq[i] = rng.Int64N(1_000_000)
		bc[i] = cities[rng.IntN(len(cities))]
	}

	header := []string{"shards", "writers", "write rows/s", "read p50 (us)",
		"read p99 (us)", "reads", "seal lag rows", "hottest shard"}
	var rows [][]string
	for _, shards := range []int{1, 2, 4, 8} {
		for _, writers := range []int{1, 2, 4, 8} {
			t := tbl.NewWithOptions("shards", tbl.TableOptions{SegmentRows: 8192, Shards: shards})
			must(tbl.AddColumn(t, "qty", qty, tbl.Imprints, core.Options{Seed: cfg.Seed}))
			must(t.AddStringColumn("city", city, tbl.Imprints, core.Options{Seed: cfg.Seed + 1}))
			must(t.EnableDeltaIngest(tbl.IngestOptions{AutoSeal: true, MaxSealSegments: 1}))

			var written atomic.Int64
			var wwg, rwg sync.WaitGroup
			stop := make(chan struct{})
			start := time.Now()
			for w := 0; w < writers; w++ {
				wwg.Add(1)
				go func() {
					defer wwg.Done()
					for i := 0; i < batchesPerWriter; i++ {
						b := t.NewBatch()
						must(tbl.Append(b, "qty", bq))
						must(b.AppendStrings("city", bc))
						must(b.Commit())
						written.Add(batchRows)
					}
				}()
			}
			// Two readers probe band counts for the whole write storm;
			// their latencies sample the read path under ingest pressure.
			lats := make([][]time.Duration, 2)
			for r := range lats {
				rwg.Add(1)
				go func(r int) {
					defer rwg.Done()
					prng := rand.New(rand.NewPCG(cfg.Seed, uint64(0x0dd+r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						lo := prng.Int64N(950_000)
						q := t.Select().Where(tbl.Range[int64]("qty", lo, lo+25_000)).
							Options(tbl.SelectOptions{Parallelism: 1})
						qs := time.Now()
						_, _, err := q.Count()
						must(err)
						lats[r] = append(lats[r], time.Since(qs))
					}
				}(r)
			}
			wwg.Wait()
			elapsed := time.Since(start)
			close(stop)
			rwg.Wait()
			st := t.IngestStats()
			must(t.Close())

			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			rows = append(rows, []string{
				d(shards), d(writers),
				fmt.Sprintf("%.0f", float64(written.Load())/elapsed.Seconds()),
				fmt.Sprint(percentile(all, 0.50).Microseconds()),
				fmt.Sprint(percentile(all, 0.99).Microseconds()),
				d(len(all)),
				d(st.DeltaRows),
				d(st.MaxShardDeltaRows()),
			})
		}
	}
	return tabular("shards",
		"Sharded ingest: aggregate write rate and read latency, writers x shards",
		header, rows)
}

// percentile returns the p-quantile of the latency sample.
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
