package table

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestConcurrentReadersAndWriters exercises the north-star traffic
// model under the race detector: query readers (IDs, Count, streaming
// Rows with mid-stream breaks, ReadRow) run against batch-append,
// update, delete and maintenance writers. Results cannot be compared to
// a fixed oracle while writers run, so readers assert invariants: no
// error, ascending ids, values consistent with the predicate.
func TestConcurrentReadersAndWriters(t *testing.T) {
	const n = 8192
	rng := rand.New(rand.NewPCG(42, 43))
	qty := make([]int64, n)
	city := make([]string, n)
	v := int64(1000)
	for i := 0; i < n; i++ {
		v += int64(rng.IntN(21)) - 10
		qty[i] = v
		city[i] = cities[rng.IntN(len(cities))]
	}
	tb := New("traffic")
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var readers, writers sync.WaitGroup

	// Readers: hammer the query surface until the writers finish.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, 99))
			pred := And(AtLeast[int64]("qty", 900), StrPrefix("city", "P"))
			for {
				select {
				case <-done:
					return
				default:
				}
				switch rng.IntN(4) {
				case 0:
					ids, _, err := tb.Select().Where(pred).IDs()
					if err != nil {
						t.Errorf("reader IDs: %v", err)
						return
					}
					for i := 1; i < len(ids); i++ {
						if ids[i-1] >= ids[i] {
							t.Errorf("ids not ascending at %d", i)
							return
						}
					}
				case 1:
					if _, _, err := tb.Select().Where(pred).Count(); err != nil {
						t.Errorf("reader Count: %v", err)
						return
					}
				case 2:
					q := tb.Select("qty", "city").Where(pred).Limit(64)
					seen := 0
					for _, row := range q.Rows() {
						if qv, ok := row.Get("qty").(int64); !ok || qv < 900 {
							t.Errorf("row violates predicate: %v", row)
							return
						}
						seen++
						if seen == 16 {
							break // mid-stream break must release the lock
						}
					}
					if q.Err() != nil {
						t.Errorf("reader Rows: %v", q.Err())
						return
					}
				default:
					rows := tb.Rows()
					if rows == 0 {
						continue
					}
					// Rows may be compacted or deleted between the
					// bound read and the access; both errors are fine,
					// data races are what the detector is here for.
					_, _ = tb.ReadRow(rng.IntN(rows))
				}
			}
		}(uint64(r))
	}

	// Writer: batch appends.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewPCG(7, 7))
		for round := 0; round < 30; round++ {
			b := tb.NewBatch()
			nq := make([]int64, 128)
			nc := make([]string, 128)
			for i := range nq {
				nq[i] = int64(900 + rng.IntN(300))
				nc[i] = cities[rng.IntN(len(cities))]
			}
			if err := Append(b, "qty", nq); err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := b.AppendStrings("city", nc); err != nil {
				t.Errorf("append strings: %v", err)
				return
			}
			if err := b.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
	}()

	// Writer: point updates, numeric and string. A concurrent compact
	// may shrink the table between the bound read and the call, so
	// range errors are tolerated — the race detector is the assertion.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewPCG(8, 8))
		for u := 0; u < 3000; u++ {
			rows := tb.Rows()
			if rows == 0 {
				continue
			}
			id := rng.IntN(rows)
			if u%3 == 0 {
				_ = tb.UpdateString("city", id, cities[rng.IntN(len(cities))])
			} else {
				_ = Update(tb, "qty", id, int64(900+rng.IntN(300)))
			}
		}
	}()

	// Writer: deletes plus maintenance that compacts and renumbers ids
	// under the readers — the riskiest writer, so the test asserts the
	// compaction really fired.
	var compactions int
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewPCG(9, 9))
		for d := 0; d < 1500; d++ {
			rows := tb.Rows()
			if rows > 0 {
				// The row may vanish in a concurrent compact; only data
				// races matter here.
				_ = tb.Delete(rng.IntN(rows))
			}
			if d%300 == 299 {
				if rep := tb.Maintain(MaintainOptions{DeletedFraction: 0.05}); rep.Compacted {
					compactions++
				}
			}
		}
	}()

	writers.Wait()
	close(done)
	readers.Wait()

	if compactions == 0 {
		t.Error("maintenance never compacted: reader-vs-compaction went unexercised")
	}

	// Final consistency: with writers quiesced, the query surface must
	// agree with a fresh scan of the live data.
	ids, _, err := tb.Select().Where(AtLeast[int64]("qty", 900)).IDs()
	if err != nil {
		t.Fatal(err)
	}
	liveQty, err := Column[int64](tb, "qty")
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for i, q := range liveQty {
		if !tb.IsDeleted(i) && q >= 900 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, ids, want, "post-quiesce query")
}

// TestEnableDeltaIngestUnderCommits flips the seal policy from
// immediate to buffered (with the background sealer) while writers
// commit and a reader counts. A commit that chose its lock under the old
// policy finishes under the new one; whichever way it goes, every
// committed row must end up in the table exactly once, and the write
// path's own accounting must agree: rows sealed plus rows flushed equal
// rows committed, so none was moved out of the delta store twice.
func TestEnableDeltaIngestUnderCommits(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tb := mkQtyCity(t, shards)
			defer tb.Close()

			const writers, batches = 4, 60
			var committed atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewPCG(uint64(w), 23))
					next := int64(w) << 32 // writer w's values are its own
					for i := 0; i < batches; i++ {
						n := 1 + rng.IntN(90)
						vals, strs := make([]int64, n), make([]string, n)
						for j := range vals {
							vals[j], strs[j] = next, cities[rng.IntN(len(cities))]
							next++
						}
						if err := commitQC(tb, vals, strs); err != nil {
							t.Error(err)
							return
						}
						committed.Add(int64(n))
					}
				}(w)
			}
			done := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				var last uint64
				for {
					select {
					case <-done:
						return
					default:
					}
					n, _, err := tb.Select().Count()
					if err != nil || n < last {
						t.Errorf("reader: count %d after %d (%v)", n, last, err)
						return
					}
					last = n
				}
			}()

			// Flip once the writers are under way.
			for committed.Load() < 500 {
				runtime.Gosched()
			}
			if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: true}); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(done)
			reader.Wait()
			if t.Failed() {
				return
			}

			tb.FlushDelta()
			total := int(committed.Load())
			if tb.Rows() != total || tb.DeltaRows() != 0 {
				t.Fatalf("Rows = %d with %d buffered, want %d and 0", tb.Rows(), tb.DeltaRows(), total)
			}
			if st := tb.IngestStats(); int(st.SealedRows+st.FlushedRows) != total || !st.Enabled {
				t.Fatalf("sealed %d + flushed %d rows, committed %d (enabled %v)",
					st.SealedRows, st.FlushedRows, total, st.Enabled)
			}
			got, err := Column[int64](tb, "qty")
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(got)
			for i := 1; i < len(got); i++ {
				if got[i] == got[i-1] {
					t.Fatalf("value %d committed once, stored twice", got[i])
				}
			}
			// Each writer's values are consecutive from w<<32, so the
			// sorted column is writers runs without a gap.
			runs := 1
			for i := 1; i < len(got); i++ {
				if got[i] != got[i-1]+1 {
					runs++
				}
			}
			if len(got) != total || runs != writers {
				t.Fatalf("%d values in %d consecutive runs, want %d in %d", len(got), runs, total, writers)
			}
			if n, _, err := tb.Select().Where(AtLeast[int64]("qty", 0)).Count(); err != nil || int(n) != total {
				t.Fatalf("indexed count = %d (%v), want %d", n, err, total)
			}
		})
	}
}
