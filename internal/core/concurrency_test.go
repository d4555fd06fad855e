package core

import (
	"fmt"
	"sync"
	"testing"
)

// An Index is immutable after construction (absent Append/MarkUpdated),
// so any number of goroutines may query it concurrently. This test is
// meaningful under -race.
func TestConcurrentQueries(t *testing.T) {
	col := clusteredCol(20000, 71)
	ix := Build(col, Options{Seed: 71})
	tl := NewTwoLevel(ix, 32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := make([]uint32, 0, len(col))
			for q := 0; q < 50; q++ {
				low := int64(q * 10000)
				high := low + 50000
				a, _ := ix.RangeIDs(low, high, res[:0])
				want := scanIDs(col, low, high)
				if len(a) != len(want) {
					t.Errorf("worker %d: %d ids, want %d", w, len(a), len(want))
					return
				}
				if _, st := ix.CountRange(low, high); st.Probes == 0 {
					t.Errorf("worker %d: no probes", w)
					return
				}
				b, _ := tl.RangeIDs(low, high, nil)
				if len(b) != len(want) {
					t.Errorf("worker %d: two-level %d ids, want %d", w, len(b), len(want))
					return
				}
				_ = ix.Entropy()
				runs, _ := ix.RangeCachelines(low, high)
				_ = TotalCachelines(runs)
			}
		}(w)
	}
	wg.Wait()
}

// Builds over one shared column must not race and must agree;
// meaningful under -race.
func TestConcurrentBuilds(t *testing.T) {
	col := clusteredCol(30000, 72)
	var wg sync.WaitGroup
	results := make([]*Index[int64], 4)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Build(col, Options{Seed: 5})
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		equalIndexes(t, results[i], results[0], fmt.Sprintf("build %d", i))
	}
}
