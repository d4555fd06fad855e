package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRangeIteratorMatchesRangeIDs(t *testing.T) {
	cols := map[string][]int64{
		"clustered": clusteredCol(5000, 1),
		"random":    randomCol(5000, 100000, 2),
		"partial":   randomCol(5003, 1000, 3),
		"tiny":      randomCol(3, 50, 4),
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for name, col := range cols {
		ix := Build(col, Options{Seed: 7})
		for q := 0; q < 20; q++ {
			low := int64(rng.IntN(1000000))
			high := low + int64(rng.IntN(100000))
			var got []uint32
			for id := range ix.Range(low, high) {
				got = append(got, id)
			}
			want, _ := ix.RangeIDs(low, high, nil)
			equalIDs(t, got, want, name)
		}
	}
}

func TestRangeIteratorEarlyStop(t *testing.T) {
	col := sortedCol(10000)
	ix := Build(col, Options{Seed: 1})
	// LIMIT 5 over a huge result.
	var got []uint32
	for id := range ix.Range(0, 1<<40) {
		got = append(got, id)
		if len(got) == 5 {
			break
		}
	}
	if len(got) != 5 {
		t.Fatalf("collected %d ids", len(got))
	}
	for i, id := range got {
		if id != uint32(i) {
			t.Fatalf("got[%d] = %d", i, id)
		}
	}
}

func TestEstimateSelectivity(t *testing.T) {
	// Uniform data: the estimate should track the true selectivity
	// closely across the sweep.
	rng := rand.New(rand.NewPCG(6, 6))
	col := make([]int64, 100000)
	for i := range col {
		col[i] = int64(rng.IntN(1 << 30))
	}
	ix := Build(col, Options{Seed: 1})
	for _, sel := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		low := int64(0)
		high := int64(sel * float64(int64(1)<<30))
		est := ix.EstimateSelectivity(low, high)
		truth := float64(len(scanIDs(col, low, high))) / float64(len(col))
		if diff := est - truth; diff < -0.08 || diff > 0.08 {
			t.Errorf("sel %.2f: estimate %.3f, truth %.3f", sel, est, truth)
		}
	}
	// Degenerate and full ranges.
	if got := ix.EstimateSelectivity(5, 5); got != 0 {
		t.Errorf("empty range estimate %v", got)
	}
	if got := ix.EstimateSelectivity(0, 1<<30); got < 0.9 {
		t.Errorf("full range estimate %v", got)
	}
}

func TestEstimateSelectivityBounds(t *testing.T) {
	f := func(seed uint64, a, b int64) bool {
		col := clusteredCol(2000, seed)
		ix := Build(col, Options{Seed: seed})
		if a > b {
			a, b = b, a
		}
		est := ix.EstimateSelectivity(a, b)
		return est >= 0 && est <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
