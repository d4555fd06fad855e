package zonemap

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

func TestRangeCachelinesConsistent(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	col := make([]int64, 6000)
	for i := range col {
		col[i] = int64(rng.IntN(100000))
	}
	ix := Build(col, Options{})
	for q := 0; q < 30; q++ {
		low := int64(rng.IntN(90000))
		high := low + int64(rng.IntN(10000))
		runs, _ := ix.RangeCachelines(low, high)
		check := func(id uint32) bool { return col[id] >= low && col[id] < high }
		ids, _ := core.MaterializeRuns(runs, ix.ValuesPerZone(), ix.Len(), nil, check)
		want, _ := ix.RangeIDs(low, high, nil)
		equalIDs(t, ids, want, "zonemap runs")
	}
}
