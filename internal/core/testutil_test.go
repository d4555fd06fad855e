package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/coltype"
)

// scanIDs is the sequential-scan oracle: ids of values in [low, high).
func scanIDs[V coltype.Value](col []V, low, high V) []uint32 {
	var ids []uint32
	for i, v := range col {
		if v >= low && v < high {
			ids = append(ids, uint32(i))
		}
	}
	return ids
}

func equalIDs(t *testing.T, got, want []uint32, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

// Column generators covering the paper's data regimes.

func sortedCol(n int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(i * 3)
	}
	return col
}

func randomCol(n, card int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0xabc))
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(rng.IntN(card))
	}
	return col
}

// clusteredCol emulates the locally-clustered "secondary data" the paper
// observes: a random walk with occasional jumps.
func clusteredCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0xdef))
	col := make([]int64, n)
	v := int64(500000)
	for i := range col {
		if rng.IntN(1000) == 0 {
			v = int64(rng.IntN(1000000))
		}
		v += int64(rng.IntN(11)) - 5
		col[i] = v
	}
	return col
}

// skewedCol is the zonemap-killer of Section 2.2: each cacheline holds
// the domain minimum, the maximum and random values in between.
func skewedCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x777))
	col := make([]int64, n)
	vpc := coltype.ValuesPerCacheline[int64]()
	for i := range col {
		switch i % vpc {
		case 0:
			col[i] = 0
		case 1:
			col[i] = 1 << 40
		default:
			col[i] = int64(rng.IntN(1 << 40))
		}
	}
	return col
}

func constantCol(n int) []int64 {
	col := make([]int64, n)
	for i := range col {
		col[i] = 42
	}
	return col
}

func uniformFloats(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 0x123))
	col := make([]float64, n)
	for i := range col {
		col[i] = rng.Float64() * 1e6
	}
	return col
}

// equalIndexes compares complete index state (used by the build,
// append and serialization tests).
func equalIndexes[V coltype.Value](t *testing.T, a, b *Index[V], ctx string) {
	t.Helper()
	if a.n != b.n || a.committed != b.committed || a.vpc != b.vpc {
		t.Fatalf("%s: geometry differs: n %d/%d committed %d/%d vpc %d/%d",
			ctx, a.n, b.n, a.committed, b.committed, a.vpc, b.vpc)
	}
	if a.pendingVec != b.pendingVec || a.pendingCount != b.pendingCount {
		t.Fatalf("%s: pending differs: %#x/%d vs %#x/%d",
			ctx, a.pendingVec, a.pendingCount, b.pendingVec, b.pendingCount)
	}
	if len(a.dict) != len(b.dict) {
		t.Fatalf("%s: dict length %d vs %d", ctx, len(a.dict), len(b.dict))
	}
	for i := range a.dict {
		if a.dict[i] != b.dict[i] {
			t.Fatalf("%s: dict[%d] = %v vs %v", ctx, i, a.dict[i], b.dict[i])
		}
	}
	if a.vecs.n != b.vecs.n || a.vecs.width != b.vecs.width {
		t.Fatalf("%s: vecstore geometry differs", ctx)
	}
	for i := 0; i < a.vecs.n; i++ {
		if a.vecs.get(i) != b.vecs.get(i) {
			t.Fatalf("%s: vector %d = %#x vs %#x", ctx, i, a.vecs.get(i), b.vecs.get(i))
		}
	}
	if !a.hist.Equal(b.hist) {
		t.Fatalf("%s: histograms differ", ctx)
	}
}
