package table

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// blocksFromCachelines is blocksFromCachelinesInto allocating its
// result.
func blocksFromCachelines(runs []core.CandidateRun, f int, totalCl int) []core.CandidateRun {
	return blocksFromCachelinesInto(nil, runs, f, totalCl)
}

// model computes the expected per-block candidacy/exactness from a
// per-cacheline picture.
func blockModel(runs []core.CandidateRun, f, totalCl int) map[uint32]bool {
	type cls struct {
		covered int
		exact   bool
		seen    bool
	}
	blocks := map[uint32]*cls{}
	for _, r := range runs {
		for i := uint32(0); i < r.Count; i++ {
			cl := r.Start + i
			b := cl / uint32(f)
			st, ok := blocks[b]
			if !ok {
				st = &cls{exact: true}
				blocks[b] = st
			}
			st.seen = true
			st.covered++
			if !r.Exact {
				st.exact = false
			}
		}
	}
	out := map[uint32]bool{}
	for b, st := range blocks {
		if !st.seen {
			continue
		}
		blockLen := totalCl - int(b)*f
		if blockLen > f {
			blockLen = f
		}
		out[b] = st.exact && st.covered == blockLen
	}
	return out
}

func TestBlocksFromCachelinesBasic(t *testing.T) {
	// f=4, 10 cachelines -> blocks of 4,4,2.
	runs := []core.CandidateRun{
		{Start: 0, Count: 4, Exact: true},  // block 0 fully exact
		{Start: 5, Count: 2, Exact: true},  // block 1 partially covered
		{Start: 8, Count: 2, Exact: false}, // block 2 (short) fully covered, inexact
	}
	got := blocksFromCachelines(runs, 4, 10)
	// Blocks 1 and 2 are both inexact candidates and adjacent, so they
	// merge into one run.
	want := []core.CandidateRun{
		{Start: 0, Count: 1, Exact: true},
		{Start: 1, Count: 2, Exact: false},
	}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
}

func TestBlocksFromCachelinesShortFinalBlockExact(t *testing.T) {
	// The final block has only 2 existing cachelines; covering both
	// exactly makes the block exact.
	runs := []core.CandidateRun{{Start: 8, Count: 2, Exact: true}}
	got := blocksFromCachelines(runs, 4, 10)
	if len(got) != 1 || got[0] != (core.CandidateRun{Start: 2, Count: 1, Exact: true}) {
		t.Fatalf("got %+v", got)
	}
}

func TestBlocksFromCachelinesLongRunFastPath(t *testing.T) {
	// One run across many whole blocks must become one output run.
	runs := []core.CandidateRun{{Start: 3, Count: 1000, Exact: true}}
	got := blocksFromCachelines(runs, 8, 2000)
	// Head block 0 partial (cl 3..7), middle blocks 1..125 whole,
	// tail block 125: cl 1000..1002 -> 1003/8 = 125 r3.
	if len(got) != 3 {
		t.Fatalf("got %d runs: %+v", len(got), got)
	}
	if got[0].Exact || got[0].Start != 0 {
		t.Errorf("head block: %+v", got[0])
	}
	if !got[1].Exact || got[1].Start != 1 || got[1].Count != 124 {
		t.Errorf("middle blocks: %+v", got[1])
	}
	if got[2].Exact || got[2].Start != 125 {
		t.Errorf("tail block: %+v", got[2])
	}
}

func TestBlocksIdentityWhenFIsOne(t *testing.T) {
	runs := []core.CandidateRun{{Start: 2, Count: 3, Exact: true}}
	got := blocksFromCachelines(runs, 1, 100)
	if len(got) != 1 || got[0] != runs[0] {
		t.Fatalf("f=1 should be identity: %+v", got)
	}
}

// Property: blocksFromCachelines agrees with the per-cacheline model for
// random well-formed run lists and factors.
func TestQuickBlocksModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xb10c))
		factor := []int{1, 2, 4, 8}[rng.IntN(4)]
		totalCl := 1 + rng.IntN(200)
		// Build sorted disjoint runs within [0, totalCl).
		var runs []core.CandidateRun
		cl := 0
		for cl < totalCl {
			cl += rng.IntN(3)
			if cl >= totalCl {
				break
			}
			cnt := 1 + rng.IntN(10)
			if cl+cnt > totalCl {
				cnt = totalCl - cl
			}
			exact := rng.IntN(2) == 0
			if n := len(runs); n > 0 && int(runs[n-1].Start+runs[n-1].Count) == cl && runs[n-1].Exact == exact {
				runs[n-1].Count += uint32(cnt)
			} else {
				runs = append(runs, core.CandidateRun{Start: uint32(cl), Count: uint32(cnt), Exact: exact})
			}
			cl += cnt
		}
		got := blocksFromCachelines(runs, factor, totalCl)
		model := blockModel(runs, factor, totalCl)
		seen := map[uint32]bool{}
		for i, r := range got {
			if r.Count == 0 {
				return false
			}
			if i > 0 && r.Start < got[i-1].Start+got[i-1].Count {
				return false // overlap
			}
			for j := uint32(0); j < r.Count; j++ {
				b := r.Start + j
				wantExact, ok := model[b]
				if !ok || wantExact != r.Exact {
					return false
				}
				seen[b] = true
			}
		}
		return len(seen) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestUnitProbeMatchesRenormalizedProbe is the differential oracle of
// the unit-parametrised probe: asking the imprint for blocks directly
// (core.Index.RunsInto at unit f) must equal the paper's cacheline
// probe (the *CachelinesInto entry points, unit 1) renormalized by
// blocksFromCachelinesInto — run for run, and QueryStats field for
// field (they count cachelines whatever the unit) — for all five
// predicate kinds, every stored vector width, every cachelines-per-block
// factor the table can ask for, dictionaries that are all distinct
// vectors, mostly repeats and a mix, and a column that ends in a
// partial cacheline inside a partial block.
func TestUnitProbeMatchesRenormalizedProbe(t *testing.T) {
	const n, domain = 16411, 1 << 20 // n is prime: no vpc divides it
	shapes := map[string]func(rng *rand.Rand) []int64{
		"uncompressed": func(rng *rand.Rand) []int64 {
			col := make([]int64, n)
			for i := range col {
				col[i] = rng.Int64N(domain)
			}
			return col
		},
		"repeatHeavy": func(rng *rand.Rand) []int64 {
			col := make([]int64, n)
			for i := 0; i < n; {
				v := rng.Int64N(domain)
				for end := min(n, i+50+rng.IntN(200)); i < end; i++ {
					col[i] = v
				}
			}
			return col
		},
		"mixed": func(rng *rand.Rand) []int64 {
			col := make([]int64, n)
			for i := 0; i < n; {
				v, noisy := rng.Int64N(domain), rng.IntN(2) == 0
				for end := min(n, i+1+rng.IntN(300)); i < end; i++ {
					col[i] = v
					if noisy {
						col[i] = v/2 + rng.Int64N(domain/2)
					}
				}
			}
			return col
		},
	}
	for shape, gen := range shapes {
		for _, bins := range []int{8, 16, 32, 64} { // the vector width stored
			for _, vpc := range []int{8, 16, 32, 64, 4} { // 4: a custom ValuesPerCacheline
				rng := rand.New(rand.NewPCG(uint64(bins), uint64(vpc)))
				ix := core.Build(gen(rng), core.Options{Seed: 3, MaxBins: bins, ValuesPerCacheline: vpc})
				if ix.Bins() != bins {
					t.Fatalf("%s: built %d bins, want %d", shape, ix.Bins(), bins)
				}
				f, totalCl := BlockRows/vpc, ix.Cachelines()
				for trial := 0; trial < 12; trial++ {
					lo := rng.Int64N(domain)
					hi := lo + rng.Int64N(domain/4)
					set := []int64{ix.Column()[rng.IntN(n)], lo, hi}
					for kind, probe := range map[string]struct {
						m  core.Masks
						cl func() ([]core.CandidateRun, core.QueryStats)
					}{
						"range":    {ix.RangeMasks(lo, hi), func() ([]core.CandidateRun, core.QueryStats) { return ix.RangeCachelinesInto(nil, lo, hi) }},
						"atLeast":  {ix.AtLeastMasks(lo), func() ([]core.CandidateRun, core.QueryStats) { return ix.AtLeastCachelinesInto(nil, lo) }},
						"lessThan": {ix.LessThanMasks(hi), func() ([]core.CandidateRun, core.QueryStats) { return ix.LessThanCachelinesInto(nil, hi) }},
						"point":    {ix.PointMasks(set[0]), func() ([]core.CandidateRun, core.QueryStats) { return ix.PointCachelinesInto(nil, set[0]) }},
						"in":       {ix.InSetMasks(set), func() ([]core.CandidateRun, core.QueryStats) { return ix.InSetCachelinesInto(nil, set) }},
					} {
						cl, clStats := probe.cl()
						want := blocksFromCachelinesInto(nil, cl, f, totalCl)
						got, stats := ix.RunsInto(nil, probe.m, f, nil)
						ctx := fmt.Sprintf("%s bins=%d vpc=%d %s [%d, %d)", shape, bins, vpc, kind, lo, hi)
						if stats != clStats {
							t.Fatalf("%s: stats diverge\nunit %d: %+v\nunit 1: %+v", ctx, f, stats, clStats)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: runs diverge\nunit %d:      %+v\nrenormalized: %+v", ctx, f, got, want)
						}
					}
				}
			}
		}
	}
}
