package core

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func runsOf(pairs ...[3]uint32) []CandidateRun {
	var out []CandidateRun
	for _, p := range pairs {
		out = append(out, CandidateRun{Start: p[0], Count: p[1], Exact: p[2] == 1})
	}
	return out
}

func TestUnionRunsBasic(t *testing.T) {
	a := runsOf([3]uint32{0, 5, 1}, [3]uint32{20, 5, 0})
	b := runsOf([3]uint32{3, 10, 0})
	got := UnionRunsInto(nil, a, b)
	// [0,3) exact, [3,5) exact|inexact = exact, [5,13) inexact, [20,25) inexact.
	want := runsOf([3]uint32{0, 5, 1}, [3]uint32{5, 8, 0}, [3]uint32{20, 5, 0})
	if !slices.Equal(got, want) {
		t.Fatalf("UnionRunsInto = %+v, want %+v", got, want)
	}
}

func TestUnionRunsDisjointAndEmpty(t *testing.T) {
	a := runsOf([3]uint32{0, 2, 0})
	b := runsOf([3]uint32{5, 2, 1})
	got := UnionRunsInto(nil, a, b)
	want := runsOf([3]uint32{0, 2, 0}, [3]uint32{5, 2, 1})
	if !slices.Equal(got, want) {
		t.Fatalf("UnionRunsInto = %+v, want %+v", got, want)
	}
	if got := UnionRunsInto(nil, nil, b); !slices.Equal(got, b) {
		t.Fatalf("union with empty = %+v", got)
	}
	if got := UnionRunsInto(nil, a, nil); !slices.Equal(got, a) {
		t.Fatalf("union with empty = %+v", got)
	}
	if got := UnionRunsInto(nil, nil, nil); len(got) != 0 {
		t.Fatalf("union of empties = %+v", got)
	}
}

func TestDiffRunsBasic(t *testing.T) {
	a := runsOf([3]uint32{0, 10, 1})
	b := runsOf([3]uint32{2, 3, 1}, [3]uint32{7, 2, 0})
	got := DiffRunsInto(nil, a, b)
	// [0,2) survives exact; [2,5) dropped (b exact); [5,7) exact;
	// [7,9) inexact (b candidates but not exact); [9,10) exact.
	want := runsOf([3]uint32{0, 2, 1}, [3]uint32{5, 2, 1}, [3]uint32{7, 2, 0}, [3]uint32{9, 1, 1})
	if !slices.Equal(got, want) {
		t.Fatalf("DiffRunsInto = %+v, want %+v", got, want)
	}
}

func TestDiffRunsNoOverlap(t *testing.T) {
	a := runsOf([3]uint32{0, 3, 0})
	b := runsOf([3]uint32{10, 3, 1})
	if got := DiffRunsInto(nil, a, b); !slices.Equal(got, a) {
		t.Fatalf("DiffRunsInto = %+v", got)
	}
	if got := DiffRunsInto(nil, a, nil); !slices.Equal(got, a) {
		t.Fatalf("DiffRunsInto empty b = %+v", got)
	}
	if got := DiffRunsInto(nil, nil, b); len(got) != 0 {
		t.Fatalf("DiffRunsInto empty a = %+v", got)
	}
}

// model-based checks: per-cacheline maps.
func runModel(runs []CandidateRun) map[uint32]bool {
	m := map[uint32]bool{}
	for _, r := range runs {
		for i := uint32(0); i < r.Count; i++ {
			m[r.Start+i] = r.Exact
		}
	}
	return m
}

func randomRuns(rng *rand.Rand) []CandidateRun {
	var runs []CandidateRun
	cl := uint32(0)
	for k := 0; k < 1+rng.IntN(6); k++ {
		cl += uint32(rng.IntN(4))
		cnt := uint32(1 + rng.IntN(6))
		exact := rng.IntN(2) == 0
		if n := len(runs); n > 0 && runs[n-1].Start+runs[n-1].Count == cl && runs[n-1].Exact == exact {
			runs[n-1].Count += cnt
		} else {
			runs = append(runs, CandidateRun{Start: cl, Count: cnt, Exact: exact})
		}
		cl += cnt
	}
	return runs
}

func wellFormed(runs []CandidateRun) bool {
	for i, r := range runs {
		if r.Count == 0 {
			return false
		}
		if i > 0 {
			prev := runs[i-1]
			if r.Start < prev.Start+prev.Count {
				return false
			}
			if r.Start == prev.Start+prev.Count && r.Exact == prev.Exact {
				return false // should have merged
			}
		}
	}
	return true
}

func TestQuickUnionRunsModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xabcd))
		a, b := randomRuns(rng), randomRuns(rng)
		got := UnionRunsInto(nil, a, b)
		if !wellFormed(got) {
			return false
		}
		ma, mb, mg := runModel(a), runModel(b), runModel(got)
		for cl, ea := range ma {
			eb, inB := mb[cl]
			want := ea || (inB && eb)
			if g, ok := mg[cl]; !ok || g != want {
				return false
			}
		}
		for cl, eb := range mb {
			ea, inA := ma[cl]
			want := eb || (inA && ea)
			if g, ok := mg[cl]; !ok || g != want {
				return false
			}
		}
		for cl := range mg {
			if _, inA := ma[cl]; !inA {
				if _, inB := mb[cl]; !inB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiffRunsModel(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xdcba))
		a, b := randomRuns(rng), randomRuns(rng)
		got := DiffRunsInto(nil, a, b)
		if !wellFormed(got) {
			return false
		}
		mg := runModel(got)
		ma, mb := runModel(a), runModel(b)
		for cl, ea := range ma {
			eb, inB := mb[cl]
			switch {
			case !inB: // survives unchanged
				if g, ok := mg[cl]; !ok || g != ea {
					return false
				}
			case eb: // dropped
				if _, ok := mg[cl]; ok {
					return false
				}
			default: // survives inexact
				if g, ok := mg[cl]; !ok || g {
					return false
				}
			}
		}
		for cl := range mg {
			if _, inA := ma[cl]; !inA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
