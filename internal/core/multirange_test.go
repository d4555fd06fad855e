package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMultiRangeIDs(t *testing.T) {
	col := randomCol(6000, 100000, 51)
	ix := Build(col, Options{Seed: 51})
	ranges := [][2]int64{{1000, 5000}, {40000, 45000}, {90000, 95000}}
	got, st := ix.MultiRangeIDs(ranges, nil)
	var want []uint32
	for i, v := range col {
		for _, r := range ranges {
			if v >= r[0] && v < r[1] {
				want = append(want, uint32(i))
				break
			}
		}
	}
	equalIDs(t, got, want, "multi-range")
	if st.Probes == 0 {
		t.Error("no probes recorded")
	}
}

func TestMultiRangeOverlappingAndEmpty(t *testing.T) {
	col := randomCol(3000, 1000, 52)
	ix := Build(col, Options{Seed: 52})
	// Overlapping ranges must not duplicate ids.
	got, _ := ix.MultiRangeIDs([][2]int64{{100, 500}, {300, 700}}, nil)
	want := scanIDs(col, 100, 700)
	equalIDs(t, got, want, "overlapping")
	// No ranges -> no results.
	if got, _ := ix.MultiRangeIDs(nil, nil); len(got) != 0 {
		t.Error("empty range list returned ids")
	}
}

func TestMultiRangeSinglePassProbes(t *testing.T) {
	// The whole point: K ranges cost the same probes as one.
	col := clusteredCol(20000, 53)
	ix := Build(col, Options{Seed: 53})
	_, st1 := ix.RangeIDs(100000, 200000, nil)
	_, stK := ix.MultiRangeIDs([][2]int64{
		{100000, 200000}, {400000, 450000}, {700000, 800000},
	}, nil)
	if stK.Probes != st1.Probes {
		t.Errorf("multi-range probes %d != single-range probes %d", stK.Probes, st1.Probes)
	}
}

func TestInSetIDs(t *testing.T) {
	col := randomCol(8000, 50, 54) // low cardinality: IN-lists shine
	ix := Build(col, Options{Seed: 54})
	set := []int64{3, 17, 42, 17} // duplicate member on purpose
	got, _ := ix.InSetIDs(set, nil)
	var want []uint32
	for i, v := range col {
		if v == 3 || v == 17 || v == 42 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, got, want, "in-set")
	// Empty set.
	if got, _ := ix.InSetIDs(nil, nil); len(got) != 0 {
		t.Error("empty set returned ids")
	}
	// All-absent set: every cacheline whose bins miss is skipped.
	got, st := ix.InSetIDs([]int64{999999}, nil)
	if len(got) != 0 {
		t.Errorf("absent member matched %d rows", len(got))
	}
	if st.CachelinesSkipped == 0 {
		t.Error("absent member skipped nothing")
	}
}

// A NaN member matches nothing, and must not hide the others: a
// comparison sort mis-orders a set holding NaN, and a binary search
// over it then misses members.
func TestInSetIDsNaNMember(t *testing.T) {
	col := make([]float64, 4096)
	for i := range col {
		col[i] = float64(i % 10)
	}
	ix := Build(col, Options{Seed: 1})
	want, _ := ix.InSetIDs([]float64{3, 1}, nil)
	if len(want) != 820 {
		t.Fatalf("{3, 1} matched %d rows, want 820", len(want))
	}
	for _, set := range [][]float64{{3, math.NaN(), 1}, {math.NaN(), 3, 1}, {1, 3, math.NaN()}, {math.NaN(), 1, math.NaN(), 3}} {
		got, _ := ix.InSetIDs(set, nil)
		equalIDs(t, got, want, fmt.Sprint(set))
	}
	if got, _ := ix.InSetIDs([]float64{math.NaN()}, nil); len(got) != 0 {
		t.Errorf("{NaN} matched %d rows", len(got))
	}
	nanCol := append([]float64{math.NaN()}, col...)
	nix := Build(nanCol, Options{Seed: 1})
	if got, _ := nix.InSetIDs([]float64{math.NaN(), 3}, nil); len(got) != 410 {
		t.Errorf("{NaN, 3} over a column holding NaN matched %d rows, want 410", len(got))
	}
}

func TestInSetCachelinesConsistent(t *testing.T) {
	col := randomCol(5000, 30, 55)
	ix := Build(col, Options{Seed: 55})
	set := []int64{5, 12, 25}
	runs, _ := ix.InSetCachelines(set)
	member := map[int64]bool{5: true, 12: true, 25: true}
	check := func(id uint32) bool { return member[col[id]] }
	ids, _ := MaterializeRuns(runs, ix.ValuesPerCacheline(), ix.Len(), nil, check)
	want, _ := ix.InSetIDs(set, nil)
	equalIDs(t, ids, want, "in-set runs")
}

// Property: MultiRangeIDs equals unioning per-range scans.
func TestQuickMultiRangeEqualsUnion(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x517))
		n := 100 + rng.IntN(3000)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.IntN(10000))
		}
		ix := Build(col, Options{Seed: seed})
		k := 1 + rng.IntN(4)
		ranges := make([][2]int64, k)
		inAny := func(v int64) bool {
			for _, r := range ranges {
				if v >= r[0] && v < r[1] {
					return true
				}
			}
			return false
		}
		for i := range ranges {
			lo := int64(rng.IntN(10000))
			ranges[i] = [2]int64{lo, lo + int64(rng.IntN(2000))}
		}
		got, _ := ix.MultiRangeIDs(ranges, nil)
		var want []uint32
		for i, v := range col {
			if inAny(v) {
				want = append(want, uint32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: InSetIDs equals the naive membership scan.
func TestQuickInSetEqualsScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x5e7))
		n := 100 + rng.IntN(3000)
		card := 1 + rng.IntN(100)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.IntN(card))
		}
		ix := Build(col, Options{Seed: seed})
		set := make([]int64, 1+rng.IntN(8))
		member := map[int64]bool{}
		for i := range set {
			set[i] = int64(rng.IntN(card + 10))
			member[set[i]] = true
		}
		got, _ := ix.InSetIDs(set, nil)
		var want []uint32
		for i, v := range col {
			if member[v] {
				want = append(want, uint32(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
