package imprints

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func mkCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	col := make([]int64, n)
	v := int64(1 << 20)
	for i := range col {
		v += int64(rng.IntN(201)) - 100
		col[i] = v
	}
	return col
}

func TestFacadeBuildAndQuery(t *testing.T) {
	col := mkCol(10000, 1)
	ix := Build(col, Options{Seed: 3})
	ids, st := ix.RangeIDs(1<<20, 1<<20+3000, nil)
	want, _ := ScanRange(col, 1<<20, 1<<20+3000, nil)
	if len(ids) != len(want) {
		t.Fatalf("facade query: %d ids, scan %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("id %d differs", i)
		}
	}
	if st.Probes == 0 {
		t.Error("no probes recorded")
	}
}

func TestFacadeComparators(t *testing.T) {
	col := mkCol(8000, 2)
	low, high := int64(1<<20), int64(1<<20+2000)
	want, _ := ScanRange(col, low, high, nil)

	zm := BuildZonemap(col)
	zIDs, _ := zm.RangeIDs(low, high, nil)
	if len(zIDs) != len(want) {
		t.Errorf("zonemap disagrees: %d vs %d", len(zIDs), len(want))
	}

	wb := BuildWAH(col, Options{Seed: 3})
	wIDs, _ := wb.RangeIDs(low, high, nil)
	if len(wIDs) != len(want) {
		t.Errorf("wah disagrees: %d vs %d", len(wIDs), len(want))
	}

	ix := Build(col, Options{Seed: 3})
	shared := BuildWAHShared(col, ix)
	if shared.Histogram() != ix.Histogram() {
		t.Error("BuildWAHShared did not share the histogram")
	}
}

func TestFacadeTwoLevel(t *testing.T) {
	col := mkCol(20000, 3)
	want, _ := ScanRange(col, 1<<20, 1<<20+500, nil)
	tl := NewTwoLevel(Build(col, Options{Seed: 1}), 16)
	got, _ := tl.RangeIDs(1<<20, 1<<20+500, nil)
	if len(got) != len(want) {
		t.Fatalf("two-level facade: %d ids, scan %d", len(got), len(want))
	}
}

func TestFacadeSerialization(t *testing.T) {
	col := mkCol(5000, 4)
	ix := Build(col, Options{Seed: 9})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex[int64](&buf, col)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.RangeIDs(1<<20, 1<<21, nil)
	b, _ := got.RangeIDs(1<<20, 1<<21, nil)
	if len(a) != len(b) {
		t.Fatal("deserialized facade index differs")
	}
}

func TestFacadeConjunction(t *testing.T) {
	n := 4000
	rng := rand.New(rand.NewPCG(5, 5))
	a := make([]int64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(rng.IntN(1000))
		b[i] = rng.Float64() * 100
	}
	ixA := Build(a, Options{Seed: 1})
	ixB := Build(b, Options{Seed: 2})
	ids, _ := EvaluateAnd(nil,
		NewRangeConjunct(ixA, 100, 500),
		NewRangeConjunct(ixB, 25.0, 75.0),
	)
	var want int
	for i := 0; i < n; i++ {
		if a[i] >= 100 && a[i] < 500 && b[i] >= 25 && b[i] < 75 {
			want++
		}
	}
	if len(ids) != want {
		t.Errorf("conjunction returned %d ids, want %d", len(ids), want)
	}
}

func TestFacadeStrings(t *testing.T) {
	vals := []string{"delta", "alpha", "charlie", "bravo", "alpha", "echo"}
	dict := EncodeStrings("s", vals)
	codes := dict.Codes().Values()
	ix := Build(codes, Options{Seed: 1})
	lo, hi, ok := dict.CodeRange("alpha", "charlie")
	if !ok {
		t.Fatal("CodeRange failed")
	}
	ids, _ := ix.RangeIDs(lo, hi, nil)
	// alpha(1,4), bravo(3), charlie(2): rows 1,2,3,4.
	if len(ids) != 4 {
		t.Errorf("string range returned %d ids: %v", len(ids), ids)
	}
}

func TestFacadeEntropyAndFingerprint(t *testing.T) {
	col := mkCol(5000, 7)
	ix := Build(col, Options{Seed: 1})
	if e := ix.Entropy(); e < 0 || e > 1 {
		t.Errorf("entropy %v", e)
	}
	if fp := ix.Fingerprint(5); fp == "" {
		t.Error("empty fingerprint")
	}
}

func TestFacadeRunAlgebra(t *testing.T) {
	a := []CandidateRun{{Start: 0, Count: 10, Exact: true}}
	b := []CandidateRun{{Start: 5, Count: 10, Exact: false}}
	// b is inexact, so the overlap must be re-checked.
	if got := IntersectRuns(a, b); len(got) != 1 || got[0].Start != 5 || got[0].Exact || TotalRunCachelines(got) != 5 {
		t.Errorf("IntersectRuns = %+v", got)
	}
}

func TestFacadeInSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 62))
	col := make([]int64, 4000)
	for i := range col {
		col[i] = int64(rng.IntN(100))
	}
	ix := Build(col, Options{Seed: 3})

	got, _ := ix.InSetIDs([]int64{5, 42, 77}, nil)
	var want int
	for _, v := range col {
		if v == 5 || v == 42 || v == 77 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("InSetIDs = %d, want %d", len(got), want)
	}
}

func TestFacadeEstimateAndSaturation(t *testing.T) {
	col := mkCol(10000, 63)
	ix := Build(col, Options{Seed: 4})
	lo := col[0] - 1000
	hi := col[0] + 1000
	est := ix.EstimateSelectivity(lo, hi)
	if est < 0 || est > 1 {
		t.Errorf("EstimateSelectivity = %v", est)
	}
	if s := ix.Saturation(); s <= 0 || s >= 1 {
		t.Errorf("Saturation = %v", s)
	}
	if ix.NeedsRebuild(0.99, 0, 0.99) {
		t.Error("fresh index wants a rebuild")
	}
}
