package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	cols := map[string][]int64{
		"sorted":    sortedCol(5000),
		"random":    randomCol(5000, 1000000, 81),
		"clustered": clusteredCol(5000, 82),
		"skewed":    skewedCol(5000, 83),
		"constant":  constantCol(5000),
		"tiny":      randomCol(3, 100, 84),
		"partial":   randomCol(5003, 100000, 85),
	}
	for name, col := range cols {
		ix := Build(col, Options{Seed: 9})
		wantMin, wantMax := col[0], col[0]
		for _, v := range col {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		gotMin, _ := ix.Min()
		gotMax, _ := ix.Max()
		if gotMin != wantMin {
			t.Errorf("%s: Min = %d, want %d", name, gotMin, wantMin)
		}
		if gotMax != wantMax {
			t.Errorf("%s: Max = %d, want %d", name, gotMax, wantMax)
		}
	}
}

func TestMinMaxSkipsCachelines(t *testing.T) {
	// Clustered data: the extreme bin occupies few cachelines, so the
	// aggregate reads a fraction of the column.
	col := sortedCol(100000)
	ix := Build(col, Options{Seed: 9})
	_, st := ix.Min()
	if st.CachelinesSkipped == 0 {
		t.Error("Min skipped nothing on sorted data")
	}
	if st.Comparisons >= uint64(len(col))/2 {
		t.Errorf("Min compared %d values of %d", st.Comparisons, len(col))
	}
}

func TestMinMaxFloats(t *testing.T) {
	col := uniformFloats(8000, 86)
	ix := Build(col, Options{Seed: 3})
	wantMin, wantMax := col[0], col[0]
	for _, v := range col {
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if got, _ := ix.Min(); got != wantMin {
		t.Errorf("Min = %v, want %v", got, wantMin)
	}
	if got, _ := ix.Max(); got != wantMax {
		t.Errorf("Max = %v, want %v", got, wantMax)
	}
}

// NaN bins with the lowest values, so a Min or Max that reads bin 0's
// cachelines meets it; it must not stick as the answer.
func TestMinMaxSkipNaN(t *testing.T) {
	col := make([]float64, 1000)
	for i := range col {
		col[i] = float64(i%97) - 40
	}
	col[0], col[500], col[999] = math.NaN(), math.NaN(), math.NaN()
	ix := Build(col, Options{Seed: 4})
	if got, _ := ix.Min(); got != -40 {
		t.Errorf("Min = %v, want -40", got)
	}
	if got, _ := ix.Max(); got != 56 {
		t.Errorf("Max = %v, want 56", got)
	}
	nan := Build([]float64{math.NaN(), math.NaN(), math.NaN()}, Options{Seed: 4})
	if got, _ := nan.Min(); !math.IsNaN(got) {
		t.Errorf("Min of NaNs = %v", got)
	}
	if got, _ := nan.Max(); !math.IsNaN(got) {
		t.Errorf("Max of NaNs = %v", got)
	}
}

// TestMinMaxSignedZero: −0 orders below +0 whichever of the two the
// walk reads first, so Min is −0 and Max +0 for a column of zeros and
// positives, in either order of the zeros.
func TestMinMaxSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, first := range []float64{negZero, 0} {
		col := make([]float64, 1000)
		for i := range col {
			col[i] = float64(i%50) + 1
		}
		col[100], col[900] = first, -first
		ix := Build(col, Options{Seed: 4})
		if got, _ := ix.Min(); math.Float64bits(got) != math.Float64bits(negZero) {
			t.Errorf("zero at 100 %v: Min = %v, want -0", first, got)
		}
		col = make([]float64, 1000)
		for i := range col {
			col[i] = -float64(i%50) - 1
		}
		col[100], col[900] = first, -first
		ix = Build(col, Options{Seed: 4})
		if got, _ := ix.Max(); math.Float64bits(got) != 0 {
			t.Errorf("zero at 100 %v: Max = %v, want +0", first, got)
		}
	}
}

func TestQuickMinMax(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xa99))
		n := 1 + rng.IntN(3000)
		col := make([]int32, n)
		for i := range col {
			col[i] = int32(rng.IntN(100000) - 50000)
		}
		ix := Build(col, Options{Seed: seed})
		wantMin, wantMax := col[0], col[0]
		for _, v := range col {
			if v < wantMin {
				wantMin = v
			}
			if v > wantMax {
				wantMax = v
			}
		}
		gotMin, _ := ix.Min()
		gotMax, _ := ix.Max()
		return gotMin == wantMin && gotMax == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Deliberate stale-bit trap: the unique global minimum is updated away
// to a large value. Its old bin bit stays set (MarkUpdated only adds
// bits), so the lowest occupied bit points at a cacheline that no
// longer holds any low value — Min must detect the stale bin and walk
// on to the true minimum in a different cacheline.
func TestMinMaxStaleBitTrap(t *testing.T) {
	col := make([]int64, 4096)
	for i := range col {
		col[i] = 500000 + int64(i%1000)
	}
	col[17] = 3 // unique global min, cacheline 2
	ix := Build(col, Options{Seed: 5})
	// Replace the min in place; the imprint keeps the stale low bit.
	col[17] = 900000
	ix.MarkUpdated(17, 900000)
	wantMin := col[0]
	for _, v := range col {
		if v < wantMin {
			wantMin = v
		}
	}
	if got, _ := ix.Min(); got != wantMin {
		t.Fatalf("Min with stale bit = %d, want %d", got, wantMin)
	}
	// Symmetric trap for Max.
	col2 := make([]int64, 4096)
	for i := range col2 {
		col2[i] = 1000 + int64(i%1000)
	}
	col2[33] = 99_000_000
	ix2 := Build(col2, Options{Seed: 6})
	col2[33] = 5
	ix2.MarkUpdated(33, 5)
	wantMax := col2[0]
	for _, v := range col2 {
		if v > wantMax {
			wantMax = v
		}
	}
	if got, _ := ix2.Max(); got != wantMax {
		t.Fatalf("Max with stale bit = %d, want %d", got, wantMax)
	}
}

// After in-place update marking, Min/Max may widen their candidate set
// but must still be correct for the CURRENT column contents.
func TestMinMaxAfterUpdates(t *testing.T) {
	col := randomCol(4000, 1000, 87)
	ix := Build(col, Options{Seed: 4})
	rng := rand.New(rand.NewPCG(88, 88))
	for u := 0; u < 100; u++ {
		id := rng.IntN(len(col))
		nv := int64(rng.IntN(2000) - 500)
		col[id] = nv
		ix.MarkUpdated(id, nv)
	}
	wantMin, wantMax := col[0], col[0]
	for _, v := range col {
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if got, _ := ix.Min(); got != wantMin {
		t.Errorf("Min after updates = %d, want %d", got, wantMin)
	}
	if got, _ := ix.Max(); got != wantMax {
		t.Errorf("Max after updates = %d, want %d", got, wantMax)
	}
}
