package histogram

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/coltype"
)

func TestLowCardinalityExactMapping(t *testing.T) {
	// 7 unique values -> 8 bins, value unique[i] maps to bin i+1.
	col := []int32{10, 20, 30, 40, 50, 60, 70, 10, 20, 30}
	h := Build(col, Options{})
	if h.Bins != 8 {
		t.Fatalf("Bins = %d, want 8", h.Bins)
	}
	if h.SampledUnique != 7 {
		t.Fatalf("SampledUnique = %d, want 7", h.SampledUnique)
	}
	for i, v := range []int32{10, 20, 30, 40, 50, 60, 70} {
		if got := h.Bin(v); got != i+1 {
			t.Errorf("Bin(%d) = %d, want %d", v, got, i+1)
		}
	}
	// Below the smallest sampled value: overflow bin 0.
	if got := h.Bin(5); got != 0 {
		t.Errorf("Bin(5) = %d, want 0", got)
	}
	// Above the largest sampled value: last populated bin (7).
	if got := h.Bin(100); got != 7 {
		t.Errorf("Bin(100) = %d, want 7", got)
	}
	// Between two sampled values: the bin of the upper border.
	if got := h.Bin(25); got != 2 {
		t.Errorf("Bin(25) = %d, want 2", got)
	}
}

func TestBinsRounding(t *testing.T) {
	mk := func(nUnique int) *Histogram[int32] {
		col := make([]int32, nUnique)
		for i := range col {
			col[i] = int32(i * 3)
		}
		return Build(col, Options{})
	}
	cases := []struct{ unique, wantBins int }{
		{1, 8}, {7, 8}, {8, 16}, {15, 16}, {16, 32}, {31, 32}, {32, 64},
		{63, 64}, {64, 64}, {100, 64},
	}
	for _, c := range cases {
		if got := mk(c.unique).Bins; got != c.wantBins {
			t.Errorf("unique=%d: Bins = %d, want %d", c.unique, got, c.wantBins)
		}
	}
}

func TestPaperBorderExample(t *testing.T) {
	// "if b[3] = 10 and b[4] = 13, all values that are equal or greater
	// than 10 but less than 13 fall into the 4th bin ... while value 13
	// falls into the 5th bin."
	var h Histogram[int64]
	h.Bins = 8
	borders := []int64{1, 4, 7, 10, 13, 16, 19}
	copy(h.Borders[:], borders)
	for i := len(borders); i < MaxBins; i++ {
		h.Borders[i] = coltype.MaxOf[int64]()
	}
	if got := h.Bin(10); got != 4 {
		t.Errorf("Bin(10) = %d, want 4", got)
	}
	if got := h.Bin(12); got != 4 {
		t.Errorf("Bin(12) = %d, want 4", got)
	}
	if got := h.Bin(13); got != 5 {
		t.Errorf("Bin(13) = %d, want 5", got)
	}
}

func TestHighCardinality64Bins(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	col := make([]float64, 10000)
	for i := range col {
		col[i] = rng.Float64() * 1000
	}
	h := Build(col, Options{Seed: 3})
	if h.Bins != 64 {
		t.Fatalf("Bins = %d, want 64", h.Bins)
	}
	// First border is the sample minimum; values below it map to bin 0.
	below := h.Borders[0] - 1
	if got := h.Bin(below); got != 0 {
		t.Errorf("Bin(min-1) = %d, want 0", got)
	}
	// Values above the largest border map to the last bin.
	if got := h.Bin(1e18); got != 63 {
		t.Errorf("Bin(huge) = %d, want 63", got)
	}
	// Borders must be non-decreasing.
	for i := 1; i < MaxBins; i++ {
		if h.Borders[i] < h.Borders[i-1] {
			t.Fatalf("borders not sorted at %d: %v < %v", i, h.Borders[i], h.Borders[i-1])
		}
	}
}

func TestEquiHeightRoughlyBalanced(t *testing.T) {
	// On uniform data every bin of a 64-bin histogram should receive a
	// comparable share of the column. Allow generous tolerance: the
	// histogram is approximate by design.
	rng := rand.New(rand.NewPCG(7, 7))
	col := make([]int64, 100000)
	for i := range col {
		col[i] = rng.Int64N(1 << 40)
	}
	h := Build(col, Options{Seed: 1})
	counts := make([]int, h.Bins)
	for _, v := range col {
		counts[h.Bin(v)]++
	}
	// Interior bins (1..62) should each hold between 0.2x and 5x the
	// fair share.
	fair := float64(len(col)) / 62.0
	for i := 1; i < 63; i++ {
		if float64(counts[i]) < 0.2*fair || float64(counts[i]) > 5*fair {
			t.Errorf("bin %d count %d far from fair share %.0f", i, counts[i], fair)
		}
	}
}

func TestMaxValueClamped(t *testing.T) {
	col := []uint8{0, 255, 3, 17}
	h := Build(col, Options{})
	got := h.Bin(255)
	if got < 0 || got >= h.Bins {
		t.Fatalf("Bin(MaxUint8) = %d out of range [0,%d)", got, h.Bins)
	}
	// And the reference implementation agrees.
	if want := h.binLinear(255); got != want {
		t.Fatalf("Bin(255) = %d, binLinear = %d", got, want)
	}
}

func TestNaNMapsToBinZero(t *testing.T) {
	col := []float64{1, 2, 3, 4}
	h := Build(col, Options{})
	if got := h.Bin(math.NaN()); got != 0 {
		t.Errorf("Bin(NaN) = %d, want 0", got)
	}
}

func TestBinMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(5000)
		card := 1 + rng.IntN(200)
		col := make([]int32, n)
		for i := range col {
			col[i] = int32(rng.IntN(card) * 7)
		}
		h := Build(col, Options{Seed: uint64(trial)})
		for i := 0; i < 500; i++ {
			v := int32(rng.IntN(card*7+20) - 10)
			if got, want := h.Bin(v), h.binLinear(v); got != want {
				t.Fatalf("trial %d: Bin(%d) = %d, want %d (bins=%d)", trial, v, got, want, h.Bins)
			}
		}
	}
}

// Property: Bin is monotonic non-decreasing in its argument.
func TestQuickBinMonotonic(t *testing.T) {
	f := func(seed uint64, a, b int64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		col := make([]int64, 512)
		for i := range col {
			col[i] = rng.Int64N(1 << 30)
		}
		h := Build(col, Options{Seed: seed})
		if a > b {
			a, b = b, a
		}
		return h.Bin(a) <= h.Bin(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: every value of the construction column maps to a valid bin
// and the value lies inside the bounds reported by BinBounds.
func TestQuickBinWithinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		col := make([]float32, 1+rng.IntN(3000))
		for i := range col {
			col[i] = rng.Float32() * 100
		}
		h := Build(col, Options{Seed: seed})
		for _, v := range col {
			b := h.Bin(v)
			if b < 0 || b >= h.Bins {
				return false
			}
			lo, hi, loU, hiU := h.BinBounds(b)
			if !loU && v < lo {
				return false
			}
			if !hiU && v >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	col := make([]int64, 50000)
	for i := range col {
		col[i] = rng.Int64N(1 << 50)
	}
	h1 := Build(col, Options{Seed: 99})
	h2 := Build(col, Options{Seed: 99})
	if !h1.Equal(h2) {
		t.Error("same seed produced different histograms")
	}
}

func TestCountDuplicatesBorderStructure(t *testing.T) {
	// Column where value 1000 is extremely frequent among otherwise
	// uniform values. With CountDuplicates the equal-mass division walks
	// the sorted sample *with* duplicates, so several consecutive borders
	// land on the hot value (empty bins hugging it); the Algorithm 2
	// variant dedups first, so its borders stay strictly increasing.
	rng := rand.New(rand.NewPCG(5, 5))
	col := make([]int64, 60000)
	for i := range col {
		if i%2 == 0 {
			col[i] = 1000
		} else {
			col[i] = rng.Int64N(100000)
		}
	}
	hDup := Build(col, Options{Seed: 1, CountDuplicates: true})
	hDed := Build(col, Options{Seed: 1})
	if hDup.Bins != 64 || hDed.Bins != 64 {
		t.Fatalf("expected 64 bins, got %d / %d", hDup.Bins, hDed.Bins)
	}
	hot := 0
	for i := 0; i < hDup.Bins-1; i++ {
		if hDup.Borders[i] == 1000 {
			hot++
		}
	}
	if hot < 2 {
		t.Errorf("CountDuplicates: want >=2 borders equal to the hot value, got %d", hot)
	}
	for i := 1; i < hDed.Bins-1; i++ {
		if hDed.Borders[i] <= hDed.Borders[i-1] {
			t.Errorf("dedup variant borders not strictly increasing at %d", i)
		}
	}
	// Both variants must still map every value to a valid bin.
	for _, h := range []*Histogram[int64]{hDup, hDed} {
		for _, v := range col[:1000] {
			if b := h.Bin(v); b < 0 || b >= h.Bins {
				t.Fatalf("Bin(%d) = %d out of range", v, b)
			}
		}
	}
}

func TestVectorBytes(t *testing.T) {
	cases := []struct{ unique, want int }{{3, 1}, {10, 2}, {20, 4}, {40, 8}, {200, 8}}
	for _, c := range cases {
		col := make([]int32, 4000)
		for i := range col {
			col[i] = int32(i % c.unique)
		}
		h := Build(col, Options{})
		if got := h.VectorBytes(); got != c.want {
			t.Errorf("unique=%d: VectorBytes = %d, want %d", c.unique, got, c.want)
		}
	}
}

func TestBinBoundsPanicsOutOfRange(t *testing.T) {
	h := Build([]int32{1, 2, 3}, Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.BinBounds(h.Bins)
}

func TestEmptyColumnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]int32{}, Options{})
}

func TestSampleSmallerThanColumnStillCoversRange(t *testing.T) {
	// Large column, small sample: the overflow bins must absorb
	// out-of-sample extremes without panicking.
	rng := rand.New(rand.NewPCG(21, 4))
	col := make([]int32, 300000)
	for i := range col {
		col[i] = int32(rng.IntN(1 << 28))
	}
	h := Build(col, Options{SampleSize: 128, Seed: 6})
	sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
	if got := h.Bin(col[0] - 1); got != 0 {
		t.Errorf("Bin(belowMin) = %d, want 0", got)
	}
	if got := h.Bin(col[len(col)-1] + 1); got != h.Bins-1 {
		t.Errorf("Bin(aboveMax) = %d, want %d", got, h.Bins-1)
	}
}

// TestNaNSampleKeepsBordersSorted: NaNs in the sample are left out of
// the borders (sorted in, they scramble them) and a sampled +Inf pads
// the top, so the borders ascend at low and high cardinality.
func TestNaNSampleKeepsBordersSorted(t *testing.T) {
	for _, card := range []int{0, 20, 500} {
		col := make([]float64, 0, 2*card+8)
		for i := 0; i < card; i++ {
			col = append(col, float64(i), math.NaN())
		}
		col = append(col, math.NaN(), math.Inf(-1), math.MaxFloat64, math.Inf(1), math.NaN())
		h := Build(col, Options{})
		for i := 1; i < MaxBins; i++ {
			if b := h.Borders; !(b[i-1] <= b[i]) {
				t.Fatalf("card=%d: borders not ascending at %d: %v", card, i, b)
			}
		}
		if got := h.Bin(math.NaN()); got != 0 {
			t.Errorf("card=%d: Bin(NaN) = %d, want 0", card, got)
		}
	}
}
