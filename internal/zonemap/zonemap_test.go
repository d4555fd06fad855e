package zonemap

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/coltype"
)

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

func TestBuildGeometry(t *testing.T) {
	col := make([]int64, 1000)
	ix := Build(col, Options{})
	if ix.ValuesPerZone() != 8 {
		t.Errorf("ValuesPerZone = %d", ix.ValuesPerZone())
	}
	if ix.Zones() != 125 {
		t.Errorf("Zones = %d", ix.Zones())
	}
	if ix.SizeBytes() != 125*2*8 {
		t.Errorf("SizeBytes = %d", ix.SizeBytes())
	}
}

func TestBuildPartialZone(t *testing.T) {
	col := make([]int64, 1003)
	for i := range col {
		col[i] = int64(i)
	}
	ix := Build(col, Options{})
	if ix.Zones() != 126 {
		t.Errorf("Zones = %d, want 126", ix.Zones())
	}
	got, _ := ix.RangeIDs(1000, 1003, nil)
	equalIDs(t, got, []uint32{1000, 1001, 1002}, "partial tail")
}

func TestEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]int64{}, Options{})
}

func TestRangeAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	cols := map[string][]int64{}
	sorted := make([]int64, 5000)
	random := make([]int64, 5000)
	for i := range sorted {
		sorted[i] = int64(i * 2)
		random[i] = int64(rng.IntN(100000))
	}
	cols["sorted"] = sorted
	cols["random"] = random
	for name, col := range cols {
		ix := Build(col, Options{})
		for q := 0; q < 50; q++ {
			low := int64(rng.IntN(100000))
			high := low + int64(rng.IntN(20000))
			got, _ := ix.RangeIDs(low, high, nil)
			equalIDs(t, got, scanIDs(col, low, high), name)
		}
	}
}

func TestFullInclusionFastPath(t *testing.T) {
	col := make([]int64, 8000)
	for i := range col {
		col[i] = int64(i)
	}
	ix := Build(col, Options{})
	ids, st := ix.RangeIDs(0, 8000, nil)
	if len(ids) != 8000 {
		t.Fatalf("full range returned %d ids", len(ids))
	}
	if st.ZonesExact != uint64(ix.Zones()) {
		t.Errorf("ZonesExact = %d, want %d", st.ZonesExact, ix.Zones())
	}
	if st.Comparisons != 0 {
		t.Errorf("Comparisons = %d, want 0", st.Comparisons)
	}
}

func TestZonemapUselessOnSkewedData(t *testing.T) {
	// Section 2.2: min+max in every cacheline defeats zonemaps — no zone
	// can ever be skipped for an interior range.
	rng := rand.New(rand.NewPCG(2, 2))
	col := make([]int64, 8000)
	for i := range col {
		switch i % 8 {
		case 0:
			col[i] = 0
		case 1:
			col[i] = 1 << 40
		default:
			col[i] = int64(rng.IntN(1 << 40))
		}
	}
	ix := Build(col, Options{})
	_, st := ix.RangeIDs(1<<39, 1<<39+1<<34, nil)
	if st.ZonesSkipped != 0 {
		t.Errorf("zonemap skipped %d zones on min/max-skewed data", st.ZonesSkipped)
	}
	if st.Comparisons != uint64(len(col)) {
		t.Errorf("Comparisons = %d, want %d (full check)", st.Comparisons, len(col))
	}
}

func TestCountRangeMatchesRangeIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	col := make([]float64, 6000)
	for i := range col {
		col[i] = rng.Float64() * 1000
	}
	ix := Build(col, Options{})
	for q := 0; q < 30; q++ {
		low := rng.Float64() * 900
		high := low + rng.Float64()*100
		ids, _ := ix.RangeIDs(low, high, nil)
		cnt, _ := ix.CountRange(low, high)
		if uint64(len(ids)) != cnt {
			t.Fatalf("CountRange = %d, len(RangeIDs) = %d", cnt, len(ids))
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	col := make([]int32, 16000)
	for i := range col {
		col[i] = int32(rng.IntN(1 << 20))
	}
	ix := Build(col, Options{})
	_, st := ix.RangeIDs(0, 1<<19, nil)
	if st.Probes != uint64(ix.Zones()) {
		t.Errorf("Probes = %d, want %d", st.Probes, ix.Zones())
	}
	if st.ZonesExact+st.ZonesScanned+st.ZonesSkipped != uint64(ix.Zones()) {
		t.Error("zone accounting does not sum")
	}
}

func TestCustomZoneSize(t *testing.T) {
	col := make([]int64, 1024)
	for i := range col {
		col[i] = int64(i)
	}
	ix := Build(col, Options{ValuesPerZone: 128})
	if ix.Zones() != 8 {
		t.Errorf("Zones = %d, want 8", ix.Zones())
	}
	got, _ := ix.RangeIDs(100, 200, nil)
	equalIDs(t, got, scanIDs(col, 100, 200), "custom zone")
}

// Property: zonemap results equal the scan oracle.
func TestQuickRangeEqualsScan(t *testing.T) {
	f := func(seed uint64, a, b int32) bool {
		rng := rand.New(rand.NewPCG(seed, 0x2222))
		n := 1 + rng.IntN(3000)
		col := make([]int32, n)
		for i := range col {
			col[i] = int32(rng.IntN(10000) - 5000)
		}
		ix := Build(col, Options{})
		if a > b {
			a, b = b, a
		}
		got, _ := ix.RangeIDs(a, b, nil)
		want := scanIDs(col, a, b)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// A NaN satisfies no predicate but is skipped by the zone bounds, so a
// zone holding one must never be emitted without value checks.
func TestNaNZonesAreNeverExact(t *testing.T) {
	nan := math.NaN()
	col := []float64{1, nan, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	want := []uint32{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	ix := Build(col, Options{})
	got, _ := ix.RangeIDs(0, 100, nil)
	equalIDs(t, got, want, "RangeIDs")
	if n, _ := ix.CountRange(0, 100); n != uint64(len(want)) {
		t.Errorf("CountRange = %d, want %d", n, len(want))
	}
	if nans := Build([]float64{nan, nan}, Options{}); nans.SizeBytes() != 2*8+8 {
		t.Errorf("SizeBytes = %d, want the bounds plus one bitmap word", nans.SizeBytes())
	}
}

// A zone of NaNs only has NaN bounds, and no range overlaps it: both
// probes skip it without a value check, beside zones they must scan.
func TestAllNaNZonesAreSkipped(t *testing.T) {
	col := make([]float64, 4096)
	for i := range col {
		col[i] = math.NaN()
	}
	ix := Build(col, Options{})
	ids, st := ix.RangeIDs(0, 10, nil)
	if len(ids) != 0 || st.Comparisons != 0 || st.ZonesSkipped != 512 {
		t.Errorf("RangeIDs over NaNs: %d ids, %+v; want 0 ids, 0 comparisons, 512 zones skipped", len(ids), st)
	}
	n, st := ix.CountRange(0, 10)
	if n != 0 || st.Comparisons != 0 || st.ZonesSkipped != 512 {
		t.Errorf("CountRange over NaNs: %d, %+v; want 0, 0 comparisons, 512 zones skipped", n, st)
	}

	// One zone of real values among the NaN zones is still scanned.
	for i := 8; i < 16; i++ {
		col[i] = float64(i)
	}
	ix = Build(col, Options{})
	ids, st = ix.RangeIDs(0, 10, nil)
	equalIDs(t, ids, []uint32{8, 9}, "RangeIDs mixed")
	if st.Comparisons != 8 || st.ZonesScanned != 1 || st.ZonesSkipped != 511 {
		t.Errorf("RangeIDs mixed: %+v; want 8 comparisons, 1 zone scanned, 511 skipped", st)
	}
	if n, st := ix.CountRange(0, 10); n != 2 || st.Comparisons != 8 {
		t.Errorf("CountRange mixed = %d, %+v; want 2 over 8 comparisons", n, st)
	}
}
