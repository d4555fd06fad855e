package zonemap

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/coltype"
	"repro/internal/core"
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

func TestAppend(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	full := make([]int64, 4003)
	for i := range full {
		full[i] = int64(rng.IntN(10000))
	}
	for _, cut := range []int{1, 7, 8, 100, 4000} {
		ix := Build(full[:cut], Options{})
		ix.Append(full)
		bulk := Build(full, Options{})
		if ix.Zones() != bulk.Zones() {
			t.Fatalf("cut %d: zones %d vs %d", cut, ix.Zones(), bulk.Zones())
		}
		got, _ := ix.RangeIDs(2000, 7000, nil)
		want, _ := bulk.RangeIDs(2000, 7000, nil)
		equalIDs(t, got, want, "append")
	}
}

func TestAppendShorterPanics(t *testing.T) {
	ix := Build(make([]int64, 100), Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Append(make([]int64, 50))
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
// zone holding one must never be emitted without value checks, however
// the NaN got there: built, appended, or written by an update.
func TestNaNZonesAreNeverExact(t *testing.T) {
	nan := math.NaN()
	col := []float64{1, nan, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	want := []uint32{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	check := func(ix *Index[float64], ctx string) {
		t.Helper()
		got, _ := ix.RangeIDs(0, 100, nil)
		equalIDs(t, got, want, ctx+" RangeIDs")
		if n, _ := ix.CountRange(0, 100); n != uint64(len(want)) {
			t.Errorf("%s: CountRange = %d, want %d", ctx, n, len(want))
		}
		for name, runs := range map[string][]core.CandidateRun{
			"RangeCachelines":    first(ix.RangeCachelines(0, 100)),
			"AtLeastCachelines":  first(ix.AtLeastCachelines(0)),
			"LessThanCachelines": first(ix.LessThanCachelines(100)),
		} {
			if len(runs) == 0 || runs[0].Start != 0 || runs[0].Exact {
				t.Errorf("%s: %s = %+v, want zone 0 inexact", ctx, name, runs)
			}
		}
	}
	check(Build(col, Options{}), "build")

	app := Build(col[:1], Options{})
	app.Append(col)
	check(app, "append")

	clean := append([]float64(nil), col...)
	clean[1] = 1.5
	upd := Build(clean, Options{})
	clean[1] = nan
	upd.Widen(1, nan)
	check(upd, "widen")

	// A zone of NaNs only has NaN bounds; an update into it must still
	// be found by every probe.
	nans := []float64{nan, nan, nan, nan, nan, nan, nan, nan}
	ix := Build(nans, Options{})
	nans[3] = 5
	ix.Widen(3, 5)
	if runs, _ := ix.InSetCachelines([]float64{5}); len(runs) != 1 || runs[0].Exact {
		t.Errorf("InSetCachelines after widening a NaN zone = %+v", runs)
	}
	if runs, _ := ix.PointCachelines(5); len(runs) != 1 || runs[0].Exact {
		t.Errorf("PointCachelines after widening a NaN zone = %+v", runs)
	}
	if ix.SizeBytes() != 2*8+8 {
		t.Errorf("SizeBytes = %d, want the bounds plus one bitmap word", ix.SizeBytes())
	}
}

func first[A, B any](a A, _ B) A { return a }
