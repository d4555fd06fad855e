package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRangeIDsAgainstScan(t *testing.T) {
	cases := map[string][]int64{
		"sorted":    sortedCol(3000),
		"random":    randomCol(3000, 100000, 1),
		"clustered": clusteredCol(3000, 2),
		"skewed":    skewedCol(3000, 3),
		"constant":  constantCol(3000),
		"partial":   randomCol(3001, 5000, 4),
		"tiny":      randomCol(3, 50, 5),
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for name, col := range cases {
		ix := Build(col, Options{Seed: 11})
		lo, hi := col[0], col[0]
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for q := 0; q < 50; q++ {
			span := hi - lo + 1
			low := lo + rng.Int64N(span)
			high := low + rng.Int64N(span-(low-lo))
			got, _ := ix.RangeIDs(low, high, nil)
			equalIDs(t, got, scanIDs(col, low, high), name)
		}
		// Degenerate ranges.
		if got, _ := ix.RangeIDs(5, 5, nil); len(got) != 0 {
			t.Errorf("%s: empty range returned %d ids", name, len(got))
		}
		// Full range.
		got, _ := ix.RangeIDs(lo, hi+1, nil)
		equalIDs(t, got, scanIDs(col, lo, hi+1), name+"/full")
	}
}

func TestRangeIDsFloats(t *testing.T) {
	col := uniformFloats(5000, 13)
	ix := Build(col, Options{Seed: 13})
	rng := rand.New(rand.NewPCG(1, 1))
	for q := 0; q < 50; q++ {
		low := rng.Float64() * 1e6
		high := low + rng.Float64()*(1e6-low)
		got, _ := ix.RangeIDs(low, high, nil)
		equalIDs(t, got, scanIDs(col, low, high), "floats")
	}
}

func TestRangeIDsUint8(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	col := make([]uint8, 7777)
	for i := range col {
		col[i] = uint8(rng.IntN(256))
	}
	ix := Build(col, Options{Seed: 5})
	if ix.ValuesPerCacheline() != 64 {
		t.Fatalf("vpc = %d, want 64", ix.ValuesPerCacheline())
	}
	for q := 0; q < 40; q++ {
		low := uint8(rng.IntN(250))
		high := low + uint8(rng.IntN(int(255-low))) + 1
		got, _ := ix.RangeIDs(low, high, nil)
		equalIDs(t, got, scanIDs(col, low, high), "uint8")
	}
}

func TestClosedRange(t *testing.T) {
	col := []int32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 20, 20}
	ix := Build(col, Options{Seed: 1})
	got, _ := ix.RangeIDsClosed(20, 40, nil)
	want := []uint32{1, 2, 3, 10, 11}
	equalIDs(t, got, want, "closed")
	// Closed differs from half-open at the upper border.
	gotHalf, _ := ix.RangeIDs(20, 40, nil)
	wantHalf := []uint32{1, 2, 10, 11}
	equalIDs(t, gotHalf, wantHalf, "half-open")
}

func TestAtLeastLessThan(t *testing.T) {
	col := randomCol(2000, 1000, 21)
	ix := Build(col, Options{Seed: 3})
	got, _ := ix.AtLeast(700, nil)
	var want []uint32
	for i, v := range col {
		if v >= 700 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, got, want, "atleast")

	got, _ = ix.LessThan(300, nil)
	want = nil
	for i, v := range col {
		if v < 300 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, got, want, "lessthan")
}

func TestPointQuery(t *testing.T) {
	col := randomCol(5000, 50, 31)
	ix := Build(col, Options{Seed: 31})
	for _, target := range []int64{0, 17, 49} {
		got, _ := ix.PointIDs(target, nil)
		var want []uint32
		for i, v := range col {
			if v == target {
				want = append(want, uint32(i))
			}
		}
		equalIDs(t, got, want, "point")
	}
	// Absent value.
	if got, _ := ix.PointIDs(999, nil); len(got) != 0 {
		t.Errorf("absent point query returned %d ids", len(got))
	}
}

func TestCountRangeMatchesRangeIDs(t *testing.T) {
	col := clusteredCol(6000, 17)
	ix := Build(col, Options{Seed: 17})
	rng := rand.New(rand.NewPCG(4, 4))
	for q := 0; q < 30; q++ {
		low := int64(rng.IntN(1000000))
		high := low + int64(rng.IntN(100000))
		ids, _ := ix.RangeIDs(low, high, nil)
		cnt, _ := ix.CountRange(low, high)
		if uint64(len(ids)) != cnt {
			t.Fatalf("CountRange = %d, RangeIDs len = %d", cnt, len(ids))
		}
	}
}

func TestResultBufferReuse(t *testing.T) {
	col := randomCol(1000, 100, 41)
	ix := Build(col, Options{Seed: 41})
	buf := make([]uint32, 0, 1024)
	got1, _ := ix.RangeIDs(0, 50, buf)
	want := scanIDs(col, 0, 50)
	equalIDs(t, got1, want, "reused buffer")
	// Reusing the same backing buffer again.
	got2, _ := ix.RangeIDs(0, 50, got1[:0])
	equalIDs(t, got2, want, "reused twice")
}

// The innermask optimization must never change results, only skip work.
func TestInnermaskSkipsComparisonsOnWideRanges(t *testing.T) {
	col := sortedCol(80000)
	ix := Build(col, Options{Seed: 2})
	lo, hi := col[0], col[len(col)-1]
	// A range covering almost everything: most bins are fully inside, so
	// most cachelines should be emitted without comparisons.
	ids, st := ix.RangeIDs(lo, hi+1, nil)
	if len(ids) != len(col) {
		t.Fatalf("full range returned %d ids", len(ids))
	}
	if st.CachelinesExact == 0 {
		t.Error("no exact cachelines on a full-range query over sorted data")
	}
	if st.Comparisons >= uint64(len(col)) {
		t.Errorf("comparisons = %d, want far fewer than %d", st.Comparisons, len(col))
	}
}

func TestStatsAccounting(t *testing.T) {
	col := randomCol(8000, 1<<40, 19)
	ix := Build(col, Options{Seed: 19})
	_, st := ix.RangeIDs(0, 1<<39, nil)
	total := st.CachelinesExact + st.CachelinesScanned + st.CachelinesSkipped
	if total != uint64(ix.Cachelines()) {
		t.Errorf("cacheline accounting: %d+%d+%d != %d",
			st.CachelinesExact, st.CachelinesScanned, st.CachelinesSkipped, ix.Cachelines())
	}
	if st.Probes == 0 {
		t.Error("no probes recorded")
	}
	// Probes equal stored vectors visited plus one per repeat entry plus
	// pending; at minimum they cannot exceed total cachelines + 1.
	if st.Probes > uint64(ix.Cachelines())+1 {
		t.Errorf("probes %d exceed cachelines %d", st.Probes, ix.Cachelines())
	}
}

func TestImprintsFilterSkewedDataWhereZonemapsFail(t *testing.T) {
	// Section 2.2: each cacheline holds min, max and a random value —
	// zonemaps are useless, imprints still filter. Verify imprints skip
	// cachelines for a range between the extremes that hits few bins.
	// The narrow range sits mid-domain, away from the bins holding the
	// per-cacheline min (0) and max (1<<40), so it masks only a bin or
	// two out of 64 and most cachelines' random values miss it.
	col := skewedCol(64000, 23)
	ix := Build(col, Options{Seed: 23})
	low, high := int64(1)<<39, int64(1)<<39+int64(1)<<34
	_, st := ix.RangeIDs(low, high, nil)
	if st.CachelinesSkipped == 0 {
		t.Error("imprints skipped no cachelines on skewed data")
	}
	got, _ := ix.RangeIDs(low, high, nil)
	equalIDs(t, got, scanIDs(col, low, high), "skewed-narrow")
}

func TestQueryPendingTailOnly(t *testing.T) {
	// Column smaller than one cacheline: all values pending.
	col := []int64{5, 10, 15}
	ix := Build(col, Options{Seed: 1})
	got, st := ix.RangeIDs(6, 16, nil)
	equalIDs(t, got, []uint32{1, 2}, "pending only")
	if st.Probes != 1 {
		t.Errorf("probes = %d, want 1", st.Probes)
	}
	// A range below the smallest sampled value maps to the empty overflow
	// bin 0, so the pending vector misses the mask entirely.
	got, st = ix.RangeIDs(0, 5, nil)
	if len(got) != 0 {
		t.Errorf("miss query returned ids: %v", got)
	}
	if st.CachelinesSkipped != 1 {
		t.Errorf("pending cacheline not skipped: %+v", st)
	}
}

// Property: RangeIDs equals the scan oracle for arbitrary ranges over
// arbitrary int16 columns (narrow type exercises 32-value cachelines).
func TestQuickRangeEqualsScan(t *testing.T) {
	f := func(seed uint64, a, b int16) bool {
		rng := rand.New(rand.NewPCG(seed, 0xbeef))
		n := 1 + rng.IntN(4000)
		col := make([]int16, n)
		card := 1 + rng.IntN(5000)
		for i := range col {
			col[i] = int16(rng.IntN(card) - card/2)
		}
		ix := Build(col, Options{Seed: seed})
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: results are always sorted and unique.
func TestQuickResultsSortedUnique(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xcafe))
		col := uniformFloats(1+rng.IntN(3000), seed)
		ix := Build(col, Options{Seed: seed})
		low := rng.Float64() * 1e6
		high := low + rng.Float64()*1e5
		ids, _ := ix.RangeIDs(low, high, nil)
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMasksProperties(t *testing.T) {
	col := randomCol(4000, 1000000, 29)
	ix := Build(col, Options{Seed: 29})
	rng := rand.New(rand.NewPCG(2, 8))
	for q := 0; q < 200; q++ {
		low := int64(rng.IntN(1000000))
		high := low + int64(rng.IntN(1000000-int(low))+1)
		p := pred[int64]{low: low, high: high, lowIncl: true}
		mask, inner := ix.masks(&p)
		// Inner is always a subset of mask.
		if inner&^mask != 0 {
			t.Fatalf("inner %#x not subset of mask %#x", inner, mask)
		}
		// Every column value inside the range must have its bin in mask
		// (no false negatives).
		for _, v := range col[:200] {
			if v >= low && v < high {
				if mask&(1<<uint(ix.hist.Bin(v))) == 0 {
					t.Fatalf("value %d in range but bin %d unmasked", v, ix.hist.Bin(v))
				}
			}
			// Every value whose bin is in inner must qualify.
			if inner&(1<<uint(ix.hist.Bin(v))) != 0 {
				if !(v >= low && v < high) {
					t.Fatalf("value %d has inner bin %d but fails predicate [%d,%d)",
						v, ix.hist.Bin(v), low, high)
				}
			}
		}
	}
}

func TestUnboundedMasksCoverEverything(t *testing.T) {
	col := randomCol(2000, 10000, 37)
	ix := Build(col, Options{Seed: 37})
	p := pred[int64]{lowUnb: true, highUnb: true}
	mask, inner := ix.masks(&p)
	full := uint64(1)<<uint(ix.Bins()) - 1
	if ix.Bins() == 64 {
		full = ^uint64(0)
	}
	if mask != full {
		t.Errorf("unbounded mask = %#x, want %#x", mask, full)
	}
	if inner != full {
		t.Errorf("unbounded inner = %#x, want %#x", inner, full)
	}
}

// TestNaNColumnProbes holds a float column of NaN, ±Inf, −0 and
// MaxFloat64 to the imprint's contract: no qualifying row lies outside
// the candidate runs, no row inside an exact run fails the predicate (a
// NaN satisfies none), and the id path returns exactly the scan's rows
// — over a low-cardinality histogram (one border per value) and a
// sampled one.
func TestNaNColumnProbes(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 4))
	for _, c := range []struct{ n, card int }{{200, 20}, {6000, 700}} {
		col := make([]float64, c.n)
		for i := range col {
			col[i] = float64(rng.IntN(c.card) - c.card/2)
			switch rng.IntN(16) {
			case 0:
				col[i] = math.NaN()
			case 1:
				col[i] = math.Inf(1)
			case 2:
				col[i] = math.Inf(-1)
			case 3:
				col[i] = math.Copysign(0, -1)
			case 4:
				col[i] = math.MaxFloat64
			}
		}
		ix := Build(col, Options{Seed: 3})
		vpc := ix.ValuesPerCacheline()
		for _, th := range []float64{-float64(c.card), -3, 0, 5, float64(c.card), math.MaxFloat64, math.Inf(1), math.Inf(-1)} {
			for _, p := range []struct {
				name string
				m    Masks
				ok   func(v float64) bool
			}{
				{"atleast", ix.AtLeastMasks(th), func(v float64) bool { return v >= th }},
				{"lessthan", ix.LessThanMasks(th), func(v float64) bool { return v < th }},
				{"range", ix.RangeMasks(th, th+10), func(v float64) bool { return v >= th && v < th+10 }},
				{"point", ix.PointMasks(th), func(v float64) bool { return v == th }},
			} {
				runs, _ := ix.RunsInto(nil, p.m, 1, nil)
				covered := make([]int, c.n) // 0 none, 1 candidate, 2 exact
				for _, r := range runs {
					for i := int(r.Start) * vpc; i < min(int(r.Start+r.Count)*vpc, c.n); i++ {
						covered[i] = 1
						if r.Exact {
							covered[i] = 2
						}
					}
				}
				for i, v := range col {
					if p.ok(v) && covered[i] == 0 {
						t.Fatalf("n=%d %s %v: row %d (%v) qualifies outside every candidate run", c.n, p.name, th, i, v)
					}
					if !p.ok(v) && covered[i] == 2 {
						t.Fatalf("n=%d %s %v: row %d (%v) fails inside an exact run", c.n, p.name, th, i, v)
					}
				}
			}
			got, _ := ix.RangeIDs(th, th+10, nil)
			equalIDs(t, got, scanIDs(col, th, th+10), "RangeIDs over NaN")
		}
	}
}
