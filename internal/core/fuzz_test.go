package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/coltype"
)

// FuzzReadIndex hardens deserialization against arbitrary input: it must
// reject or load — never panic, never over-allocate absurdly.
func FuzzReadIndex(f *testing.F) {
	// Seed with a valid image and a few mutations.
	col := make([]int64, 100)
	for i := range col {
		col[i] = int64(i * 37 % 1000)
	}
	ix := Build(col, Options{Seed: 1})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CIMP"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIndex[int64](bytes.NewReader(data), col)
		if err != nil {
			return
		}
		// A successfully loaded index must answer queries without
		// panicking and within bounds.
		ids, _ := got.RangeIDs(0, 1000, nil)
		for _, id := range ids {
			if int(id) >= len(col) {
				t.Fatalf("id %d out of range", id)
			}
		}
	})
}

// FuzzRangeQuery checks every paper entry point against the scan
// oracle for arbitrary column bytes and bounds, over an int64 column
// and a float64 one that reaches NaN, -0 and ±Inf.
func FuzzRangeQuery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(2), int64(7))
	f.Add([]byte{255, 0, 255, 0}, int64(-5), int64(300))
	f.Add([]byte{}, int64(0), int64(0))
	f.Add([]byte{0, 1, 2, 3, 4, 130, 200, 0, 1, 2, 3, 9, 9, 9, 9, 9, 9, 0}, int64(1), int64(2))

	f.Fuzz(func(t *testing.T, data []byte, low, high int64) {
		if len(data) == 0 {
			return
		}
		col := make([]int64, len(data))
		floats := make([]float64, len(data))
		for i, b := range data {
			col[i] = int64(b) * 7
			floats[i] = fuzzFloat(int64(b))
		}
		checkEntryPoints(t, col, low, high)
		checkEntryPoints(t, floats, fuzzFloat(low), fuzzFloat(high))
	})
}

// fuzzFloat maps the low byte of x to NaN, -0, +Inf, -Inf and +0 for
// 0–4, and to a multiple of 1/4 in [-32, 32) otherwise.
func fuzzFloat(x int64) float64 {
	switch x & 255 {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return 0
	}
	return float64(int8(x)) / 4
}

// checkEntryPoints holds RangeIDs, CountRange, MultiRangeIDs, InSetIDs,
// Range and Min/Max over col to a scan of col.
func checkEntryPoints[V coltype.Value](t *testing.T, col []V, low, high V) {
	t.Helper()
	ix := Build(col, Options{Seed: 42})
	ctx := fmt.Sprintf("%T low=%v high=%v", col, low, high)
	scan := func(keep func(v V) bool) []uint32 {
		var ids []uint32
		for i, v := range col {
			if keep(v) {
				ids = append(ids, uint32(i))
			}
		}
		return ids
	}

	want := scanIDs(col, low, high)
	got, _ := ix.RangeIDs(low, high, nil)
	equalIDs(t, got, want, "RangeIDs "+ctx)
	if n, _ := ix.CountRange(low, high); n != uint64(len(want)) {
		t.Fatalf("CountRange = %d, scan %d (%s)", n, len(want), ctx)
	}

	got = got[:0]
	for id := range ix.Range(low, high) {
		got = append(got, id)
	}
	equalIDs(t, got, want, "Range "+ctx)
	got = got[:0]
	for id := range ix.Range(low, high) {
		if len(got) == len(want)/2 {
			break
		}
		got = append(got, id)
	}
	equalIDs(t, got, want[:len(want)/2], "Range stopped early "+ctx)

	ranges := [][2]V{{low, high}, {col[0], col[len(col)/2]}, {col[len(col)-1], low}}
	got, _ = ix.MultiRangeIDs(ranges, nil)
	equalIDs(t, got, scan(func(v V) bool {
		for _, r := range ranges {
			if v >= r[0] && v < r[1] {
				return true
			}
		}
		return false
	}), "MultiRangeIDs "+ctx)

	set := []V{low, col[len(col)-1], high, col[0], low}
	got, _ = ix.InSetIDs(set, nil)
	equalIDs(t, got, scan(func(v V) bool { return slices.Contains(set, v) }), "InSetIDs "+ctx)

	// Min and Max skip NaN, which is unordered; only a column of NaNs
	// answers NaN. -0 orders below +0, as the builtin min and max order
	// them.
	var lo, hi V
	seen := false
	for _, v := range col {
		if v != v {
			if !seen {
				lo, hi = v, v
			}
			continue
		}
		if !seen {
			lo, hi = v, v
		}
		lo, hi = min(lo, v), max(hi, v)
		seen = true
	}
	same := func(a, b V) bool {
		return a == b && math.Signbit(float64(a)) == math.Signbit(float64(b)) || a != a && b != b
	}
	if got, _ := ix.Min(); !same(got, lo) {
		t.Fatalf("Min = %v, scan %v (%s)", got, lo, ctx)
	}
	if got, _ := ix.Max(); !same(got, hi) {
		t.Fatalf("Max = %v, scan %v (%s)", got, hi, ctx)
	}
}

// FuzzRunsInto checks the probe against referenceRuns for columns,
// masks and units derived from the fuzz bytes: a random walk whose
// step sizes come from the data (small steps compress into repeats,
// large ones into distinct stretches), at a width and cacheline size
// the header bytes choose.
func FuzzRunsInto(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0xff, 0x0f, 1, 2, 3, 250, 4, 4, 4, 4, 0, 0, 0, 200, 7})
	f.Add([]byte{6, 0, 2, 0x3c, 0x18, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 128, 128, 1})
	f.Add(bytes.Repeat([]byte{5, 255, 1, 0, 0, 0, 0, 17}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		unit := 1 << (data[0] % 7)
		bins := 8 << (data[1] % 4)
		vpc := []int{0, 1, 2, 4, 8}[data[2]%5]
		m := Masks{Mask: uint64(data[3]) * 0x0101010101010101, Inner: uint64(data[4]) * 0x0101010101010101}
		data = data[5:]
		// Each byte is a run: its low bits the step, its high bits how
		// many values keep taking it. The column is capped at 16K values
		// so that an exec stays around a millisecond.
		var col []int64
		v := int64(1 << 20)
		for _, b := range data {
			step := (int64(b&15) - 7) * int64(b&15) * int64(b&15) * 31
			for k := 0; k < 1+int(b>>4)*8 && len(col) < 1<<14; k++ {
				v += step
				col = append(col, v)
			}
		}
		if len(col) == 0 {
			return
		}
		ix := Build(col, Options{Seed: 7, MaxBins: bins, ValuesPerCacheline: vpc})
		for _, mk := range []Masks{m, ix.RangeMasks(col[0], col[len(col)/2]), ix.PointMasks(col[len(col)-1])} {
			checkRunsInto(t, ix, mk, unit, fmt.Sprintf("%d values, bins=%d vpc=%d", len(col), bins, ix.ValuesPerCacheline()))
		}
	})
}
