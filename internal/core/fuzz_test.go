package core

import (
	"bytes"
	"fmt"
	"testing"
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

// FuzzRangeQuery checks the query path against the scan oracle for
// arbitrary column bytes and bounds.
func FuzzRangeQuery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, int64(2), int64(7))
	f.Add([]byte{255, 0, 255, 0}, int64(-5), int64(300))
	f.Add([]byte{}, int64(0), int64(0))

	f.Fuzz(func(t *testing.T, data []byte, low, high int64) {
		if len(data) == 0 {
			return
		}
		col := make([]int64, len(data))
		for i, b := range data {
			col[i] = int64(b) * 7
		}
		ix := Build(col, Options{Seed: 42})
		got, _ := ix.RangeIDs(low, high, nil)
		want := scanIDs(col, low, high)
		if len(got) != len(want) {
			t.Fatalf("RangeIDs %d results, scan %d (low=%d high=%d)", len(got), len(want), low, high)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("id[%d] = %d, scan %d", i, got[i], want[i])
			}
		}
	})
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
