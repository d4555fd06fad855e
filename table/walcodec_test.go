package table

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"testing"
)

// walFixtureBatch is the content of testdata/wal-commit.bin — five rows
// of every loggable type, framed at base row 1,000,003 by the boxed
// row-major encoder of the commit before the columnar delta — as typed
// column vectors, embedded at rows [2, 7) of longer ones.
func walFixtureBatch() (tags []byte, vals []any) {
	tags = []byte{walTagInt8, walTagInt16, walTagInt32, walTagInt64, walTagUint8, walTagUint16,
		walTagUint32, walTagUint64, walTagFloat32, walTagFloat64, walTagString}
	const n = 9 // two rows of padding before, two after
	i8, i16, i32, i64 := make([]int8, n), make([]int16, n), make([]int32, n), make([]int64, n)
	u8, u16, u32, u64 := make([]uint8, n), make([]uint16, n), make([]uint32, n), make([]uint64, n)
	f32, f64, str := make([]float32, n), make([]float64, n), make([]string, n)
	strs := []string{"", "amsterdam", "zürich", "a\x00b", "oslo"}
	for r := 0; r < 5; r++ {
		k := int64(r*37 - 60)
		i8[2+r], i16[2+r], i32[2+r], i64[2+r] = int8(k), int16(k*200), int32(k*30_000_000), k*100_000_000_000_000_000
		u8[2+r], u16[2+r], u32[2+r], u64[2+r] = uint8(r*60), uint16(r*16000), uint32(r)*1_000_000_000, uint64(r)*4_000_000_000_000_000_000
		f32[2+r], f64[2+r], str[2+r] = float32(k)/3, math.Pi*float64(k), strs[r]
	}
	f32[6], f64[6] = float32(math.Inf(-1)), math.NaN()
	return tags, []any{i8, i16, i32, i64, u8, u16, u32, u64, f32, f64, str}
}

// The 'C' record format is pinned by a committed fixture, like the image
// format: framing typed column vectors must produce the bytes the boxed
// row-major encoder produced, and decoding them must give the vectors
// back. Never regenerate the fixture from the working tree — a mismatch
// means the record format changed.
func TestWALCommitFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/wal-commit.bin")
	if err != nil {
		t.Fatal(err)
	}
	tags, vals := walFixtureBatch()
	if got := encodeWALCommit(tags, 1_000_003, vals, 2, 7); !bytes.Equal(got, want) {
		t.Fatalf("encodeWALCommit over typed vectors differs from the fixture (%d vs %d bytes)", len(got), len(want))
	}
	base, rows, got, err := decodeWALCommit(want, tags)
	if err != nil || base != 1_000_003 || rows != 5 {
		t.Fatalf("decodeWALCommit = base %d, %d rows, %v", base, rows, err)
	}
	for ci, col := range got {
		window := reflect.ValueOf(vals[ci]).Slice(2, 7).Interface()
		if ci == 9 { // NaN != NaN: compare the float64 column by bits
			g, w := col.([]float64), window.([]float64)
			for r := range w {
				if math.Float64bits(g[r]) != math.Float64bits(w[r]) {
					t.Fatalf("column 9 row %d = %v, want %v", r, g[r], w[r])
				}
			}
			continue
		}
		if !reflect.DeepEqual(col, window) {
			t.Fatalf("column %d = %v, want %v", ci, col, window)
		}
	}
	// Re-framing what was decoded reproduces the record.
	if again := encodeWALCommit(tags, base, got, 0, rows); !bytes.Equal(again, want) {
		t.Fatal("decode then encode does not reproduce the fixture")
	}
}
