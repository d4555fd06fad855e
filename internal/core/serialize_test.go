package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"testing"
)

func roundTrip[V interface{ int64 | float64 | uint8 }](t *testing.T, col []V) *Index[V] {
	t.Helper()
	ix := Build(col, Options{Seed: 7})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadIndex[V](&buf, col)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	equalIndexes(t, ix, got, "roundtrip")
	return got
}

func TestSerializeRoundTripInt64(t *testing.T) {
	got := roundTrip(t, clusteredCol(12345, 1))
	// Queries over the deserialized index work.
	col := got.Column()
	ids, _ := got.RangeIDs(100000, 900000, nil)
	equalIDs(t, ids, scanIDs(col, 100000, 900000), "deserialized query")
}

func TestSerializeRoundTripFloat64(t *testing.T) {
	roundTrip(t, uniformFloats(5000, 2))
}

func TestSerializeRoundTripUint8(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	col := make([]uint8, 3001)
	for i := range col {
		col[i] = uint8(rng.IntN(200))
	}
	roundTrip(t, col)
}

func TestSerializeNegativeBorders(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	col := make([]int64, 4000)
	for i := range col {
		col[i] = int64(rng.IntN(2000000)) - 1000000
	}
	ix := roundTrip(t, col)
	ids, _ := ix.RangeIDs(-500000, 500000, nil)
	equalIDs(t, ids, scanIDs(col, -500000, 500000), "negative domain")
}

func TestSerializeKindMismatch(t *testing.T) {
	col := clusteredCol(1000, 3)
	ix := Build(col, Options{Seed: 1})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fcol := make([]float64, len(col))
	_, err := ReadIndex[float64](&buf, fcol)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestSerializeColumnLengthMismatch(t *testing.T) {
	col := clusteredCol(1000, 4)
	ix := Build(col, Options{Seed: 1})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex[int64](&buf, col[:999]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSerializeDetectsBitFlips(t *testing.T) {
	col := clusteredCol(3000, 5)
	ix := Build(col, Options{Seed: 1})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 50; trial++ {
		corrupted := append([]byte(nil), raw...)
		pos := rng.IntN(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.IntN(8))
		_, err := ReadIndex[int64](bytes.NewReader(corrupted), col)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", pos)
		}
	}
}

func TestSerializeDetectsTruncation(t *testing.T) {
	col := clusteredCol(3000, 6)
	ix := Build(col, Options{Seed: 1})
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{0, 1, 3, 10, len(raw) / 2, len(raw) - 1} {
		if _, err := ReadIndex[int64](bytes.NewReader(raw[:cut]), col); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestSerializeBoundsDeclaredLengths pins that dictLen and wordLen are
// bounded by the column the image reattaches to before anything is
// allocated for them: a hostile length is ErrCorrupt, not a terabyte
// make.
func TestSerializeBoundsDeclaredLengths(t *testing.T) {
	col := clusteredCol(3000, 6)
	var buf bytes.Buffer
	if err := Build(col, Options{Seed: 1}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	le := binary.LittleEndian
	// magic, version, kind, vpc, n, bins, sampledUnique, 64 borders.
	const dictLenAt = 4 + 2 + 1 + 4 + 8 + 2 + 4 + 64*8
	// dictLen and its entries, then vecN and vecWidth.
	wordLenAt := dictLenAt + 8 + 4*int(le.Uint64(raw[dictLenAt:])) + 8 + 1
	for name, at := range map[string]int{"dictLen": dictLenAt, "wordLen": wordLenAt} {
		hostile := append([]byte(nil), raw...)
		le.PutUint64(hostile[at:], 1<<39)
		if _, err := ReadIndex[int64](bytes.NewReader(hostile), col); !errors.Is(err, ErrCorrupt) {
			t.Errorf("hostile %s: %v", name, err)
		}
	}
}

func TestSerializeGarbageRejected(t *testing.T) {
	garbage := []byte("this is not an imprint index at all, not even close")
	if _, err := ReadIndex[int64](bytes.NewReader(garbage), make([]int64, 10)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage accepted: %v", err)
	}
}

func TestSerializePreservesPendingAndExtraBits(t *testing.T) {
	col := randomCol(1003, 1000, 7)
	ix := Build(col, Options{Seed: 1})
	ix.MarkUpdated(5, 999)
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex[int64](&buf, col)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExtraBits() != ix.ExtraBits() {
		t.Errorf("ExtraBits = %d, want %d", got.ExtraBits(), ix.ExtraBits())
	}
	gv, gc := got.PendingVector()
	wv, wc := ix.PendingVector()
	if gv != wv || gc != wc {
		t.Errorf("pending = %#x/%d, want %#x/%d", gv, gc, wv, wc)
	}
	// Appends continue to work after deserialization.
	more := append(append([]int64(nil), col...), randomCol(500, 1000, 8)...)
	got.Append(more)
	ids, _ := got.RangeIDs(0, 500, nil)
	equalIDs(t, ids, scanIDs(more, 0, 500), "append after load")
}
