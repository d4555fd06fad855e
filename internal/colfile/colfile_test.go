package colfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/column"
)

func roundTrip[V interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 | float32 | float64
}](t *testing.T, col []V) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, col); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read[V](&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != len(col) {
		t.Fatalf("rows %d, want %d", len(got), len(col))
	}
	for i := range col {
		if got[i] != col[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], col[i])
		}
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 1000
	i8 := make([]int8, n)
	i16 := make([]int16, n)
	i32 := make([]int32, n)
	i64 := make([]int64, n)
	u8 := make([]uint8, n)
	u64 := make([]uint64, n)
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	for i := 0; i < n; i++ {
		i8[i] = int8(rng.IntN(256) - 128)
		i16[i] = int16(rng.IntN(1<<16) - 1<<15)
		i32[i] = int32(rng.IntN(1<<31) - 1<<30)
		i64[i] = rng.Int64() - (1 << 62)
		u8[i] = uint8(rng.IntN(256))
		u64[i] = rng.Uint64()
		f32[i] = rng.Float32()*2e6 - 1e6
		f64[i] = rng.Float64()*2e12 - 1e12
	}
	roundTrip(t, i8)
	roundTrip(t, i16)
	roundTrip(t, i32)
	roundTrip(t, i64)
	roundTrip(t, u8)
	roundTrip(t, u64)
	roundTrip(t, f32)
	roundTrip(t, f64)
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, []int32{})
}

func TestRoundTripSpecialFloats(t *testing.T) {
	col := []float64{0, -0, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	roundTrip(t, col)
}

func TestKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read[float64](&buf); !errors.Is(err, ErrFormat) {
		t.Fatalf("kind mismatch: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read[int64](bytes.NewReader([]byte("NOPEnopenopenope"))); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v", err)
	}
}

func TestTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read[int64](bytes.NewReader(raw[:len(raw)-4])); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncation: %v", err)
	}
}

// TestDeclaredRowsMustMatchBytes pins that the header's row count is
// checked against the bytes present before the column is allocated: a
// bare header declaring 2^37 rows is an error, not a terabyte make.
func TestDeclaredRowsMustMatchBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	hostile := append([]byte(nil), raw[:headerLen]...)
	binary.LittleEndian.PutUint64(hostile[7:], 1<<37)
	for name, b := range map[string][]byte{
		"hostile row count": hostile,
		"one row short":     raw[:len(raw)-8],
		"trailing byte":     append(append([]byte(nil), raw...), 0),
	} {
		if _, err := Decode[int64](b); !errors.Is(err, ErrFormat) {
			t.Errorf("Decode, %s: %v", name, err)
		}
		if _, err := Read[int64](bytes.NewReader(b)); !errors.Is(err, ErrFormat) {
			t.Errorf("Read, %s: %v", name, err)
		}
	}
}

func TestKindPeek(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []float32{1.5}); err != nil {
		t.Fatal(err)
	}
	k, err := Kind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if k != reflect.Float32 {
		t.Errorf("Kind = %v", k)
	}
}

func TestWriteAny(t *testing.T) {
	c := column.New("x", []int32{4, 5, 6})
	var buf bytes.Buffer
	if err := WriteAny(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := Read[int32](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Fatalf("got %v", got)
	}
}

func TestWriteAnyAllKinds(t *testing.T) {
	cols := []column.Any{
		column.New("a", []int8{1}),
		column.New("b", []int16{2}),
		column.New("c", []int64{3}),
		column.New("d", []uint16{4}),
		column.New("e", []uint32{5}),
		column.New("f", []uint64{6}),
		column.New("g", []float32{7}),
		column.New("h", []float64{8}),
		column.New("i", []uint8{9}),
	}
	for _, c := range cols {
		var buf bytes.Buffer
		if err := WriteAny(&buf, c); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}
