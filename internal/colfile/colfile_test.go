package colfile

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/column"
)

// roundTrip writes col, reads it back and requires every value to come
// back bit for bit, so NaN payloads and the sign of zero are checked.
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
		if bitsOf(got[i]) != bitsOf(col[i]) {
			t.Fatalf("%T row %d = %v (%#x), want %v (%#x)", col, i, got[i], bitsOf(got[i]), col[i], bitsOf(col[i]))
		}
	}
}

// bitsOf is v's bit pattern: a float's IEEE bits, an integer's value.
func bitsOf[V interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 | float32 | float64
}](v V) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	}
	return uint64(v)
}

func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 1000
	i8 := make([]int8, n)
	i16 := make([]int16, n)
	i32 := make([]int32, n)
	i64 := make([]int64, n)
	u8 := make([]uint8, n)
	u16 := make([]uint16, n)
	u32 := make([]uint32, n)
	u64 := make([]uint64, n)
	f32 := make([]float32, n)
	f64 := make([]float64, n)
	for i := 0; i < n; i++ {
		i8[i] = int8(rng.IntN(256) - 128)
		i16[i] = int16(rng.IntN(1<<16) - 1<<15)
		i32[i] = int32(rng.IntN(1<<31) - 1<<30)
		i64[i] = rng.Int64() - (1 << 62)
		u8[i] = uint8(rng.IntN(256))
		u16[i] = uint16(rng.IntN(1 << 16))
		u32[i] = rng.Uint32()
		u64[i] = rng.Uint64()
		f32[i] = rng.Float32()*2e6 - 1e6
		f64[i] = rng.Float64()*2e12 - 1e12
	}
	roundTrip(t, i8)
	roundTrip(t, i16)
	roundTrip(t, i32)
	roundTrip(t, i64)
	roundTrip(t, u8)
	roundTrip(t, u16)
	roundTrip(t, u32)
	roundTrip(t, u64)
	roundTrip(t, f32)
	roundTrip(t, f64)
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, []int32{})
}

// TestRoundTripSpecialFloats round-trips the values a value-wise
// comparison cannot tell apart or cannot compare at all: -0, NaNs with
// payloads (quiet and signalling, either sign) in both float widths,
// infinities, subnormals and each type's extremes.
func TestRoundTripSpecialFloats(t *testing.T) {
	roundTrip(t, []float64{
		0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN, payload
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff4_0000_0000_0abc), // negative signalling NaN
	})
	roundTrip(t, []float32{
		0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc0_beef), // quiet NaN, payload
		math.Float32frombits(0x7f80_0001), // signalling NaN
		math.Float32frombits(0xffa0_0abc), // negative signalling NaN
	})
}

// TestRoundTripIntegerExtremes round-trips each integer type's extremes
// and the values either side of its sign bit.
func TestRoundTripIntegerExtremes(t *testing.T) {
	roundTrip(t, []int8{math.MinInt8, -1, 0, 1, math.MaxInt8})
	roundTrip(t, []int16{math.MinInt16, -1, 0, 1, math.MaxInt16})
	roundTrip(t, []int32{math.MinInt32, -1, 0, 1, math.MaxInt32})
	roundTrip(t, []int64{math.MinInt64, -1, 0, 1, math.MaxInt64})
	roundTrip(t, []uint8{0, 1, 1 << 7, math.MaxUint8})
	roundTrip(t, []uint16{0, 1, 1 << 15, math.MaxUint16})
	roundTrip(t, []uint32{0, 1, 1 << 31, math.MaxUint32})
	roundTrip(t, []uint64{0, 1, 1 << 63, math.MaxUint64})
}

// encodeHex is the hex of col's file body: everything after the magic.
func encodeHex[V interface {
	int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64 | float32 | float64
}](t *testing.T, col []V) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, col); err != nil {
		t.Fatal(err)
	}
	if got := buf.String()[:4]; got != magic {
		t.Fatalf("magic %q", got)
	}
	return hex.EncodeToString(buf.Bytes()[4:])
}

// TestEncodedBytes pins the file layout of one small column per type:
// version 1, the reflect.Kind, the row count, then the values little
// endian at native width.
func TestEncodedBytes(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{encodeHex(t, []int8{-2, 3}), "0100" + "03" + "0200000000000000" + "fe03"},
		{encodeHex(t, []int16{-2, 0x102}), "0100" + "04" + "0200000000000000" + "feff" + "0201"},
		{encodeHex(t, []int32{-2, 0x1020304}), "0100" + "05" + "0200000000000000" + "feffffff" + "04030201"},
		{encodeHex(t, []int64{-2}), "0100" + "06" + "0100000000000000" + "feffffffffffffff"},
		{encodeHex(t, []uint8{0xfe, 3}), "0100" + "08" + "0200000000000000" + "fe03"},
		{encodeHex(t, []uint16{0xfffe}), "0100" + "09" + "0100000000000000" + "feff"},
		{encodeHex(t, []uint32{0x1020304}), "0100" + "0a" + "0100000000000000" + "04030201"},
		{encodeHex(t, []uint64{0x102030405060708}), "0100" + "0b" + "0100000000000000" + "0807060504030201"},
		{encodeHex(t, []float32{1, float32(math.Copysign(0, -1))}), "0100" + "0d" + "0200000000000000" + "0000803f" + "00000080"},
		{encodeHex(t, []float64{1, math.Copysign(0, -1)}), "0100" + "0e" + "0200000000000000" + "000000000000f03f" + "0000000000000080"},
	} {
		if tc.got != tc.want {
			t.Errorf("encoded %s, want %s", tc.got, tc.want)
		}
	}
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
