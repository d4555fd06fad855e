package column

import "testing"

func TestNewAndAccessors(t *testing.T) {
	c := New("qty", []int32{5, 7, 9})
	if c.Name() != "qty" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	if c.Get(1) != 7 {
		t.Errorf("Get(1) = %d", c.Get(1))
	}
	if c.WidthBytes() != 4 {
		t.Errorf("WidthBytes = %d", c.WidthBytes())
	}
	if c.TypeName() != "int32" {
		t.Errorf("TypeName = %q", c.TypeName())
	}
	if c.SizeBytes() != 12 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestAppendReturnsFirstID(t *testing.T) {
	c := NewEmpty[int64]("a", 0)
	if id := c.Append(1, 2, 3); id != 0 {
		t.Errorf("first Append id = %d", id)
	}
	if id := c.Append(4); id != 3 {
		t.Errorf("second Append id = %d", id)
	}
	if c.Len() != 4 || c.Get(3) != 4 {
		t.Errorf("column after appends: len=%d", c.Len())
	}
}

func TestMinMax(t *testing.T) {
	c := New("m", []float64{3.5, -1.25, 9.75, 0})
	lo, hi := c.MinMax()
	if lo != -1.25 || hi != 9.75 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
}

func TestMinMaxEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("e", []int32{}).MinMax()
}

func TestDistinctUpTo(t *testing.T) {
	c := New("d", []int16{1, 1, 2, 2, 3})
	if got := c.DistinctUpTo(10); got != 3 {
		t.Errorf("DistinctUpTo(10) = %d, want 3", got)
	}
	if got := c.DistinctUpTo(2); got != 2 {
		t.Errorf("DistinctUpTo(2) = %d, want 2 (capped)", got)
	}
}

func TestDescribe(t *testing.T) {
	c := New("x", []uint8{1, 2})
	want := "x uint8[2] (2 bytes)"
	if got := Describe(c); got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

func TestStringDictRoundTrip(t *testing.T) {
	vals := []string{"ORD", "JFK", "AMS", "JFK", "ORD", "AMS", "AMS"}
	d := EncodeStrings("origin", vals)
	if d.Cardinality() != 3 {
		t.Fatalf("Cardinality = %d", d.Cardinality())
	}
	codes := d.Codes()
	if codes.Len() != len(vals) {
		t.Fatalf("codes len = %d", codes.Len())
	}
	for i, s := range vals {
		if got := d.Symbol(codes.Get(i)); got != s {
			t.Errorf("row %d: decoded %q, want %q", i, got, s)
		}
	}
	// Codes are ordered lexicographically.
	if !(d.Symbol(0) < d.Symbol(1) && d.Symbol(1) < d.Symbol(2)) {
		t.Error("dictionary not lexicographically ordered")
	}
}

func TestStringDictCodeRange(t *testing.T) {
	d := EncodeStrings("s", []string{"apple", "banana", "cherry", "date"})
	lo, hi, ok := d.CodeRange("banana", "cherry")
	if !ok || lo != 1 || hi != 3 {
		t.Errorf("CodeRange = %d,%d,%v; want 1,3,true", lo, hi, ok)
	}
	// Range between entries: covers nothing.
	if _, _, ok := d.CodeRange("aa", "ab"); ok {
		t.Error("empty range reported ok")
	}
	// Open-ended style range covering everything.
	lo, hi, ok = d.CodeRange("a", "zzz")
	if !ok || lo != 0 || hi != 4 {
		t.Errorf("full CodeRange = %d,%d,%v", lo, hi, ok)
	}
}

func TestStringDictSizeBytes(t *testing.T) {
	d := EncodeStrings("s", []string{"ab", "cd", "ab"})
	// 3 int32 codes + 4 bytes of symbols.
	if got := d.SizeBytes(); got != 3*4+4 {
		t.Errorf("SizeBytes = %d, want 16", got)
	}
}
