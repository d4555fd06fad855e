package table

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// rowStrings executes mk() twice — through Rows and through Batches —
// renders every row as "id col=val ..." (Row.String's form), requires
// the two paths to agree row for row, and returns the rendering for
// the caller to hold against its naive model.
func rowStrings(t *testing.T, label string, mk func() *Query) []string {
	t.Helper()
	var viaRows, viaBatches []string
	q := mk()
	for id, row := range q.Rows() {
		viaRows = append(viaRows, fmt.Sprintf("%d %s", id, row))
	}
	if err := q.Err(); err != nil {
		t.Fatalf("%s: Rows: %v", label, err)
	}
	q = mk()
	for b := range q.Batches() {
		if b.Len() == 0 || b.Len() > rowBatchSize || b.Len() != len(b.IDs) {
			t.Fatalf("%s: batch of %d rows, %d ids", label, b.Len(), len(b.IDs))
		}
		for i, id := range b.IDs {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d", id)
			for ci, name := range b.Columns() {
				fmt.Fprintf(&sb, " %s=%v", name, b.Cols[ci].Value(i))
			}
			viaBatches = append(viaBatches, sb.String())
		}
		b.Release()
	}
	if err := q.Err(); err != nil {
		t.Fatalf("%s: Batches: %v", label, err)
	}
	if !reflect.DeepEqual(viaRows, viaBatches) {
		t.Fatalf("%s: Rows and Batches diverge:\n rows    %v\n batches %v", label, viaRows, viaBatches)
	}
	return viaRows
}

// TestBatchCellTypes gathers every supported column type out of sealed
// segments and out of the delta buffer: vectors carry the right kind
// and width, and both Value and Rows hand back the column's own Go
// type, extremes intact.
func TestBatchCellTypes(t *testing.T) {
	tb := NewWithOptions("types", TableOptions{SegmentRows: 4})
	add := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Six sealed rows (a full segment and a partial tail), two buffered.
	i8 := []int8{math.MinInt8, -1, 0, 1, math.MaxInt8, 7, 8, 9}
	i16 := []int16{math.MinInt16, -1, 0, 1, math.MaxInt16, 7, 8, 9}
	i32 := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32, 7, 8, 9}
	i64 := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 7, 8, 9}
	u8 := []uint8{0, 1, 2, 3, math.MaxUint8, 7, 8, 9}
	u16 := []uint16{0, 1, 2, 3, math.MaxUint16, 7, 8, 9}
	u32 := []uint32{0, 1, 2, 3, math.MaxUint32, 7, 8, 9}
	u64 := []uint64{0, 1, 2, math.MaxInt64 + 1, math.MaxUint64, 7, 8, 9}
	f32 := []float32{float32(math.Copysign(0, -1)), 0.1, 1e-7, 1e21, math.MaxFloat32, 7, 8.5, 9}
	f64 := []float64{math.Copysign(0, -1), 0.1, 1e-7, 1e21, math.MaxFloat64, 7, 8.5, 9}
	str := []string{"", "a", "b\x00", "\xff", "é", "s7", "s8", "s9"}
	const sealed = 6
	add(AddColumn(tb, "i8", i8[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "i16", i16[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "i32", i32[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "i64", i64[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "u8", u8[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "u16", u16[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "u32", u32[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "u64", u64[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "f32", f32[:sealed], Imprints, core.Options{}))
	add(AddColumn(tb, "f64", f64[:sealed], Imprints, core.Options{}))
	add(tb.AddStringColumn("str", str[:sealed], Imprints, core.Options{}))
	add(tb.EnableDeltaIngest(IngestOptions{}))
	defer tb.Close()
	b := tb.NewBatch()
	add(Append(b, "i8", i8[sealed:]))
	add(Append(b, "i16", i16[sealed:]))
	add(Append(b, "i32", i32[sealed:]))
	add(Append(b, "i64", i64[sealed:]))
	add(Append(b, "u8", u8[sealed:]))
	add(Append(b, "u16", u16[sealed:]))
	add(Append(b, "u32", u32[sealed:]))
	add(Append(b, "u64", u64[sealed:]))
	add(Append(b, "f32", f32[sealed:]))
	add(Append(b, "f64", f64[sealed:]))
	add(b.AppendStrings("str", str[sealed:]))
	add(b.Commit())
	if got := tb.DeltaRows(); got != len(i8)-sealed {
		t.Fatalf("%d rows buffered, want %d", got, len(i8)-sealed)
	}

	want := []struct {
		kind ColKind
		bits int
		at   func(i int) any
	}{
		{KindInt, 8, func(i int) any { return i8[i] }},
		{KindInt, 16, func(i int) any { return i16[i] }},
		{KindInt, 32, func(i int) any { return i32[i] }},
		{KindInt, 64, func(i int) any { return i64[i] }},
		{KindUint, 8, func(i int) any { return u8[i] }},
		{KindUint, 16, func(i int) any { return u16[i] }},
		{KindUint, 32, func(i int) any { return u32[i] }},
		{KindUint, 64, func(i int) any { return u64[i] }},
		{KindFloat, 32, func(i int) any { return f32[i] }},
		{KindFloat, 64, func(i int) any { return f64[i] }},
		{KindString, 0, func(i int) any { return str[i] }},
	}
	same := func(a, b any) bool {
		// -0 == 0 under ==; the sign must survive too.
		if fa, ok := a.(float64); ok {
			fb, ok := b.(float64)
			return ok && math.Float64bits(fa) == math.Float64bits(fb)
		}
		if fa, ok := a.(float32); ok {
			fb, ok := b.(float32)
			return ok && math.Float32bits(fa) == math.Float32bits(fb)
		}
		return a == b
	}
	n := 0
	for batch := range tb.Select().Batches() {
		for ci, w := range want {
			v := &batch.Cols[ci]
			if v.Kind != w.kind || v.Bits != w.bits || v.Len() != batch.Len() {
				t.Fatalf("column %s: kind %d bits %d len %d, want kind %d bits %d len %d",
					batch.Columns()[ci], v.Kind, v.Bits, v.Len(), w.kind, w.bits, batch.Len())
			}
			for i, id := range batch.IDs {
				if got := v.Value(i); !same(got, w.at(int(id))) {
					t.Fatalf("column %s row %d: %T(%v), want %T(%v)", batch.Columns()[ci], id, got, got, w.at(int(id)), w.at(int(id)))
				}
			}
		}
		n += batch.Len()
		batch.Release()
	}
	if n != len(i8) {
		t.Fatalf("gathered %d rows, want %d", n, len(i8))
	}
	for id, row := range tb.Select().Rows() {
		for ci, w := range want {
			if got := row.Value(ci); !same(got, w.at(id)) {
				t.Fatalf("Rows column %d row %d: %T(%v), want %T(%v)", ci, id, got, got, w.at(id), w.at(id))
			}
		}
	}
}

// TestBatchBoundaries pins the batch cut: full batches of exactly
// rowBatchSize rows, one partly filled batch at the end, and a Limit
// that lands inside a batch ends the iteration there.
func TestBatchBoundaries(t *testing.T) {
	const rows = 2*rowBatchSize + 300
	tb := aggTestTable(t, rows)
	sizes := func(q *Query) []int {
		var out []int
		for b := range q.Batches() {
			out = append(out, b.Len())
			b.Release()
		}
		if err := q.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, par := range []int{1, 4} {
		opts := SelectOptions{Parallelism: par}
		if got, want := sizes(tb.Select("qty").Options(opts)), []int{rowBatchSize, rowBatchSize, 300}; !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: batch sizes %v, want %v", par, got, want)
		}
		if got, want := sizes(tb.Select("qty").Options(opts).Limit(rowBatchSize+5)), []int{rowBatchSize, 5}; !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: limited batch sizes %v, want %v", par, got, want)
		}
		if got := sizes(tb.Select("qty").Options(opts).Limit(0)); got != nil {
			t.Errorf("par %d: Limit(0) yielded batches %v", par, got)
		}
		if got, want := sizes(tb.Select("qty").Options(opts).OrderBy(Desc("qty")).Limit(rowBatchSize+1)), []int{rowBatchSize, 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("par %d: ordered batch sizes %v, want %v", par, got, want)
		}
	}
	// Breaking out of the loop stops the execution without yielding again.
	seen := 0
	for b := range tb.Select("qty").Batches() {
		seen++
		b.Release()
		break
	}
	if seen != 1 {
		t.Errorf("break yielded %d batches", seen)
	}
}
