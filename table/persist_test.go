package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/colfile"
	"repro/internal/coltype"
	"repro/internal/core"
)

func TestTablePersistRoundTrip(t *testing.T) {
	tb, qty, price, status := mkTable(t, 3000, 21)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != tb.Name() || got.Rows() != tb.Rows() {
		t.Fatalf("meta mismatch: %s/%d", got.Name(), got.Rows())
	}
	cols := got.Columns()
	if len(cols) != 3 || cols[0] != "qty" || cols[1] != "price" || cols[2] != "status" {
		t.Fatalf("columns = %v", cols)
	}
	// Values survive.
	gq, err := Column[int64](got, "qty")
	if err != nil {
		t.Fatal(err)
	}
	for i := range qty {
		if gq[i] != qty[i] {
			t.Fatalf("qty[%d] differs", i)
		}
	}
	// Indexes survive and queries agree.
	pred := And(
		Range[int64]("qty", 950, 1100),
		Range[float64]("price", 10.0, 60.0),
		Equals[uint8]("status", 1),
	)
	a, _, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := got.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, b, a, "persisted query")
	_ = price
	_ = status
	// The unindexed column stayed unindexed.
	if ix, _ := Index[uint8](got, "status"); ix != nil {
		t.Error("NoIndex column gained an index through persistence")
	}
	// Loaded tables keep working: append a batch.
	batch := got.NewBatch()
	if err := Append(batch, "qty", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := Append(batch, "price", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := Append(batch, "status", []uint8{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if got.Rows() != tb.Rows()+2 {
		t.Errorf("append after load: rows = %d", got.Rows())
	}
}

func TestTablePersistRefusesPendingDeletes(t *testing.T) {
	tb, _, _, _ := mkTable(t, 100, 22)
	if err := tb.Delete(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err == nil {
		t.Fatal("Write accepted pending deletes")
	}
	tb.Compact()
	if err := tb.Write(&buf); err != nil {
		t.Fatalf("Write after compact: %v", err)
	}
}

func TestTablePersistCorruption(t *testing.T) {
	tb, _, _, _ := mkTable(t, 500, 23)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Garbage and truncations.
	if _, err := Read(bytes.NewReader([]byte("not a table"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage: %v", err)
	}
	for _, cut := range []int{0, 3, 10, len(raw) / 3, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Random bit flips: must never load silently as valid with wrong
	// content... at minimum the index CRCs and structural checks catch
	// flips in their regions; header flips fail fast. We only require
	// no panic and, when the flip hits an index image, an error.
	rng := rand.New(rand.NewPCG(24, 24))
	for trial := 0; trial < 30; trial++ {
		corrupted := append([]byte(nil), raw...)
		corrupted[rng.IntN(len(corrupted))] ^= 1 << uint(rng.IntN(8))
		_, _ = Read(bytes.NewReader(corrupted)) // must not panic
	}
}

func TestTablePersistEmptyTable(t *testing.T) {
	tb := New("empty")
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 0 || len(got.Columns()) != 0 {
		t.Errorf("empty table loaded as %d rows %v", got.Rows(), got.Columns())
	}
}

// framed returns payload as one [len][payload][crc32c] section.
func framed(payload []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// spliceSection returns a copy of img whose section fr carries payload
// instead, framed with a correct checksum — damage the CRC cannot
// catch, so the decoders must.
func spliceSection(img []byte, fr frame, payload []byte) []byte {
	out := append([]byte(nil), img[:fr.payload-4]...)
	out = append(out, framed(payload)...)
	return append(out, img[fr.payload+fr.n+4:]...)
}

// TestUnsupportedVersions pins the reader's dispatch: anything but the
// table image and the sharded envelope is rejected by version number.
func TestUnsupportedVersions(t *testing.T) {
	for _, v := range []uint16{2, 3, 4, 7} {
		img := binary.LittleEndian.AppendUint16([]byte(tableMagic), v)
		img = append(img, make([]byte, 64)...)
		_, err := Read(bytes.NewReader(img))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: %v, want ErrCorrupt", v, err)
		}
		if want := fmt.Sprintf("unsupported version %d", v); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: %q does not say %q", v, err, want)
		}
		if legacy := v < tableVersionCRC; strings.Contains(err.Error(), "predates checksummed persistence") != legacy {
			t.Errorf("version %d: %q (legacy hint expected: %v)", v, err, legacy)
		}
	}
}

// TestRejectsUnderfullSealedSegment pins the loader invariant behind
// id mapping: an image whose non-tail segment is not exactly full —
// hand-framed here, every checksum valid — must be rejected as corrupt
// (it would otherwise load fine and panic on the first point read),
// and quarantined like any other damaged segment.
func TestRejectsUnderfullSealedSegment(t *testing.T) {
	le := binary.LittleEndian
	var hdr, colhdr bytes.Buffer
	if err := writeString(&hdr, "bad"); err != nil {
		t.Fatal(err)
	}
	hdr.Write(le.AppendUint64(nil, 127)) // rows
	hdr.Write(le.AppendUint32(nil, 64))  // segmentRows
	hdr.Write(le.AppendUint16(nil, 1))   // ncols
	hdr.Write(le.AppendUint64(nil, 0))   // walKeepSeq
	if err := persistHeader(&colhdr, "c", reflect.Int64, NoIndex, core.Options{}, 2); err != nil {
		t.Fatal(err)
	}
	img := le.AppendUint16([]byte(tableMagic), tableVersionCRC)
	img = append(img, framed(hdr.Bytes())...)
	img = append(img, framed(colhdr.Bytes())...)
	for _, rows := range []int{63, 63} { // sealed segment short by one row, tail as declared
		var slab bytes.Buffer
		if err := colfile.Write(&slab, make([]int64, rows)); err != nil {
			t.Fatal(err)
		}
		img = append(img, framed(slab.Bytes())...)
		img = append(img, framed([]byte{0})...) // hasIndex = 0
	}

	_, err := Read(bytes.NewReader(img))
	var cse *CorruptSegmentError
	if !errors.As(err, &cse) {
		t.Fatalf("underfull sealed segment: got %v, want a *CorruptSegmentError", err)
	}
	if cse.Section != secSlab || cse.Column != "c" || cse.Segment != 0 || cse.Got != cse.Want {
		t.Errorf("underfull sealed segment reported as %+v", cse)
	}
	got, rep, err := ReadWithOptions(bytes.NewReader(img), LoadOptions{Quarantine: true})
	if err != nil {
		t.Fatalf("quarantine load: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Segment != 0 || rep.Quarantined[0].Rows != 64 {
		t.Fatalf("casualties = %+v, want segment 0 with 64 rows", rep.Quarantined)
	}
	if got.Rows() != 127 || got.LiveRows() != 63 {
		t.Errorf("rows %d live %d, want 127 and 63", got.Rows(), got.LiveRows())
	}
	if _, err := got.ReadRow(100); err != nil {
		t.Errorf("ReadRow(100) in the intact tail: %v", err)
	}
}

// TestHostileDeclaredLengths crafts sections whose checksums verify but
// whose length fields claim far more than the section holds. Each must
// come back as a typed error naming the section — and quarantine like
// any decode failure — without the declared size ever being allocated
// (the unfixed reader died in "fatal error: out of memory", which no
// recover contains).
func TestHostileDeclaredLengths(t *testing.T) {
	tb := mkPersistTable(t, 160)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	frames := walkFrames(t, img)
	payload := func(fr frame) []byte { return append([]byte(nil), img[fr.payload:fr.payload+fr.n]...) }
	le := binary.LittleEndian

	// qty segment 1's slab: nothing but a colfile header declaring 2^37 rows.
	slab := payload(frames[4])[:15]
	le.PutUint64(slab[7:], 1<<37)
	// city segment 0's dict: the first symbol claims 1 GiB.
	dict := payload(frames[9])
	le.PutUint32(dict[4:], 1<<30)
	// qty segment 2's index image: dictLen (after the flag, the 25-byte
	// fixed head and 64 borders) claims 2^39 entries.
	image := payload(frames[7])
	le.PutUint64(image[1+25+64*8:], 1<<39)

	for _, tc := range []struct {
		name    string
		frame   int
		payload []byte
		want    QuarantinedSegment
	}{
		{"slab rows", 4, slab, QuarantinedSegment{Shard: -1, Column: "qty", Segment: 1, Section: secSlab, Rows: 64}},
		{"symbol length", 9, dict, QuarantinedSegment{Shard: -1, Column: "city", Segment: 0, Section: secDict, Rows: 64}},
		{"index dictLen", 7, image, QuarantinedSegment{Shard: -1, Column: "qty", Segment: 2, Section: secIndex, Rows: 32}},
	} {
		bad := spliceSection(img, frames[tc.frame], tc.payload)
		_, err := Read(bytes.NewReader(bad))
		var cse *CorruptSegmentError
		if !errors.As(err, &cse) {
			t.Fatalf("%s: got %v, want a *CorruptSegmentError", tc.name, err)
		}
		if cse.Section != tc.want.Section || cse.Column != tc.want.Column || cse.Segment != tc.want.Segment || cse.Got != cse.Want {
			t.Errorf("%s: reported as %+v", tc.name, cse)
		}
		got, rep, err := ReadWithOptions(bytes.NewReader(bad), LoadOptions{Quarantine: true})
		if err != nil {
			t.Fatalf("%s: quarantine load: %v", tc.name, err)
		}
		if len(rep.Quarantined) != 1 {
			t.Fatalf("%s: casualties = %+v", tc.name, rep.Quarantined)
		}
		q := rep.Quarantined[0]
		q.Err = ""
		if q != tc.want {
			t.Errorf("%s: casualty %+v, want %+v", tc.name, q, tc.want)
		}
		if lr := got.LiveRows(); lr != 160-tc.want.Rows {
			t.Errorf("%s: LiveRows = %d, want %d", tc.name, lr, 160-tc.want.Rows)
		}
	}
}

// TestImagelessSegmentKeepsBuildOptions pins that a segment persisted
// without an index image is re-indexed with the column's persisted
// build options, not the defaults.
func TestImagelessSegmentKeepsBuildOptions(t *testing.T) {
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64})
	qty := make([]int64, 100)
	for i := range qty {
		qty[i] = int64(i * 7 % 101)
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{ValuesPerCacheline: 16, MaxBins: 8}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Sections: header, colhdr, then slab/index per segment.
	got, err := Read(bytes.NewReader(spliceSection(img, walkFrames(t, img)[3], []byte{0})))
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 2; seg++ {
		ix, err := SegmentIndex[int64](got, "qty", seg)
		if err != nil || ix == nil {
			t.Fatalf("segment %d: index %v, err %v", seg, ix, err)
		}
		if ix.ValuesPerCacheline() != 16 || ix.Bins() > 8 {
			t.Errorf("segment %d: reloaded index has %d values/cacheline and %d bins, want 16 and at most 8",
				seg, ix.ValuesPerCacheline(), ix.Bins())
		}
	}
}

// fixtureData is the seeded content of testdata/image-v5.ctbl (one
// table) and image-v6.ctbl (two shards): 300 rows at 128 rows/segment,
// written by the commit before the legacy readers were deleted (the
// generator is in .claude/skills/verify/SKILL.md).
func fixtureData() ([]int64, []string) {
	cities := []string{"Amsterdam", "Berlin", "Lisbon", "Oslo", "Rome", "Zagreb"}
	rng := rand.New(rand.NewPCG(20, 5))
	qty := make([]int64, 300)
	city := make([]string, 300)
	for i := range qty {
		qty[i] = rng.Int64N(1000)
		city[i] = cities[rng.IntN(len(cities))]
	}
	return qty, city
}

// TestImageFixtures pins the on-disk format against committed images:
// each loads with the seeded values, answers a mixed query, and Write
// reproduces it byte for byte.
func TestImageFixtures(t *testing.T) {
	qty, city := fixtureData()
	var want []uint32
	for i := range qty {
		if qty[i] >= 400 && (city[i] == "Oslo" || city[i] == "Rome") {
			want = append(want, uint32(i))
		}
	}
	for _, f := range []struct {
		file    string
		version uint16
		shards  int
	}{{"image-v5.ctbl", tableVersionCRC, 0}, {"image-v6.ctbl", shardVersionCRC, 2}} {
		img, err := os.ReadFile(filepath.Join("testdata", f.file))
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(img[4:]); v != f.version {
			t.Fatalf("%s: version %d, want %d", f.file, v, f.version)
		}
		tb, err := Read(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("%s: %v", f.file, err)
		}
		shards := 0
		if tb.shard != nil {
			shards = tb.shard.nshards
		}
		if tb.Name() != "orders" || tb.Rows() != 300 || tb.SegmentRows() != 128 || shards != f.shards {
			t.Fatalf("%s: loaded %q, %d rows at %d rows/segment, %d shards",
				f.file, tb.Name(), tb.Rows(), tb.SegmentRows(), shards)
		}
		gotQty, err := Column[int64](tb, "qty")
		if err != nil || !slices.Equal(gotQty, qty) {
			t.Errorf("%s: qty differs from the seeded values (err %v)", f.file, err)
		}
		gotCity, err := tb.StringColumn("city")
		if err != nil || !slices.Equal(gotCity, city) {
			t.Errorf("%s: city differs from the seeded values (err %v)", f.file, err)
		}
		ids, st, err := tb.Select().Where(And(AtLeast[int64]("qty", 400), StrIn("city", "Oslo", "Rome"))).IDs()
		if err != nil {
			t.Fatal(err)
		}
		equalIDs(t, ids, want, f.file+" mixed query")
		if st.Probes == 0 {
			t.Errorf("%s: persisted imprints did not probe", f.file)
		}
		var again bytes.Buffer
		if err := tb.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), img) {
			t.Errorf("%s: Read then Write does not reproduce the fixture (%d vs %d bytes)", f.file, again.Len(), len(img))
		}
	}
}

// walkColumn is n values of a random walk in V, the clustered shape
// imprints compress.
func walkColumn[V coltype.Value](n int, rng *rand.Rand) []V {
	col := make([]V, n)
	v := 0
	for i := range col {
		v += rng.IntN(7) - 3
		col[i] = V(v)
	}
	return col
}

// BenchmarkOpen opens a temp-file image of eight default-size segments
// per column, one column of each numeric type and one string column,
// and reports the image bytes loaded per second.
func BenchmarkOpen(b *testing.B) {
	const rows = 8 * DefaultSegmentRows
	rng := rand.New(rand.NewPCG(45, 1))
	tb := New("orders")
	opts := core.Options{Seed: 1}
	for _, err := range []error{
		AddColumn(tb, "i8", walkColumn[int8](rows, rng), Imprints, opts),
		AddColumn(tb, "i16", walkColumn[int16](rows, rng), Imprints, opts),
		AddColumn(tb, "i32", walkColumn[int32](rows, rng), Imprints, opts),
		AddColumn(tb, "i64", walkColumn[int64](rows, rng), Imprints, opts),
		AddColumn(tb, "u8", walkColumn[uint8](rows, rng), Imprints, opts),
		AddColumn(tb, "u16", walkColumn[uint16](rows, rng), Imprints, opts),
		AddColumn(tb, "u32", walkColumn[uint32](rows, rng), Imprints, opts),
		AddColumn(tb, "u64", walkColumn[uint64](rows, rng), Imprints, opts),
		AddColumn(tb, "f32", walkColumn[float32](rows, rng), Imprints, opts),
		AddColumn(tb, "f64", walkColumn[float64](rows, rng), Imprints, opts),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	cities := []string{"Amsterdam", "Berlin", "Lisbon", "Oslo", "Rome"}
	city := make([]string, rows)
	for i := range city {
		city[i] = cities[rng.IntN(len(cities))]
	}
	if err := tb.AddStringColumn("city", city, Imprints, opts); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "orders.ctbl")
	if err := tb.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		got, _, err := Open(path, LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if got.Rows() != rows {
			b.Fatalf("%d rows, want %d", got.Rows(), rows)
		}
	}
}
