package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// mkPersistTable builds a deterministic two-column (int64 + string)
// table spanning several segments at 64 rows/segment.
func mkPersistTable(t *testing.T, rows int) *Table {
	t.Helper()
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64})
	qty := make([]int64, rows)
	city := make([]string, rows)
	cities := []string{"Amsterdam", "Berlin", "Oslo", "Rome"}
	for i := 0; i < rows; i++ {
		qty[i] = int64(i % 97)
		city[i] = cities[i%len(cities)]
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// frame is one [len][payload][crc] section located inside an image.
type frame struct {
	payload int // offset of the payload
	n       int // payload length
}

// walkFrames walks the section frames of an image starting just past
// its magic+version prefix (or of a v5 image embedded in a v6
// envelope).
func walkFrames(t *testing.T, img []byte) []frame {
	t.Helper()
	off := 6 // magic (4) + version (2)
	var out []frame
	for off < len(img) {
		if off+4 > len(img) {
			t.Fatalf("frame walk: truncated length prefix at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(img[off:]))
		if off+4+n+4 > len(img) {
			t.Fatalf("frame walk: section at %d overruns image (%d payload bytes)", off, n)
		}
		out = append(out, frame{payload: off + 4, n: n})
		off += 4 + n + 4
	}
	return out
}

// secRef is the provenance a corrupted section must be reported with.
type secRef struct {
	col     string
	seg     int
	section string
}

// v5SectionRefs is the section sequence of mkPersistTable's image:
// colhdr corruption is detected before the column name is parsed, so
// those errors carry an empty column name.
func v5SectionRefs(nsegs int) []secRef {
	refs := []secRef{{"", -1, secHeader}, {"", -1, secColHdr}}
	for i := 0; i < nsegs; i++ {
		refs = append(refs, secRef{"qty", i, secSlab}, secRef{"qty", i, secIndex})
	}
	refs = append(refs, secRef{"", -1, secColHdr})
	for i := 0; i < nsegs; i++ {
		refs = append(refs, secRef{"city", i, secDict}, secRef{"city", i, secIndex})
	}
	return refs
}

// flipBit returns a copy of img with one bit flipped inside fr's
// payload.
func flipBit(img []byte, fr frame) []byte {
	bad := append([]byte(nil), img...)
	bad[fr.payload+fr.n/2] ^= 0x40
	return bad
}

// TestPersistCorruptEverySection flips one bit in every section of a
// v5 image and asserts each load fails loud with a typed
// *CorruptSegmentError naming exactly the damaged section.
func TestPersistCorruptEverySection(t *testing.T) {
	tb := mkPersistTable(t, 160) // 3 segments: 64+64+32
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if v := binary.LittleEndian.Uint16(img[4:]); v != tableVersionCRC {
		t.Fatalf("image version %d, want %d", v, tableVersionCRC)
	}
	frames := walkFrames(t, img)
	refs := v5SectionRefs(3)
	if len(frames) != len(refs) {
		t.Fatalf("image has %d sections, want %d", len(frames), len(refs))
	}
	for i, fr := range frames {
		want := refs[i]
		_, err := Read(bytes.NewReader(flipBit(img, fr)))
		if err == nil {
			t.Fatalf("section %d (%s %s): corrupt image loaded cleanly", i, want.col, want.section)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("section %d: error does not unwrap to ErrCorrupt: %v", i, err)
		}
		var cse *CorruptSegmentError
		if !errors.As(err, &cse) {
			t.Fatalf("section %d: error is not a *CorruptSegmentError: %v", i, err)
		}
		if cse.Section != want.section || cse.Column != want.col || cse.Segment != want.seg {
			t.Errorf("section %d: reported (col %q, seg %d, %s), want (col %q, seg %d, %s)",
				i, cse.Column, cse.Segment, cse.Section, want.col, want.seg, want.section)
		}
		if cse.Got == cse.Want {
			t.Errorf("section %d: checksum mismatch not carried in error: %v", i, cse)
		}
		if cse.Shard != -1 {
			t.Errorf("section %d: unsharded image reported shard %d", i, cse.Shard)
		}
	}
}

// TestPersistQuarantine corrupts two sections of the same segment in
// different columns and asserts a Quarantine load succeeds degraded:
// the segment's rows are marked deleted exactly once, the rest of the
// table serves unharmed, and the casualty list names both sections.
func TestPersistQuarantine(t *testing.T) {
	tb := mkPersistTable(t, 160)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	frames := walkFrames(t, img)
	// Section layout: 0 header, 1 qty colhdr, 2-7 qty slab/index x3,
	// 8 city colhdr, 9-14 city dict/index x3.
	bad := flipBit(img, frames[4]) // qty segment 1 slab
	bad = flipBit(bad, frames[12]) // city segment 1 index
	got, rep, err := ReadWithOptions(bytes.NewReader(bad), LoadOptions{Quarantine: true})
	if err != nil {
		t.Fatalf("quarantine load failed: %v", err)
	}
	if !rep.Degraded() || len(rep.Quarantined) != 2 {
		t.Fatalf("want 2 quarantined segments, got %+v", rep)
	}
	wantQ := []QuarantinedSegment{
		{Shard: -1, Column: "qty", Segment: 1, Section: secSlab, Rows: 64},
		{Shard: -1, Column: "city", Segment: 1, Section: secIndex, Rows: 64},
	}
	for i, want := range wantQ {
		q := rep.Quarantined[i]
		if q.Shard != want.Shard || q.Column != want.Column || q.Segment != want.Segment ||
			q.Section != want.Section || q.Rows != want.Rows {
			t.Errorf("casualty %d: got %+v, want %+v", i, q, want)
		}
		if q.Err == "" {
			t.Errorf("casualty %d: empty error text", i)
		}
	}
	if qs := got.Quarantined(); len(qs) != 2 {
		t.Errorf("table reports %d quarantined segments, want 2", len(qs))
	}
	// Segment 1 (rows 64..127) is deleted once, not once per casualty.
	if lr := got.LiveRows(); lr != 96 {
		t.Errorf("LiveRows = %d, want 96", lr)
	}
	if got.Rows() != 160 {
		t.Errorf("Rows = %d, want 160", got.Rows())
	}
	row, err := got.ReadRow(10)
	if err != nil {
		t.Fatalf("ReadRow(10): %v", err)
	}
	if row["qty"].(int64) != 10 || row["city"].(string) != "Oslo" {
		t.Errorf("row 10 = %v, want qty 10 city Oslo", row)
	}
	if _, err := got.ReadRow(70); err == nil {
		t.Error("ReadRow(70) of a quarantined segment succeeded")
	}
	row, err = got.ReadRow(150)
	if err != nil {
		t.Fatalf("ReadRow(150): %v", err)
	}
	if row["qty"].(int64) != int64(150%97) {
		t.Errorf("row 150 qty = %v, want %d", row["qty"], 150%97)
	}

	// A degraded table cannot re-persist (and launder the damage) while
	// its quarantined rows are pending deletes; Compact unblocks it.
	if err := got.Write(&bytes.Buffer{}); err == nil {
		t.Error("Write of a degraded table succeeded; want refusal on pending deletes")
	}
	got.Compact()
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatalf("Write after Compact: %v", err)
	}
	again, err := Read(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatalf("reload after Compact: %v", err)
	}
	if again.Rows() != 96 {
		t.Errorf("compacted reload has %d rows, want 96", again.Rows())
	}
}

// TestPersistQuarantineHeaderStillFatal asserts header and colhdr
// damage fails the load even under Quarantine: without them nothing
// downstream can be interpreted.
func TestPersistQuarantineHeaderStillFatal(t *testing.T) {
	tb := mkPersistTable(t, 160)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	frames := walkFrames(t, img)
	for _, tc := range []struct {
		frame   int
		section string
	}{
		{0, secHeader},
		{1, secColHdr},
		{8, secColHdr},
	} {
		_, _, err := ReadWithOptions(bytes.NewReader(flipBit(img, frames[tc.frame])), LoadOptions{Quarantine: true})
		if err == nil {
			t.Fatalf("corrupt %s section loaded under quarantine", tc.section)
		}
		var cse *CorruptSegmentError
		if !errors.As(err, &cse) || cse.Section != tc.section {
			t.Errorf("corrupt %s: got %v", tc.section, err)
		}
	}
}

// TestPersistCorruptSharded corrupts a v6 sharded envelope: envelope
// header damage and per-shard section damage must both surface as
// typed errors carrying the shard index, and quarantine must contain
// per-shard damage.
func TestPersistCorruptSharded(t *testing.T) {
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64, Shards: 2})
	rows := 100
	qty := make([]int64, rows)
	city := make([]string, rows)
	for i := 0; i < rows; i++ {
		qty[i] = int64(i)
		city[i] = fmt.Sprintf("c%d", i%5)
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if v := binary.LittleEndian.Uint16(img[4:]); v != shardVersionCRC {
		t.Fatalf("image version %d, want %d", v, shardVersionCRC)
	}

	// Envelope header: magic+version, then one framed section.
	hn := int(binary.LittleEndian.Uint32(img[6:]))
	_, err := Read(bytes.NewReader(flipBit(img, frame{payload: 10, n: hn})))
	var cse *CorruptSegmentError
	if !errors.As(err, &cse) || cse.Section != secHeader || cse.Shard != -1 {
		t.Fatalf("corrupt v6 header: got %v", err)
	}

	// Locate shard 1's embedded v5 image: after the header frame each
	// shard is a u64 length followed by that many image bytes.
	off := 6 + 4 + hn + 4
	n0 := int(binary.LittleEndian.Uint64(img[off:]))
	off1 := off + 8 + n0
	n1 := int(binary.LittleEndian.Uint64(img[off1:]))
	v5start := off1 + 8
	sub := walkFrames(t, img[v5start:v5start+n1])
	// Shard 1's qty slab, segment 0: header, colhdr, slab.
	slab := frame{payload: v5start + sub[2].payload, n: sub[2].n}

	_, err = Read(bytes.NewReader(flipBit(img, slab)))
	if !errors.As(err, &cse) {
		t.Fatalf("corrupt shard slab: got %v", err)
	}
	if cse.Shard != 1 || cse.Column != "qty" || cse.Segment != 0 || cse.Section != secSlab {
		t.Errorf("corrupt shard slab reported as %+v", cse)
	}

	got, rep, err := ReadWithOptions(bytes.NewReader(flipBit(img, slab)), LoadOptions{Quarantine: true})
	if err != nil {
		t.Fatalf("sharded quarantine load: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Shard != 1 {
		t.Fatalf("want one shard-1 casualty, got %+v", rep.Quarantined)
	}
	if lr, want := got.LiveRows(), got.Rows()-rep.Quarantined[0].Rows; lr != want {
		t.Errorf("LiveRows = %d, want %d", lr, want)
	}
}

// uniformPersistTable builds a table whose every qty value is v, so a
// reopened image is attributable to exactly one writer.
func uniformPersistTable(t *testing.T, v int64) *Table {
	t.Helper()
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64})
	qty := make([]int64, 100)
	city := make([]string, 100)
	for i := range qty {
		qty[i] = v
		city[i] = fmt.Sprintf("city-%d", v)
	}
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestWriteFileAtomic crashes WriteFile at every injection point and
// asserts the durable image afterwards is always loadable and always
// exactly the old or the new table — never a torn mix.
func TestWriteFileAtomic(t *testing.T) {
	for _, mode := range []faultfs.Mode{faultfs.FailError, faultfs.FailTorn} {
		mem := faultfs.NewMemFS()
		inj := faultfs.NewInjector(mem)
		tbA := uniformPersistTable(t, 1)
		tbB := uniformPersistTable(t, 2)
		tbA.fsys, tbB.fsys = inj, inj
		const path = "orders.ctbl"

		if err := tbA.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		inj.Arm(0, mode) // unarmed, but reset the op counter
		if err := tbB.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		n := inj.Ops()
		if n < 4 {
			t.Fatalf("WriteFile took only %d mutating fs operations", n)
		}
		for k := 1; k <= n; k++ {
			inj.Arm(0, mode)
			if err := tbA.WriteFile(path); err != nil {
				t.Fatalf("mode %d k=%d: baseline write: %v", mode, k, err)
			}
			inj.Arm(k, mode)
			if err := tbB.WriteFile(path); err == nil {
				t.Fatalf("mode %d k=%d: armed WriteFile reported success", mode, k)
			}
			mem.Crash()
			inj.Arm(0, mode)
			got, _, err := Open(path, LoadOptions{FS: inj})
			if err != nil {
				t.Fatalf("mode %d k=%d: reopen after crash: %v\ndurable:\n%s", mode, k, err, mem.DumpDurable())
			}
			row, err := got.ReadRow(0)
			if err != nil {
				t.Fatalf("mode %d k=%d: %v", mode, k, err)
			}
			v := row["qty"].(int64)
			if v != 1 && v != 2 {
				t.Fatalf("mode %d k=%d: row 0 qty = %d, want 1 or 2", mode, k, v)
			}
			// The whole image must belong to one writer.
			for id := 0; id < got.Rows(); id += 13 {
				row, err := got.ReadRow(id)
				if err != nil {
					t.Fatalf("mode %d k=%d row %d: %v", mode, k, id, err)
				}
				if row["qty"].(int64) != v || row["city"].(string) != fmt.Sprintf("city-%d", v) {
					t.Fatalf("mode %d k=%d: torn image: row %d = %v amid qty %d", mode, k, id, row, v)
				}
			}
		}
	}
}

// shortFrameImage is a hostile image of a healthy header: two columns
// over three default-size segments (131,072 + 1,000 rows), every
// segment's payload and index section cut to an 8-byte frame with a
// wrong checksum, the header and colhdr sections intact: 317 bytes
// declare 133,072 rows in each column.
func shortFrameImage(t *testing.T) []byte {
	t.Helper()
	const rows = 2*DefaultSegmentRows + 1000
	qty, city := make([]int64, rows), make([]string, rows)
	for i := range qty {
		qty[i], city[i] = int64(i%97), []string{"Oslo", "Rome"}[i%2]
	}
	tb := New("orders")
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Section layout: 0 header, 1 qty colhdr, 2-7 qty slab/index x3,
	// 8 city colhdr, 9-14 city dict/index x3.
	frames := walkFrames(t, img)
	if len(frames) != 15 {
		t.Fatalf("%d sections, want 15", len(frames))
	}
	out := append([]byte(nil), img[:6]...)
	for i, fr := range frames {
		if i == 0 || i == 1 || i == 8 {
			out = append(out, img[fr.payload-4:fr.payload+fr.n+4]...)
			continue
		}
		out = binary.LittleEndian.AppendUint32(out, 8)
		out = append(out, make([]byte, 8)...)
		out = binary.LittleEndian.AppendUint32(out, 1) // the checksum of 8 zero bytes is not 1
	}
	return out
}

// TestQuarantineRefusesShortPayload holds quarantine to the bytes an
// image holds: a segment whose two frames hold fewer bytes than the
// values of its rows — the header's count — is refused with its
// CorruptSegmentError, not replaced by a placeholder of those rows;
// else twelve 16-byte frames would stand for 133,072 rows in each of
// two columns. A damaged segment of about its own size still
// quarantines (TestPersistQuarantine, TestRejectsUnderfullSealedSegment,
// TestHostileDeclaredLengths).
func TestQuarantineRefusesShortPayload(t *testing.T) {
	img := shortFrameImage(t)
	for _, quarantine := range []bool{false, true} {
		tb, _, err := ReadWithOptions(bytes.NewReader(img), LoadOptions{Quarantine: quarantine})
		var cse *CorruptSegmentError
		if !errors.As(err, &cse) || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("quarantine=%t: got table %v, error %v; want a *CorruptSegmentError", quarantine, tb != nil, err)
		}
		if cse.Column != "qty" || cse.Segment != 0 || cse.Section != secSlab {
			t.Errorf("quarantine=%t: error names %s segment %d section %s, want qty segment 0 slab",
				quarantine, cse.Column, cse.Segment, cse.Section)
		}
	}
}

// setColHdrMode returns a copy of a v5 image whose colhdr section for
// column col declares index mode mode, its checksum refit: the mode
// byte follows the length-prefixed name and the kind byte.
func setColHdrMode(t *testing.T, img []byte, col string, mode byte) []byte {
	t.Helper()
	out := append([]byte(nil), img...)
	prefix := binary.LittleEndian.AppendUint16(nil, uint16(len(col)))
	prefix = append(prefix, col...)
	for _, fr := range walkFrames(t, out) {
		payload := out[fr.payload : fr.payload+fr.n]
		if !bytes.HasPrefix(payload, prefix) || len(payload) < len(prefix)+2 {
			continue
		}
		payload[len(prefix)+1] = mode
		binary.LittleEndian.PutUint32(out[fr.payload+fr.n:], crc32.Checksum(payload, crcTable))
		return out
	}
	t.Fatalf("no colhdr for column %q", col)
	return nil
}

// TestPersistedIndexMode pins the colhdr mode byte: Imprints is 0,
// NoIndex is 1, and any other value is colhdr damage, fatal with or
// without quarantine, and refused when a column is added. A NoIndex
// column round-trips as mode 1 and answers as a scan does.
func TestPersistedIndexMode(t *testing.T) {
	tb := mkPersistTable(t, 160)
	ts := make([]int64, 160)
	for i := range ts {
		ts[i] = int64(i * 7 % 160)
	}
	if err := AddColumn(tb, "bad", ts, IndexMode(2), core.Options{}); err == nil {
		t.Error("AddColumn accepted index mode 2")
	}
	if err := tb.AddStringColumn("bad", make([]string, 160), IndexMode(2), core.Options{}); err == nil {
		t.Error("AddStringColumn accepted index mode 2")
	}
	if err := AddColumn(tb, "ts", ts, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for col, want := range map[string]IndexMode{"qty": Imprints, "city": Imprints, "ts": NoIndex} {
		if got := setColHdrMode(t, img, col, byte(want)); !bytes.Equal(got, img) {
			t.Errorf("column %s: colhdr mode byte is not %d", col, want)
		}
	}

	got, err := Read(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	st, err := got.IndexStats("ts")
	if err != nil || st.Segments != 3 || st.IndexedSegments != 0 || st.SizeBytes != 0 {
		t.Errorf("reloaded NoIndex column: %+v, %v; want 3 segments, none indexed", st, err)
	}
	q := got.Select().Where(Range[int64]("ts", 20, 90))
	ids, _, err := q.IDs()
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for i, v := range ts {
		if v >= 20 && v < 90 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, ids, want, "reloaded NoIndex range")
	if plan, err := q.Explain(); err != nil || plan.Root.Access != "scan" || plan.Root.Reason != "" {
		t.Errorf("reloaded NoIndex leaf: plan %+v, %v; want a plain scan", plan.Root, err)
	}

	for _, col := range []string{"ts", "qty", "city"} {
		bad := setColHdrMode(t, img, col, 2)
		for _, quarantine := range []bool{false, true} {
			tb, _, err := ReadWithOptions(bytes.NewReader(bad), LoadOptions{Quarantine: quarantine})
			var cse *CorruptSegmentError
			if !errors.As(err, &cse) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s mode 2, quarantine=%t: got table %v, error %v; want a *CorruptSegmentError",
					col, quarantine, tb != nil, err)
			}
			if cse.Section != secColHdr || cse.Column != col || !strings.Contains(err.Error(), "invalid index mode 2") {
				t.Errorf("%s mode 2, quarantine=%t: %v; want the %s colhdr's invalid index mode 2", col, quarantine, err, col)
			}
		}
	}
}
