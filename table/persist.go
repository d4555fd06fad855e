package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/colfile"
	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/faultfs"
)

// Persistence: a table has one on-disk layout, written by Write and
// loaded by Read. Every logical unit travels in its own framed section
//
//	section = len uint32, payload, crc32c(payload) uint32
//
// so a flipped bit is caught at load time and named (table, shard,
// column, segment, section) instead of surfacing as a wrong query
// answer or a panic deep in deserialization. All integers are little
// endian.
//
//	image (version 5):
//	  magic "CTBL", version uint16
//	  "header" section:
//	    nameLen uint16, name bytes
//	    rows uint64, segmentRows uint32, ncols uint16
//	    walKeepSeq uint64 (the WAL checkpoint the image embodies)
//	  per column:
//	    "colhdr" section:
//	      nameLen uint16, name bytes
//	      kind uint8 (reflect.Kind), mode uint8 (IndexMode)
//	      build options: sampleSize uint32, seed uint64, countDup uint8,
//	                     valuesPerCacheline uint32, maxBins uint32
//	      nsegs uint32 (exactly ceil(rows / segmentRows))
//	    per segment, every one but the last holding segmentRows rows:
//	      numeric kinds: "slab" section — the values in colfile format
//	      string kind:   "dict" section — nsymbols uint32, per symbol
//	                     len uint32 + bytes, then the codes in colfile
//	                     int32 format
//	      "index" section — hasIndex uint8; if 1, the imprint image
//	                     (core serialization)
//
//	sharded envelope (version 6):
//	  magic "CTBL", version uint16
//	  "header" section: nameLen uint16, name bytes, segmentRows uint32,
//	                    nshards uint16 (at least 2)
//	  per shard: byte length uint64, then that shard's complete
//	             version-5 image (magic and all)
//
// Deleted-row marks are not persisted: Compact before Write (Write
// refuses otherwise, keeping load semantics unambiguous).
//
// Corruption is fatal by default; with LoadOptions.Quarantine, damage
// confined to a segment's slab/dict/index sections is contained: the
// segment is replaced by a placeholder of the right shape, its rows
// are marked deleted, and the load succeeds degraded with the casualty
// list in the LoadReport. Header and colhdr corruption stays fatal —
// without them nothing downstream can be interpreted. Since Write
// refuses tables with pending deletes, a degraded table cannot be
// re-persisted (and the damage silently laundered) without an explicit
// Compact first.
const (
	tableMagic      = "CTBL"
	tableVersionCRC = 5
	shardVersionCRC = 6
	// maxSectionBytes bounds a section's declared length so a corrupt
	// frame cannot demand an absurd allocation. Sections are at most
	// segment-sized; 1 GiB is generous beyond any real image.
	maxSectionBytes = 1 << 30
)

// Section names as they appear in errors and quarantine reports.
const (
	secHeader = "header"
	secColHdr = "colhdr"
	secSlab   = "slab"
	secDict   = "dict"
	secIndex  = "index"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an invalid persisted table.
var ErrCorrupt = errors.New("table: corrupt persisted table")

// CorruptSegmentError reports checksum or decode failure in one
// persisted section, pinpointing the storage unit it covers. It
// unwraps to ErrCorrupt, so errors.Is(err, ErrCorrupt) keeps working.
type CorruptSegmentError struct {
	Table   string
	Shard   int    // -1 for unsharded tables
	Column  string // empty for the table header section
	Segment int    // -1 for header/colhdr sections
	Section string // "header", "colhdr", "slab", "dict", "index"
	Got     uint32 // computed checksum; Got == Want when the payload
	Want    uint32 // verified but failed structural decoding
	Err     error
}

func (e *CorruptSegmentError) Error() string {
	loc := fmt.Sprintf("table %s", e.Table)
	if e.Shard >= 0 {
		loc += fmt.Sprintf(", shard %d", e.Shard)
	}
	if e.Column != "" {
		loc += fmt.Sprintf(", column %s", e.Column)
	}
	if e.Segment >= 0 {
		loc += fmt.Sprintf(", segment %d", e.Segment)
	}
	if e.Got != e.Want {
		return fmt.Sprintf("%s: %s section checksum mismatch (got %08x, want %08x): %v",
			loc, e.Section, e.Got, e.Want, e.Err)
	}
	return fmt.Sprintf("%s: %s section invalid: %v", loc, e.Section, e.Err)
}

func (e *CorruptSegmentError) Unwrap() error { return ErrCorrupt }

// QuarantinedSegment describes one segment replaced by a placeholder
// during a Quarantine load; its rows are marked deleted.
type QuarantinedSegment struct {
	Shard   int    `json:"shard"` // -1 for unsharded tables
	Column  string `json:"column"`
	Segment int    `json:"segment"`
	Section string `json:"section"`
	Rows    int    `json:"rows"`
	Err     string `json:"error"`
}

// LoadOptions controls how persisted images are loaded.
type LoadOptions struct {
	// Quarantine loads past segment-level corruption: damaged segments
	// are replaced by placeholders with their rows marked deleted, and
	// reported in the LoadReport instead of failing the load.
	Quarantine bool
	// FS is the filesystem Open reads through (nil means the real one).
	FS faultfs.FS
}

// LoadReport describes what a load had to tolerate.
type LoadReport struct {
	Quarantined []QuarantinedSegment `json:"quarantined,omitempty"`
}

// Degraded reports whether any segment was quarantined.
func (r *LoadReport) Degraded() bool { return r != nil && len(r.Quarantined) > 0 }

// Quarantined returns the casualty list recorded when this table was
// loaded degraded (LoadOptions.Quarantine); empty for healthy tables.
func (t *Table) Quarantined() []QuarantinedSegment {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]QuarantinedSegment(nil), t.quarantined...)
}

// ---- section framing ----

// writeSection frames one section: the payload produced by fill is
// length-prefixed and trailed by its CRC32-C.
func writeSection(w io.Writer, fill func(*bytes.Buffer) error) error {
	var buf bytes.Buffer
	if err := fill(&buf); err != nil {
		return err
	}
	var word [4]byte
	binary.LittleEndian.PutUint32(word[:], uint32(buf.Len()))
	if _, err := w.Write(word[:]); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(word[:], crc32.Checksum(buf.Bytes(), crcTable))
	_, err := w.Write(word[:])
	return err
}

// crcMismatch is the error verify returns when a section was framed
// intact but its checksum did not verify; the caller wraps it with
// location context (and may quarantine, since the stream position is
// still good). Any other read error means the framing itself failed: the
// stream position is lost, which is always fatal.
type crcMismatch struct{ got, want uint32 }

func (e *crcMismatch) Error() string {
	return fmt.Sprintf("checksum mismatch (got %08x, want %08x)", e.got, e.want)
}

// sectionChunk bounds how far a section buffer may run ahead of the
// bytes that have arrived. The value slab of a default-size segment
// fits in one chunk.
const sectionChunk = 1 << 20

// readFrame reads one framed section without verifying it: the payload,
// in a buffer of exactly its length, and the checksum its frame carries.
func readFrame(r io.Reader) (payload []byte, sum uint32, err error) {
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(word[:])
	if n > maxSectionBytes {
		return nil, 0, fmt.Errorf("section of %d bytes exceeds limit", n)
	}
	if payload, err = readPayload(r, int(n)); err != nil {
		return nil, 0, err
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, 0, err
	}
	return payload, binary.LittleEndian.Uint32(word[:]), nil
}

// frameBufs recycles the buffers segment frames are read into. A load
// keeps only a few segments in flight, so the next frame mostly reuses
// the buffer of one already decoded instead of allocating (and zeroing)
// a fresh one.
var frameBufs sync.Pool // of *[]byte

// frameBuf returns a buffer of n bytes, recycled when the pool offers
// one large enough.
func frameBuf(n int) []byte {
	if p, _ := frameBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// recycleFrame hands a frame's buffer back once nothing references it.
func recycleFrame(b []byte) {
	if cap(b) > 0 {
		frameBufs.Put(&b)
	}
}

// readPayload reads n bytes chunk by chunk, taking each chunk only once
// the one before it has filled, so a corrupt length against a short
// input fails having allocated at most one chunk past the bytes the
// input holds. A payload of one chunk is read straight into its final
// buffer; a longer one is joined once it is whole. A short input is
// io.EOF however many bytes it held.
func readPayload(r io.Reader, n int) ([]byte, error) {
	var chunks [][]byte
	for got := 0; got < n; {
		c := frameBuf(min(sectionChunk, n-got))
		if _, err := io.ReadFull(r, c); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = io.EOF
			}
			return nil, err
		}
		chunks = append(chunks, c)
		got += len(c)
	}
	if len(chunks) == 1 {
		return chunks[0], nil
	}
	whole := bytes.Join(chunks, nil)
	for _, c := range chunks {
		recycleFrame(c)
	}
	return whole, nil
}

// verify checks a payload against the checksum its frame carries.
func verify(payload []byte, sum uint32) error {
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return &crcMismatch{got: got, want: sum}
	}
	return nil
}

// readSection reads and verifies one framed section. On a checksum
// mismatch the payload is returned together with a *crcMismatch error.
func readSection(r io.Reader) ([]byte, error) {
	payload, sum, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	return payload, verify(payload, sum)
}

// loadCtx threads load policy and provenance (which shard is being
// decoded) through the reader call tree.
type loadCtx struct {
	opts  LoadOptions
	shard int // -1 outside a sharded envelope
	rep   *LoadReport
	table string // outermost table name, for error messages
}

// sectionError wraps a readSection/decode failure into a typed
// *CorruptSegmentError with full provenance.
func sectionError(ctx *loadCtx, col string, seg int, section string, err error) *CorruptSegmentError {
	e := &CorruptSegmentError{
		Table: ctx.table, Shard: ctx.shard, Column: col, Segment: seg,
		Section: section, Err: err,
	}
	var cm *crcMismatch
	if errors.As(err, &cm) {
		e.Got, e.Want = cm.got, cm.want
	}
	return e
}

func writeString(w io.Writer, s string) error {
	if len(s) > 1<<16-1 {
		return fmt.Errorf("name too long")
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// ---- write side ----

// Write persists the table: checksummed sections carrying per-segment
// column payloads plus index images (a sharded table writes the
// envelope of its shards' images). Tables with pending deletes must be
// compacted first. Buffered delta rows are folded into columnar storage
// first (under the exclusive lock, so no committed row races past the
// image) and, with a WAL attached, the log is cut under the same lock so
// the image carries its own checkpoint watermark.
func (t *Table) Write(w io.Writer) error {
	if t.shard != nil {
		return t.writeSharded(w)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushAllLocked()
	if err := t.walCutLocked(); err != nil {
		return err
	}
	return t.writeLocked(w)
}

// writePrefix writes the magic and version every image starts with.
func writePrefix(w io.Writer, version uint16) error {
	if _, err := io.WriteString(w, tableMagic); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, version)
}

//imprintvet:locks held=mu.R
func (t *Table) writeLocked(w io.Writer) error {
	if t.ndel > 0 {
		return fmt.Errorf("table %s: compact before persisting (%d deleted rows pending)", t.name, t.ndel)
	}
	bw := bufio.NewWriter(w)
	if err := writePrefix(bw, tableVersionCRC); err != nil {
		return err
	}
	if err := writeSection(bw, func(buf *bytes.Buffer) error {
		if err := writeString(buf, t.name); err != nil {
			return err
		}
		for _, v := range []any{
			uint64(t.rows), uint32(t.segRows), uint16(len(t.order)), t.walKeepSeqLocked(),
		} {
			if err := binary.Write(buf, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, name := range t.order {
		if err := t.cols[name].persist(bw); err != nil {
			return fmt.Errorf("table %s, column %s: %w", t.name, name, err)
		}
	}
	return bw.Flush()
}

// writeOptions persists a column's build options so indexes rebuilt
// after loading (re-encode, Maintain, compact) keep their configured
// sampling and binning.
func writeOptions(w io.Writer, o core.Options) error {
	dup := uint8(0)
	if o.CountDuplicates {
		dup = 1
	}
	for _, v := range []any{
		uint32(o.SampleSize), o.Seed, dup,
		uint32(o.ValuesPerCacheline), uint32(o.MaxBins),
	} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

// persistHeader writes the colhdr payload: name, kind, mode, options,
// segment count.
func persistHeader(w io.Writer, name string, kind reflect.Kind, mode IndexMode, opts core.Options, nsegs int) error {
	if err := writeString(w, name); err != nil {
		return err
	}
	kb := [2]byte{uint8(kind), uint8(mode)}
	if _, err := w.Write(kb[:]); err != nil {
		return err
	}
	if err := writeOptions(w, opts); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(nsegs))
}

// writeIndexImage writes the hasIndex flag and, when present, the index
// image itself.
func writeIndexImage[V coltype.Value](w io.Writer, ix *core.Index[V]) error {
	hasIx := byte(0)
	if ix != nil {
		hasIx = 1
	}
	if _, err := w.Write([]byte{hasIx}); err != nil {
		return err
	}
	if ix != nil {
		return ix.Write(w)
	}
	return nil
}

// persist is part of anyColumn: the column's sectioned image.
//
//imprintvet:locks held=mu.R
func (c *colState[V]) persist(w io.Writer) error {
	var zero V
	if err := writeSection(w, func(buf *bytes.Buffer) error {
		return persistHeader(buf, c.name, reflect.TypeOf(zero).Kind(), c.mode, c.vpcOpts, len(c.segs))
	}); err != nil {
		return err
	}
	for _, s := range c.segs {
		if err := writeSection(w, func(buf *bytes.Buffer) error {
			return colfile.Write(buf, s.vals)
		}); err != nil {
			return err
		}
		if err := writeSection(w, func(buf *bytes.Buffer) error {
			return writeIndexImage(buf, s.ix)
		}); err != nil {
			return err
		}
	}
	return nil
}

//imprintvet:locks held=mu.R
func (c *strColState) persist(w io.Writer) error {
	if err := writeSection(w, func(buf *bytes.Buffer) error {
		return persistHeader(buf, c.name, reflect.String, c.mode, c.vpcOpts, len(c.segs))
	}); err != nil {
		return err
	}
	for _, s := range c.segs {
		if err := writeSection(w, func(buf *bytes.Buffer) error {
			return persistDict(buf, s)
		}); err != nil {
			return err
		}
		if err := writeSection(w, func(buf *bytes.Buffer) error {
			return writeIndexImage(buf, s.ix)
		}); err != nil {
			return err
		}
	}
	return nil
}

// persistDict writes one string segment's dict payload: symbol table
// plus codes.
func persistDict(w io.Writer, s *strSegment) error {
	card := s.dict.Cardinality()
	if err := binary.Write(w, binary.LittleEndian, uint32(card)); err != nil {
		return err
	}
	for code := 0; code < card; code++ {
		sym := s.dict.Symbol(int32(code))
		if err := binary.Write(w, binary.LittleEndian, uint32(len(sym))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, sym); err != nil {
			return err
		}
	}
	return colfile.Write(w, s.codes())
}

// ---- read side ----

// Read loads a table persisted with Write. Corruption is fatal; use
// ReadWithOptions to quarantine instead.
//
// Each byte of r is read once, into a section buffer of exactly its
// length, and decoded from there. Segments are verified and decoded on
// GOMAXPROCS goroutines, with at most two per goroutine read but not yet
// installed, so peak memory is the decoded table plus those raw
// segments. Errors come in stream order: the first damage in the image
// is the one reported, at any GOMAXPROCS.
func Read(r io.Reader) (*Table, error) {
	t, _, err := ReadWithOptions(r, LoadOptions{})
	return t, err
}

// ReadWithOptions loads a table persisted with Write, applying the
// given load policy. With Quarantine set, segment-level corruption is
// tolerated: the table loads degraded (damaged segments emptied, their
// rows marked deleted) and the report lists the casualties in stream
// order. It reads and decodes as Read does.
func ReadWithOptions(r io.Reader, opts LoadOptions) (*Table, *LoadReport, error) {
	ctx := &loadCtx{opts: opts, shard: -1, rep: &LoadReport{}}
	t, err := readInternal(bufio.NewReader(r), ctx)
	if err != nil {
		return nil, nil, err
	}
	t.quarantined = ctx.rep.Quarantined
	return t, ctx.rep, nil
}

// readInternal parses magic and version and dispatches to the table or
// the envelope reader, threading the load policy through.
func readInternal(br io.Reader, ctx *loadCtx) (*Table, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch version {
	case tableVersionCRC:
		return readTable(br, ctx)
	case shardVersionCRC:
		return readEnvelope(br, ctx)
	case 2, 3, 4:
		return nil, fmt.Errorf("%w: unsupported version %d (the image predates checksummed persistence)", ErrCorrupt, version)
	}
	return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
}

// readTable loads one table image; the caller consumed magic+version.
func readTable(r io.Reader, ctx *loadCtx) (*Table, error) {
	hdr, err := readSection(r)
	if err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	hr := bytes.NewReader(hdr)
	name, err := readString(hr)
	if err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	if ctx.table == "" {
		ctx.table = name
	}
	var rows uint64
	var sr uint32
	var ncols uint16
	var keepSeq uint64
	for _, v := range []any{&rows, &sr, &ncols, &keepSeq} {
		if err := binary.Read(hr, binary.LittleEndian, v); err != nil {
			return nil, sectionError(ctx, "", -1, secHeader, err)
		}
	}
	if hr.Len() != 0 {
		return nil, sectionError(ctx, "", -1, secHeader, fmt.Errorf("%d trailing bytes", hr.Len()))
	}
	t := NewWithOptions(name, TableOptions{SegmentRows: int(sr)})
	if t.segRows != int(sr) {
		return nil, fmt.Errorf("%w: segment size %d is not a whole number of blocks", ErrCorrupt, sr)
	}
	t.walKeepSeq = keepSeq
	nq := len(ctx.rep.Quarantined)
	for i := 0; i < int(ncols); i++ {
		if err := readColumn(t, r, rows, ctx); err != nil {
			return nil, err
		}
	}
	if t.rows != int(rows) {
		return nil, fmt.Errorf("%w: header says %d rows, columns carry %d", ErrCorrupt, rows, t.rows)
	}
	if len(ctx.rep.Quarantined) > nq {
		markQuarantined(t, ctx.rep.Quarantined[nq:])
	}
	return t, nil
}

// markQuarantined marks every row of each quarantined segment deleted,
// once per segment even when several columns lost it.
func markQuarantined(t *Table, qs []QuarantinedSegment) {
	del := bitvec.New(t.rows)
	for _, q := range qs {
		base := q.Segment * t.segRows
		for id := base; id < base+q.Rows; id++ {
			if !del.Get(id) {
				del.Set(id)
				t.ndel++
			}
		}
	}
	//imprintvet:allow snapshotsafe loading into a freshly constructed table, not yet shared
	t.deleted = del
}

func readOptions(r io.Reader) (core.Options, error) {
	var sample, vpc, maxBins uint32
	var seed uint64
	var dup uint8
	for _, v := range []any{&sample, &seed, &dup, &vpc, &maxBins} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return core.Options{}, err
		}
	}
	return core.Options{
		SampleSize:         int(sample),
		Seed:               seed,
		CountDuplicates:    dup == 1,
		ValuesPerCacheline: int(vpc),
		MaxBins:            int(maxBins),
	}, nil
}

// segmentLoader is the per-type half of readColumn's segment loop,
// the read-side counterpart of persist.
type segmentLoader interface {
	anyColumn
	// loadSegment turns one segment's verified payload and index
	// sections into a sealed segment of exactly fill rows (ready for
	// installSealed), or names the section whose decoding failed. It
	// keeps no reference to either section: their buffers are reused.
	loadSegment(payload, image []byte, fill int) (seg any, section string, err error)
	// placeholderSegment builds the stand-in for a quarantined segment:
	// fill zero values, indexed like any other segment of the column.
	placeholderSegment(fill int) any
	// placeholderBytes is what the values of a placeholder of fill rows
	// take.
	placeholderBytes(fill int) int
}

// newSegmentLoader builds the empty typed column a colhdr describes and
// names the section its segment payloads travel in.
func newSegmentLoader(kind reflect.Kind, name string, mode IndexMode, opts core.Options, segRows int) (col segmentLoader, payloadSec string, err error) {
	payloadSec = secSlab
	switch kind {
	case reflect.Int8:
		col = newColState[int8](name, mode, opts, segRows)
	case reflect.Int16:
		col = newColState[int16](name, mode, opts, segRows)
	case reflect.Int32:
		col = newColState[int32](name, mode, opts, segRows)
	case reflect.Int64:
		col = newColState[int64](name, mode, opts, segRows)
	case reflect.Uint8:
		col = newColState[uint8](name, mode, opts, segRows)
	case reflect.Uint16:
		col = newColState[uint16](name, mode, opts, segRows)
	case reflect.Uint32:
		col = newColState[uint32](name, mode, opts, segRows)
	case reflect.Uint64:
		col = newColState[uint64](name, mode, opts, segRows)
	case reflect.Float32:
		col = newColState[float32](name, mode, opts, segRows)
	case reflect.Float64:
		col = newColState[float64](name, mode, opts, segRows)
	case reflect.String:
		col, payloadSec = &strColState{name: name, mode: mode, vpcOpts: opts, segRows: segRows}, secDict
	default:
		return nil, "", fmt.Errorf("unsupported kind %d", kind)
	}
	return col, payloadSec, nil
}

// readColumn reads one column: its colhdr section (fatal on any damage)
// and, segment by segment, a payload and an index section
// (quarantinable).
func readColumn(t *Table, r io.Reader, rows uint64, ctx *loadCtx) error {
	hdr, err := readSection(r)
	if err != nil {
		return sectionError(ctx, "", -1, secColHdr, err)
	}
	hr := bytes.NewReader(hdr)
	name, err := readString(hr)
	if err != nil {
		return sectionError(ctx, "", -1, secColHdr, err)
	}
	var kindMode [2]byte
	if _, err := io.ReadFull(hr, kindMode[:]); err != nil {
		return sectionError(ctx, name, -1, secColHdr, err)
	}
	mode := IndexMode(kindMode[1])
	if mode != Imprints && mode != NoIndex {
		return sectionError(ctx, name, -1, secColHdr, fmt.Errorf("invalid index mode %d", mode))
	}
	opts, err := readOptions(hr)
	if err != nil {
		return sectionError(ctx, name, -1, secColHdr, err)
	}
	if err := validateOptions(opts); err != nil {
		return sectionError(ctx, name, -1, secColHdr, err)
	}
	var ns uint32
	if err := binary.Read(hr, binary.LittleEndian, &ns); err != nil {
		return sectionError(ctx, name, -1, secColHdr, err)
	}
	if hr.Len() != 0 {
		return sectionError(ctx, name, -1, secColHdr, fmt.Errorf("%d trailing bytes", hr.Len()))
	}
	// The segment count is pinned to the header row count exactly: id
	// mapping relies on every segment but the last being full, and it is
	// what makes placeholder shapes computable under quarantine.
	if want := (rows + uint64(t.segRows) - 1) / uint64(t.segRows); uint64(ns) != want {
		return sectionError(ctx, name, -1, secColHdr,
			fmt.Errorf("%d segments, but %d rows at %d rows/segment needs %d", ns, rows, t.segRows, want))
	}
	if _, dup := t.cols[name]; dup {
		return sectionError(ctx, name, -1, secColHdr, fmt.Errorf("duplicate column"))
	}
	col, payloadSec, err := newSegmentLoader(reflect.Kind(kindMode[0]), name, mode, opts, t.segRows)
	if err != nil {
		return sectionError(ctx, name, -1, secColHdr, err)
	}
	if err := loadSegments(r, ctx, name, col, payloadSec, rows, int(ns), t.segRows); err != nil {
		return err
	}
	//imprintvet:allow locksafe loading into a freshly constructed table, not yet shared
	t.installColumn(name, col, int(rows))
	return nil
}

// segLoad is one segment on its way from the stream into its column:
// the two frames as read, then what verifying and decoding them came to.
type segLoad struct {
	seg                  int
	fill                 int
	payload, image       []byte
	payloadSum, imageSum uint32
	built                any                  // the segment, or its placeholder
	cse                  *CorruptSegmentError // nil when the segment decoded
	done                 chan struct{}        // closed once decoded
}

// decode verifies and decodes the segment's frames, checksums before
// anything is decoded. A damaged segment gets its placeholder when the
// load may quarantine it: the load quarantines and its frames hold at
// least the bytes the placeholder's values take. Frames holding fewer
// were never a whole segment damaged in place; quarantining them would
// build fill rows — the header's count — out of a few hostile bytes, so
// they are as fatal as the stream breaking off.
func (l *segLoad) decode(ctx *loadCtx, name string, col segmentLoader, payloadSec string) {
	section, err := payloadSec, verify(l.payload, l.payloadSum)
	if err == nil {
		section, err = secIndex, verify(l.image, l.imageSum)
	}
	if err == nil {
		l.built, section, err = col.loadSegment(l.payload, l.image, l.fill)
	}
	if err != nil {
		l.cse = sectionError(ctx, name, l.seg, section, err)
		if ctx.opts.Quarantine && len(l.payload)+len(l.image) >= col.placeholderBytes(l.fill) {
			l.built = col.placeholderSegment(l.fill)
		}
	}
	recycleFrame(l.payload)
	recycleFrame(l.image)
	l.payload, l.image = nil, nil
}

// loadSegments reads a column's nsegs segments. The stream is framed
// here, in order; each segment is verified and decoded on one of
// GOMAXPROCS goroutines, with at most two per goroutine framed and not
// yet installed. Segments are installed, and damage reported or
// quarantined, in stream order, so the first damage in the stream is
// the error returned whatever order the decoding finished in.
func loadSegments(r io.Reader, ctx *loadCtx, name string, col segmentLoader, payloadSec string, rows uint64, nsegs, segRows int) error {
	workers := min(runtime.GOMAXPROCS(0), nsegs)
	// Sized to the in-flight bound: every queued segment is also in
	// inflight, so a send never blocks.
	queue := make(chan *segLoad, 2*workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range queue {
				l.decode(ctx, name, col, payloadSec)
				close(l.done)
			}
		}()
	}
	defer func() {
		// On an early return, segments still queued are dropped
		// undecoded; the workers finish the ones they hold.
		close(queue)
		for range queue {
		}
		wg.Wait()
	}()
	var inflight []*segLoad
	install := func() error {
		l := inflight[0]
		inflight = inflight[1:]
		<-l.done
		if l.cse != nil {
			if l.built == nil {
				return l.cse
			}
			// The rows are marked deleted by markQuarantined once the
			// table is assembled.
			ctx.rep.Quarantined = append(ctx.rep.Quarantined, QuarantinedSegment{
				Shard: l.cse.Shard, Column: l.cse.Column, Segment: l.cse.Segment,
				Section: l.cse.Section, Rows: l.fill, Err: l.cse.Error(),
			})
		}
		col.installSealed(l.built)
		return nil
	}
	var frameErr error
	for i := 0; i < nsegs; i++ {
		if len(inflight) == cap(queue) {
			if err := install(); err != nil {
				return err
			}
		}
		l := &segLoad{seg: i, fill: segRows, done: make(chan struct{})}
		if i == nsegs-1 {
			l.fill = int(rows) - i*segRows
		}
		var err error
		if l.payload, l.payloadSum, err = readFrame(r); err != nil {
			frameErr = sectionError(ctx, name, i, payloadSec, err)
			break
		}
		if l.image, l.imageSum, err = readFrame(r); err != nil {
			frameErr = sectionError(ctx, name, i, secIndex, err)
			break
		}
		inflight = append(inflight, l)
		queue <- l
	}
	// A lost frame loses the stream position, which is fatal, but damage
	// earlier in the stream is reported first.
	for len(inflight) > 0 {
		if err := install(); err != nil {
			return err
		}
	}
	return frameErr
}

// decodeIndexImage decodes an index section: the hasIndex flag and,
// when set, the imprint image (self-delimiting, carrying its own
// checksum) reattached to vals. Only Imprints columns ever persist an
// image: Write emits none for NoIndex columns, and a loaded one would
// go unmaintained by appends, so a flagged image on a NoIndex column is
// corruption.
func decodeIndexImage[V coltype.Value](image []byte, mode IndexMode, vals []V) (*core.Index[V], error) {
	if len(image) == 0 {
		return nil, fmt.Errorf("missing index flag")
	}
	switch flag, rest := image[0], image[1:]; {
	case flag == 0 && len(rest) == 0:
		return nil, nil
	case flag == 0:
		return nil, fmt.Errorf("%d trailing bytes", len(rest))
	case flag != 1:
		return nil, fmt.Errorf("invalid index flag %d", flag)
	case mode != Imprints:
		return nil, fmt.Errorf("index image on a column of mode %d", mode)
	default:
		return core.ReadIndex(bytes.NewBuffer(rest), vals)
	}
}

func (c *colState[V]) loadSegment(payload, image []byte, fill int) (any, string, error) {
	vals, err := colfile.Decode[V](payload)
	if err == nil && len(vals) != fill {
		err = fmt.Errorf("segment has %d rows, want %d", len(vals), fill)
	}
	if err != nil {
		return nil, secSlab, err
	}
	ix, err := decodeIndexImage(image, c.mode, vals)
	if err != nil {
		return nil, secIndex, err
	}
	s := &segment[V]{vals: vals, ix: ix}
	s.min, s.max, _ = summarize(vals)
	if ix == nil {
		// Persisted without an image: rebuild whatever index the mode
		// calls for.
		s.rebuild(c.mode, c.vpcOpts)
	}
	return s, "", nil
}

func (c *colState[V]) placeholderBytes(fill int) int { return fill * coltype.Width[V]() }

func (c *colState[V]) placeholderSegment(fill int) any {
	s := &segment[V]{vals: make([]V, fill)}
	s.rebuild(c.mode, c.vpcOpts)
	return s
}

func (c *strColState) loadSegment(payload, image []byte, fill int) (any, string, error) {
	dict, err := decodeDict(c.name, payload, fill)
	if err != nil {
		return nil, secDict, err
	}
	ix, err := decodeIndexImage(image, c.mode, dict.Codes().Values())
	if err != nil {
		return nil, secIndex, err
	}
	s := &strSegment{dict: dict, ix: ix}
	if ix == nil {
		c.rebuildSegmentIndex(s)
	}
	return s, "", nil
}

// placeholderBytes counts a string placeholder's codes.
func (c *strColState) placeholderBytes(fill int) int { return fill * 4 }

func (c *strColState) placeholderSegment(fill int) any {
	s := &strSegment{dict: column.EncodeStrings(c.name, make([]string, fill))}
	c.rebuildSegmentIndex(s)
	return s
}

// decodeDict decodes one dict payload — symbol table plus codes — of
// exactly fill rows. Every declared count is checked against the bytes
// present before anything is allocated for it.
func decodeDict(name string, b []byte, fill int) (*column.StringDict, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("truncated symbol count")
	}
	card := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Every symbol appears in at least one row, so cardinality beyond
	// the segment's rows is corruption — reject before looping.
	if uint64(card) > uint64(fill) {
		return nil, fmt.Errorf("%d symbols but %d rows", card, fill)
	}
	symbols := make([]string, 0, card)
	for i := uint32(0); i < card; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("truncated at symbol %d", i)
		}
		slen := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(slen) > uint64(len(b)) {
			return nil, fmt.Errorf("symbol %d declares %d bytes, %d remain", i, slen, len(b))
		}
		symbols = append(symbols, string(b[:slen]))
		b = b[slen:]
	}
	codes, err := colfile.Decode[int32](b)
	if err != nil {
		return nil, err
	}
	if len(codes) != fill {
		return nil, fmt.Errorf("segment has %d rows, want %d", len(codes), fill)
	}
	return column.Reconstruct(name, codes, symbols)
}

// ---- sharded envelope ----

// writeSharded persists a sharded table as the envelope of its shards'
// images. Commits are quiesced via the tokens; each kid's Write drains
// its own delta (and cuts its own WAL) under its own lock, so the
// envelope embeds fully drained images across all shards.
func (t *Table) writeSharded(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sh := t.shard
	sh.lockTokens()
	defer sh.unlockTokens()
	bw := bufio.NewWriter(w)
	if err := writePrefix(bw, shardVersionCRC); err != nil {
		return err
	}
	if err := writeSection(bw, func(buf *bytes.Buffer) error {
		if err := writeString(buf, t.name); err != nil {
			return err
		}
		if err := binary.Write(buf, binary.LittleEndian, uint32(t.segRows)); err != nil {
			return err
		}
		return binary.Write(buf, binary.LittleEndian, uint16(sh.nshards))
	}); err != nil {
		return err
	}
	for c, kid := range sh.kids {
		var buf bytes.Buffer
		if err := kid.Write(&buf); err != nil {
			return fmt.Errorf("table %s, shard %d: %w", t.name, c, err)
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(buf.Len())); err != nil {
			return err
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readEnvelope loads the sharded envelope; the caller consumed
// magic+version.
func readEnvelope(br io.Reader, ctx *loadCtx) (*Table, error) {
	hdr, err := readSection(br)
	if err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	hr := bytes.NewReader(hdr)
	name, err := readString(hr)
	if err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	ctx.table = name
	var sr uint32
	if err := binary.Read(hr, binary.LittleEndian, &sr); err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	var nshards uint16
	if err := binary.Read(hr, binary.LittleEndian, &nshards); err != nil {
		return nil, sectionError(ctx, "", -1, secHeader, err)
	}
	if hr.Len() != 0 {
		return nil, sectionError(ctx, "", -1, secHeader, fmt.Errorf("%d trailing bytes", hr.Len()))
	}
	if nshards < 2 {
		return nil, fmt.Errorf("%w: sharded envelope with %d shards", ErrCorrupt, nshards)
	}
	t := NewWithOptions(name, TableOptions{SegmentRows: int(sr), Shards: int(nshards)})
	if t.segRows != int(sr) {
		return nil, fmt.Errorf("%w: segment size %d is not a whole number of blocks", ErrCorrupt, sr)
	}
	sh := t.shard
	for c := 0; c < int(nshards); c++ {
		var n uint64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrCorrupt, c, err)
		}
		ctx.shard = c
		lr := io.LimitReader(br, int64(n))
		kid, err := readInternal(lr, ctx)
		ctx.shard = -1
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", c, err)
		}
		// Bytes a shard image leaves unread inside its declared length
		// are skipped: the next shard starts where its length says.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrCorrupt, c, err)
		}
		if kid.shard != nil {
			return nil, fmt.Errorf("%w: shard %d is itself sharded", ErrCorrupt, c)
		}
		if kid.name != name || kid.segRows != t.segRows {
			return nil, fmt.Errorf("%w: shard %d image (table %q, %d rows/segment) does not match envelope (%q, %d)",
				ErrCorrupt, c, kid.name, kid.segRows, name, t.segRows)
		}
		if c == 0 {
			t.order = append([]string(nil), kid.order...)
		} else if len(kid.order) != len(t.order) {
			return nil, fmt.Errorf("%w: shard %d carries %d columns, shard 0 carries %d",
				ErrCorrupt, c, len(kid.order), len(t.order))
		} else {
			for i, col := range kid.order {
				if col != t.order[i] {
					return nil, fmt.Errorf("%w: shard %d column %d is %q, shard 0 has %q",
						ErrCorrupt, c, i, col, t.order[i])
				}
			}
		}
		sh.kids[c] = kid
	}
	// The table is still being constructed and has not escaped to any
	// other goroutine, so the commit tokens cannot be contended yet.
	//imprintvet:allow locksafe freshly constructed table, not yet shared
	sh.refreshRowsLocked()
	return t, nil
}

// ---- file-level entry points ----

// fsysOr returns the table's injected filesystem, defaulting to the
// real one.
func (t *Table) fsysOr() faultfs.FS {
	kid := t.parts()[0] // every part holds the same one
	kid.mu.RLock()
	defer kid.mu.RUnlock()
	if kid.fsys != nil {
		return kid.fsys
	}
	return faultfs.OS{}
}

// WriteFile persists the table atomically: the image is written to a
// temp file, fsynced, renamed over the destination, and the parent
// directory fsynced — a crash anywhere leaves either the old image or
// the new one, never a torn mix. Once the rename is durable, the WAL
// checkpoint cut during the drain is applied, truncating log segments
// the image supersedes.
func (t *Table) WriteFile(path string) error {
	fsys := t.fsysOr()
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	t.walCheckpoint()
	return nil
}

// Open loads a table image from a file, optionally through an injected
// filesystem and with quarantine enabled. The returned LoadReport is
// non-nil on success; the table remembers the filesystem for later
// WriteFile/WAL use. The file is read once, front to back, and its
// segments decoded concurrently, as Read describes.
func Open(path string, opts LoadOptions) (*Table, *LoadReport, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	t, rep, err := ReadWithOptions(f, opts)
	if err != nil {
		return nil, nil, err
	}
	for _, kid := range t.parts() {
		kid.fsys = fsys
	}
	return t, rep, nil
}
