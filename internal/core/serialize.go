package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"

	"repro/internal/coltype"
	"repro/internal/histogram"
)

// Serialization format (little endian):
//
//	magic   "CIMP"                     4 bytes
//	version uint16                     currently 1
//	kind    uint8                      reflect.Kind of V
//	vpc     uint32
//	n       uint64
//	bins    uint16
//	sampledUnique uint32
//	borders 64 × uint64                value bit patterns
//	dictLen uint64, dict entries uint32 each
//	vecN    uint64, vecWidth uint8
//	wordLen uint64, words uint64 each
//	pendingVec uint64, pendingCount uint32
//	extraBits  uint64
//	crc32   uint32                     IEEE, over everything above
//
// The column itself is not serialized: imprints are a secondary index and
// reattach to the column at load time (ReadIndex takes the column).

const (
	serialMagic   = "CIMP"
	serialVersion = 1
)

// ErrCorrupt is returned when a serialized index fails validation.
var ErrCorrupt = errors.New("core: corrupt serialized imprint")

// appendBorders appends the histogram borders as stable 64-bit
// patterns: an integer as its value widened to 64 bits, a float (float32
// too) as the bits of its float64 value. The kind is chosen once.
func appendBorders[V coltype.Value](b []byte, borders []V) []byte {
	le := binary.LittleEndian
	if coltype.IsFloat[V]() {
		for _, x := range borders {
			b = le.AppendUint64(b, math.Float64bits(float64(x)))
		}
		return b
	}
	for _, x := range borders {
		b = le.AppendUint64(b, uint64(x))
	}
	return b
}

// getBorders inverts appendBorders.
func getBorders[V coltype.Value](dst []V, src []byte) {
	le := binary.LittleEndian
	if coltype.IsFloat[V]() {
		for i := range dst {
			dst[i] = V(math.Float64frombits(le.Uint64(src[8*i:])))
		}
		return
	}
	for i := range dst {
		dst[i] = V(le.Uint64(src[8*i:]))
	}
}

// fixedBytes is the size of an image but for its dictionary entries and
// vector words.
const fixedBytes = 25 + histogram.MaxBins*8 + 8 + 8 + 1 + 8 + 20 + 4

// Write serializes the index to w in one write, the checksum computed in
// one pass over the encoded image.
func (ix *Index[V]) Write(w io.Writer) error {
	le := binary.LittleEndian
	b := make([]byte, 0, fixedBytes+4*len(ix.dict)+8*len(ix.vecs.words))
	b = append(b, serialMagic...)
	b = le.AppendUint16(b, serialVersion)
	var v V
	b = append(b, uint8(reflect.TypeOf(v).Kind()))
	b = le.AppendUint32(b, uint32(ix.vpc))
	b = le.AppendUint64(b, uint64(ix.n))
	b = le.AppendUint16(b, uint16(ix.hist.Bins))
	b = le.AppendUint32(b, uint32(ix.hist.SampledUnique))
	b = appendBorders(b, ix.hist.Borders[:])
	b = le.AppendUint64(b, uint64(len(ix.dict)))
	for _, e := range ix.dict {
		b = le.AppendUint32(b, uint32(e))
	}
	b = le.AppendUint64(b, uint64(ix.vecs.n))
	b = append(b, uint8(ix.vecs.width))
	b = le.AppendUint64(b, uint64(len(ix.vecs.words)))
	for _, w := range ix.vecs.words {
		b = le.AppendUint64(b, w)
	}
	b = le.AppendUint64(b, ix.pendingVec)
	b = le.AppendUint32(b, uint32(ix.pendingCount))
	b = le.AppendUint64(b, uint64(ix.extraBits))
	// Trailing CRC (not itself checksummed).
	b = le.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

// imageReader walks a serialized index held in memory. It fails as
// reading the fields one at a time from a stream would: io.EOF when the
// image ends on a field boundary, io.ErrUnexpectedEOF inside a field,
// and every read after the first failure yields nothing.
type imageReader struct {
	b   []byte
	off int
	err error
}

// take returns the next n bytes, a run of fields of unit bytes each, or
// nil when fewer remain.
func (r *imageReader) take(n uint64, unit int) []byte {
	if r.err != nil {
		return nil
	}
	rest := len(r.b) - r.off
	if uint64(rest) < n {
		r.err = io.ErrUnexpectedEOF
		if rest%unit == 0 {
			r.err = io.EOF
		}
		r.off = len(r.b)
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// field reads one field of n bytes. A field the image cuts short holds
// the bytes that remain, zero-padded, as a short read into a zeroed
// buffer would.
func (r *imageReader) field(n int) (f [8]byte) {
	if r.err == nil {
		copy(f[:n], r.b[r.off:])
		r.take(uint64(n), n)
	}
	return f
}

func (r *imageReader) u8() uint8 {
	f := r.field(1)
	return f[0]
}

func (r *imageReader) u16() uint16 {
	f := r.field(2)
	return binary.LittleEndian.Uint16(f[:])
}

func (r *imageReader) u32() uint32 {
	f := r.field(4)
	return binary.LittleEndian.Uint32(f[:])
}

func (r *imageReader) u64() uint64 {
	f := r.field(8)
	return binary.LittleEndian.Uint64(f[:])
}

// ReadIndex deserializes an index and reattaches it to col, which must
// be the same column contents the index was built over (only its length
// is validated here; a mismatched column silently yields wrong query
// results, exactly like any detached secondary index). A *bytes.Buffer
// is decoded in place and advanced past the image; any other reader is
// read to its end first.
func ReadIndex[V coltype.Value](r io.Reader, col []V) (*Index[V], error) {
	if buf, ok := r.(*bytes.Buffer); ok {
		ir := &imageReader{b: buf.Bytes()}
		ix, err := decodeIndex(ir, col)
		buf.Next(ir.off)
		return ix, err
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return decodeIndex(&imageReader{b: b}, col)
}

// decodeIndex decodes the image at the start of ir's bytes. Every count
// is checked against the bytes present before anything is allocated
// for it.
func decodeIndex[V coltype.Value](ir *imageReader, col []V) (*Index[V], error) {
	if string(ir.take(4, 4)) != serialMagic {
		if ir.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, ir.err)
		}
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := ir.u16(); v != serialVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	var zero V
	if k := reflect.Kind(ir.u8()); k != reflect.TypeOf(zero).Kind() {
		return nil, fmt.Errorf("%w: value kind mismatch: file has %v, want %v",
			ErrCorrupt, k, reflect.TypeOf(zero).Kind())
	}
	vpc := int(ir.u32())
	n := int(ir.u64())
	bins := int(ir.u16())
	sampled := int(ir.u32())
	hist := &histogram.Histogram[V]{Bins: bins, SampledUnique: sampled}
	if p := ir.take(histogram.MaxBins*8, 8); p != nil {
		getBorders(hist.Borders[:], p)
	}
	// Every dictionary entry covers at least one cacheline and every
	// vector word at least one stored vector, so neither count can
	// exceed the rows of the column the image reattaches to: a hostile
	// length is rejected before anything is allocated for it.
	dictLen := ir.u64()
	if dictLen > uint64(len(col)) {
		return nil, fmt.Errorf("%w: dictionary of %d entries over a %d-row column", ErrCorrupt, dictLen, len(col))
	}
	var dict []DictEntry
	if p := ir.take(4*dictLen, 4); p != nil {
		dict = make([]DictEntry, dictLen)
		for i := range dict {
			dict[i] = DictEntry(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	vecN := int(ir.u64())
	width := int(ir.u8())
	switch width {
	case 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("%w: invalid vector width %d", ErrCorrupt, width)
	}
	wordLen := ir.u64()
	if wordLen > uint64(len(col)) {
		return nil, fmt.Errorf("%w: vector arena of %d words over a %d-row column", ErrCorrupt, wordLen, len(col))
	}
	vecs := newVecstore(width)
	vecs.n = vecN
	if p := ir.take(8*wordLen, 8); p != nil {
		vecs.words = make([]uint64, wordLen)
		for i := range vecs.words {
			vecs.words[i] = binary.LittleEndian.Uint64(p[8*i:])
		}
	}
	pendingVec := ir.u64()
	pendingCount := int(ir.u32())
	extraBits := int(ir.u64())
	if ir.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, ir.err)
	}
	wantCRC := crc32.ChecksumIEEE(ir.b[:ir.off])
	sum := ir.take(4, 4)
	if sum == nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, ir.err)
	}
	if got := binary.LittleEndian.Uint32(sum); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	// Structural validation.
	if bins < 1 || bins > histogram.MaxBins || bins > width {
		return nil, fmt.Errorf("%w: bins %d incompatible with width %d", ErrCorrupt, bins, width)
	}
	if vpc <= 0 {
		return nil, fmt.Errorf("%w: invalid values-per-cacheline", ErrCorrupt)
	}
	var committed, stored uint64
	for _, e := range dict {
		committed += uint64(e.Count())
		if e.Repeat() {
			stored++
		} else {
			stored += uint64(e.Count())
		}
	}
	if stored != uint64(vecN) {
		return nil, fmt.Errorf("%w: dictionary implies %d vectors, file has %d", ErrCorrupt, stored, vecN)
	}
	if (uint64(vecN)+uint64(vecs.perWord())-1)/uint64(vecs.perWord()) != wordLen {
		return nil, fmt.Errorf("%w: vector arena length mismatch", ErrCorrupt)
	}
	if pendingCount < 0 || pendingCount >= vpc {
		return nil, fmt.Errorf("%w: invalid pending count", ErrCorrupt)
	}
	if committed*uint64(vpc)+uint64(pendingCount) != uint64(n) {
		return nil, fmt.Errorf("%w: dictionary covers %d values, header says %d",
			ErrCorrupt, committed*uint64(vpc)+uint64(pendingCount), n)
	}
	if len(col) != n {
		return nil, fmt.Errorf("core: column has %d rows but index covers %d", len(col), n)
	}
	return &Index[V]{
		col:          col,
		hist:         hist,
		vecs:         vecs,
		dict:         dict,
		vpc:          vpc,
		n:            n,
		committed:    int(committed),
		pendingVec:   pendingVec,
		pendingCount: pendingCount,
		extraBits:    extraBits,
	}, nil
}
