package core

import (
	"bufio"
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

// encodeValue converts a value to a stable 64-bit pattern.
func encodeValue[V coltype.Value](v V) uint64 {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return uint64(rv.Int())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return rv.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(rv.Float())
	}
	panic("core: unsupported value kind")
}

// decodeValue inverts encodeValue.
func decodeValue[V coltype.Value](u uint64) V {
	var v V
	switch reflect.TypeOf(v).Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i := int64(u)
		return V(i)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return V(u)
	case reflect.Float32, reflect.Float64:
		f := math.Float64frombits(u)
		return V(f)
	}
	panic("core: unsupported value kind")
}

type crcWriter struct {
	w       io.Writer
	crc     uint32
	err     error
	scratch [8]byte
}

func (cw *crcWriter) bytes(b []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, b)
	_, cw.err = cw.w.Write(b)
}

func (cw *crcWriter) u8(v uint8) {
	cw.scratch[0] = v
	cw.bytes(cw.scratch[:1])
}

func (cw *crcWriter) u16(v uint16) {
	binary.LittleEndian.PutUint16(cw.scratch[:2], v)
	cw.bytes(cw.scratch[:2])
}

func (cw *crcWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(cw.scratch[:4], v)
	cw.bytes(cw.scratch[:4])
}

func (cw *crcWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(cw.scratch[:8], v)
	cw.bytes(cw.scratch[:8])
}

// Write serializes the index to w.
func (ix *Index[V]) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}

	cw.bytes([]byte(serialMagic))
	cw.u16(serialVersion)
	var v V
	cw.u8(uint8(reflect.TypeOf(v).Kind()))
	cw.u32(uint32(ix.vpc))
	cw.u64(uint64(ix.n))
	cw.u16(uint16(ix.hist.Bins))
	cw.u32(uint32(ix.hist.SampledUnique))
	for _, b := range ix.hist.Borders {
		cw.u64(encodeValue(b))
	}
	cw.u64(uint64(len(ix.dict)))
	for _, e := range ix.dict {
		cw.u32(uint32(e))
	}
	cw.u64(uint64(ix.vecs.n))
	cw.u8(uint8(ix.vecs.width))
	cw.u64(uint64(len(ix.vecs.words)))
	for _, w := range ix.vecs.words {
		cw.u64(w)
	}
	cw.u64(ix.pendingVec)
	cw.u32(uint32(ix.pendingCount))
	cw.u64(uint64(ix.extraBits))
	if cw.err != nil {
		return cw.err
	}
	// Trailing CRC (not itself checksummed).
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], cw.crc)
	if _, err := bw.Write(buf[:]); err != nil {
		return err
	}
	return bw.Flush()
}

type crcReader struct {
	r       io.Reader
	crc     uint32
	err     error
	scratch [8]byte
}

// bytes reads n bytes; for n <= 8 the internal scratch buffer is reused
// (the caller must consume the result before the next read).
func (cr *crcReader) bytes(n int) []byte {
	var b []byte
	if n <= len(cr.scratch) {
		b = cr.scratch[:n]
		for i := range b {
			b[i] = 0
		}
	} else {
		b = make([]byte, n)
	}
	if cr.err != nil {
		return b
	}
	if _, err := io.ReadFull(cr.r, b); err != nil {
		cr.err = err
		return b
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, b)
	return b
}

func (cr *crcReader) u8() uint8   { return cr.bytes(1)[0] }
func (cr *crcReader) u16() uint16 { return binary.LittleEndian.Uint16(cr.bytes(2)) }
func (cr *crcReader) u32() uint32 { return binary.LittleEndian.Uint32(cr.bytes(4)) }
func (cr *crcReader) u64() uint64 { return binary.LittleEndian.Uint64(cr.bytes(8)) }

// ReadIndex deserializes an index and reattaches it to col, which must
// be the same column contents the index was built over (only its length
// is validated here; a mismatched column silently yields wrong query
// results, exactly like any detached secondary index).
func ReadIndex[V coltype.Value](r io.Reader, col []V) (*Index[V], error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	if string(cr.bytes(4)) != serialMagic {
		if cr.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, cr.err)
		}
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := cr.u16(); v != serialVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	var zero V
	if k := reflect.Kind(cr.u8()); k != reflect.TypeOf(zero).Kind() {
		return nil, fmt.Errorf("%w: value kind mismatch: file has %v, want %v",
			ErrCorrupt, k, reflect.TypeOf(zero).Kind())
	}
	vpc := int(cr.u32())
	n := int(cr.u64())
	bins := int(cr.u16())
	sampled := int(cr.u32())
	hist := &histogram.Histogram[V]{Bins: bins, SampledUnique: sampled}
	for i := range hist.Borders {
		hist.Borders[i] = decodeValue[V](cr.u64())
	}
	// Every dictionary entry covers at least one cacheline and every
	// vector word at least one stored vector, so neither count can
	// exceed the rows of the column the image reattaches to: a hostile
	// length is rejected before anything is allocated for it.
	dictLen := cr.u64()
	if dictLen > uint64(len(col)) {
		return nil, fmt.Errorf("%w: dictionary of %d entries over a %d-row column", ErrCorrupt, dictLen, len(col))
	}
	dict := make([]DictEntry, dictLen)
	for i := range dict {
		dict[i] = DictEntry(cr.u32())
	}
	vecN := int(cr.u64())
	width := int(cr.u8())
	switch width {
	case 8, 16, 32, 64:
	default:
		return nil, fmt.Errorf("%w: invalid vector width %d", ErrCorrupt, width)
	}
	wordLen := cr.u64()
	if wordLen > uint64(len(col)) {
		return nil, fmt.Errorf("%w: vector arena of %d words over a %d-row column", ErrCorrupt, wordLen, len(col))
	}
	vecs := newVecstore(width)
	vecs.n = vecN
	vecs.words = make([]uint64, wordLen)
	for i := range vecs.words {
		vecs.words[i] = cr.u64()
	}
	pendingVec := cr.u64()
	pendingCount := int(cr.u32())
	extraBits := int(cr.u64())
	if cr.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, cr.err)
	}
	wantCRC := cr.crc
	var buf [4]byte
	if _, err := io.ReadFull(cr.r, buf[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != wantCRC {
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
