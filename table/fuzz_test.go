package table

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// refitChecksums rewrites the checksum of every section it can walk in
// img (a table image, or an envelope of them) so that a mutated payload
// gets past the CRC and reaches the decoders; it stops at the first
// frame that does not fit. It returns the largest row count a table
// header declares.
func refitChecksums(img []byte) (maxRows uint64) {
	le := binary.LittleEndian
	if len(img) < 6 || string(img[:4]) != tableMagic {
		return 0
	}
	version, off := le.Uint16(img[4:]), 6
	// next refits the frame at off and returns its payload.
	next := func() []byte {
		if off+4 > len(img) {
			return nil
		}
		n := int(le.Uint32(img[off:]))
		if n > len(img)-off-8 {
			return nil
		}
		payload := img[off+4 : off+4+n]
		le.PutUint32(img[off+4+n:], crc32.Checksum(payload, crcTable))
		off += 4 + n + 4
		return payload
	}
	hdr := next()
	if hdr == nil {
		return 0
	}
	switch version {
	case tableVersionCRC:
		if len(hdr) >= 2 { // rows follows the length-prefixed name
			if at := 2 + int(le.Uint16(hdr)); at+8 <= len(hdr) {
				maxRows = le.Uint64(hdr[at:])
			}
		}
		for next() != nil {
		}
	case shardVersionCRC:
		for off+8 <= len(img) {
			n := le.Uint64(img[off:])
			off += 8
			if n > uint64(len(img)-off) {
				break
			}
			maxRows = max(maxRows, refitChecksums(img[off:off+int(n)]))
			off += int(n)
		}
	}
	return maxRows
}

// FuzzRead hardens the one image reader against arbitrary bytes: with
// quarantine off and on it must load or fail — never panic — and a
// table that loads must answer queries and, unless degraded, persist.
// With refit set the section checksums are recomputed first, so
// mutations reach the header parsers and segment decoders instead of
// stopping at the CRC.
func FuzzRead(f *testing.F) {
	for _, name := range []string{"image-v5.ctbl", "image-v6.ctbl"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		flipped := append([]byte(nil), img...)
		flipped[len(img)/3] ^= 0x10
		for _, refit := range []bool{false, true} {
			f.Add(img, refit)
			f.Add(flipped, refit)
		}
		f.Add(img[:len(img)/2], false)
		f.Add(img[:len(img)-3], false)
	}
	f.Fuzz(func(t *testing.T, data []byte, refit bool) {
		if refit {
			data = append([]byte(nil), data...)
			// A quarantine placeholder keeps the declared shape, so its
			// size follows the header's row count, not the input's.
			if refitChecksums(data) > 1<<20 {
				t.Skip("declared row count beyond what a fuzz run should allocate")
			}
		}
		for _, quarantine := range []bool{false, true} {
			tb, rep, err := ReadWithOptions(bytes.NewReader(data), LoadOptions{Quarantine: quarantine})
			if err != nil {
				continue
			}
			rows := tb.Rows()
			n, _, err := tb.Select().Where(Range[int64]("qty", 100, 500)).Count()
			if err == nil && n > uint64(rows) {
				t.Fatalf("Count = %d over a %d-row table", n, rows)
			}
			if !rep.Degraded() {
				if err := tb.Write(io.Discard); err != nil {
					t.Fatalf("Write of a cleanly loaded table: %v", err)
				}
			}
		}
	})
}
