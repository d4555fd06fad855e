// Package colfile reads and writes typed columns as flat binary files,
// the interchange format of the cmd/ tools (imprintgen writes datasets,
// imprintdump builds indexes over them).
//
// Format (little endian): magic "CCOL", version uint16, kind uint8
// (reflect.Kind), rows uint64, then rows values at native width.
package colfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/coltype"
	"repro/internal/column"
)

const (
	magic     = "CCOL"
	version   = 1
	headerLen = 4 + 11 // magic, then version, kind and rows
)

// ErrFormat reports an invalid column file.
var ErrFormat = errors.New("colfile: invalid column file")

// Write serializes col to w in one write: header and values, each value
// encoded by the loop for its type.
func Write[V coltype.Value](w io.Writer, col []V) error {
	b := make([]byte, headerLen+len(col)*coltype.Width[V]())
	copy(b, magic)
	binary.LittleEndian.PutUint16(b[4:6], version)
	var zero V
	b[6] = uint8(reflect.TypeOf(zero).Kind())
	binary.LittleEndian.PutUint64(b[7:headerLen], uint64(len(col)))
	encodeValues(b[headerLen:], col)
	_, err := w.Write(b)
	return err
}

// Read deserializes a column of type V from r, which must hold exactly
// one column file. It fails if the file holds a different value kind.
func Read[V coltype.Value](r io.Reader) ([]V, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return Decode[V](b)
}

// Decode deserializes a column file held in memory. The declared row
// count must account for every byte of b — checked before the column
// is allocated, so a hostile header cannot demand more memory than the
// input occupies.
func Decode[V coltype.Value](b []byte) ([]V, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrFormat, len(b))
	}
	head, body := b[:headerLen], b[headerLen:]
	if string(head[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrFormat, v)
	}
	var zero V
	wantKind := reflect.TypeOf(zero).Kind()
	if k := reflect.Kind(head[6]); k != wantKind {
		return nil, fmt.Errorf("%w: file holds %v, want %v", ErrFormat, k, wantKind)
	}
	n := binary.LittleEndian.Uint64(head[7:15])
	width := coltype.Width[V]()
	if len(body)%width != 0 || n != uint64(len(body)/width) {
		return nil, fmt.Errorf("%w: header declares %d rows of %d bytes, %d bytes follow", ErrFormat, n, width, len(body))
	}
	col := make([]V, n)
	decodeValues(col, body)
	return col, nil
}

// Kind peeks the value kind of a column file without decoding values.
func Kind(r io.Reader) (reflect.Kind, error) {
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if string(head[:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	return reflect.Kind(head[6]), nil
}

// WriteAny serializes a type-erased column (any *column.Column[V]
// instantiation) by dispatching to the typed Write.
func WriteAny(w io.Writer, c column.Any) error {
	switch col := c.(type) {
	case *column.Column[int8]:
		return Write(w, col.Values())
	case *column.Column[int16]:
		return Write(w, col.Values())
	case *column.Column[int32]:
		return Write(w, col.Values())
	case *column.Column[int64]:
		return Write(w, col.Values())
	case *column.Column[uint8]:
		return Write(w, col.Values())
	case *column.Column[uint16]:
		return Write(w, col.Values())
	case *column.Column[uint32]:
		return Write(w, col.Values())
	case *column.Column[uint64]:
		return Write(w, col.Values())
	case *column.Column[float32]:
		return Write(w, col.Values())
	case *column.Column[float64]:
		return Write(w, col.Values())
	}
	return fmt.Errorf("colfile: unsupported column type %T", c)
}

// encodeValues writes vals into dst, which holds exactly len(vals)
// values at native width. The loop is chosen once per slice: a
// conversion between integers of one width keeps every bit, so one
// loop per width serves signed and unsigned types alike.
func encodeValues[V coltype.Value](dst []byte, vals []V) {
	le := binary.LittleEndian
	switch width := coltype.Width[V](); {
	case coltype.IsFloat[V]() && width == 4:
		for i, v := range vals {
			le.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
		}
	case coltype.IsFloat[V]():
		for i, v := range vals {
			le.PutUint64(dst[8*i:], math.Float64bits(float64(v)))
		}
	case width == 1:
		for i, v := range vals {
			dst[i] = uint8(v)
		}
	case width == 2:
		for i, v := range vals {
			le.PutUint16(dst[2*i:], uint16(v))
		}
	case width == 4:
		for i, v := range vals {
			le.PutUint32(dst[4*i:], uint32(v))
		}
	default:
		for i, v := range vals {
			le.PutUint64(dst[8*i:], uint64(v))
		}
	}
}

// decodeValues fills dst from src, which holds exactly len(dst) values
// at native width; it inverts encodeValues bit for bit.
func decodeValues[V coltype.Value](dst []V, src []byte) {
	le := binary.LittleEndian
	switch width := coltype.Width[V](); {
	case coltype.IsFloat[V]() && width == 4:
		for i := range dst {
			dst[i] = V(math.Float32frombits(le.Uint32(src[4*i:])))
		}
	case coltype.IsFloat[V]():
		for i := range dst {
			dst[i] = V(math.Float64frombits(le.Uint64(src[8*i:])))
		}
	case width == 1:
		for i := range dst {
			dst[i] = V(src[i])
		}
	case width == 2:
		for i := range dst {
			dst[i] = V(le.Uint16(src[2*i:]))
		}
	case width == 4:
		for i := range dst {
			dst[i] = V(le.Uint32(src[4*i:]))
		}
	default:
		for i := range dst {
			dst[i] = V(le.Uint64(src[8*i:]))
		}
	}
}
