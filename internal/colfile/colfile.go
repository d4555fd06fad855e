// Package colfile reads and writes typed columns as flat binary files,
// the interchange format of the cmd/ tools (imprintgen writes datasets,
// imprintdump builds indexes over them).
//
// Format (little endian): magic "CCOL", version uint16, kind uint8
// (reflect.Kind), rows uint64, then rows values at native width.
package colfile

import (
	"bufio"
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

// Write serializes col to w.
func Write[V coltype.Value](w io.Writer, col []V) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var hdr [11]byte
	binary.LittleEndian.PutUint16(hdr[0:2], version)
	var zero V
	hdr[2] = uint8(reflect.TypeOf(zero).Kind())
	binary.LittleEndian.PutUint64(hdr[3:11], uint64(len(col)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	width := coltype.Width[V]()
	var buf [8]byte
	for _, v := range col {
		putValue(buf[:width], v)
		if _, err := bw.Write(buf[:width]); err != nil {
			return err
		}
	}
	return bw.Flush()
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
	for i := range col {
		col[i] = getValue[V](body[i*width : (i+1)*width])
	}
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

func putValue[V coltype.Value](dst []byte, v V) {
	rv := reflect.ValueOf(v)
	var u uint64
	switch rv.Kind() {
	case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u = uint64(rv.Int())
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u = rv.Uint()
	case reflect.Float32:
		u = uint64(math.Float32bits(float32(rv.Float())))
	case reflect.Float64:
		u = math.Float64bits(rv.Float())
	}
	switch len(dst) {
	case 1:
		dst[0] = byte(u)
	case 2:
		binary.LittleEndian.PutUint16(dst, uint16(u))
	case 4:
		binary.LittleEndian.PutUint32(dst, uint32(u))
	case 8:
		binary.LittleEndian.PutUint64(dst, u)
	}
}

func getValue[V coltype.Value](src []byte) V {
	var u uint64
	switch len(src) {
	case 1:
		u = uint64(src[0])
	case 2:
		u = uint64(binary.LittleEndian.Uint16(src))
	case 4:
		u = uint64(binary.LittleEndian.Uint32(src))
	case 8:
		u = binary.LittleEndian.Uint64(src)
	}
	var v V
	switch reflect.TypeOf(v).Kind() {
	case reflect.Int8:
		i := int64(int8(u))
		return V(i)
	case reflect.Int16:
		i := int64(int16(u))
		return V(i)
	case reflect.Int32:
		i := int64(int32(u))
		return V(i)
	case reflect.Int64:
		i := int64(u)
		return V(i)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return V(u)
	case reflect.Float32:
		f := float64(math.Float32frombits(uint32(u)))
		return V(f)
	case reflect.Float64:
		f := math.Float64frombits(u)
		return V(f)
	}
	panic("colfile: unsupported kind")
}
