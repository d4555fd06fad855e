package server

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/table"
)

// The reply encoder: /query replies are appended into a pooled buffer
// straight from the result's typed column vectors — no reflection, no
// boxing — and go out in one Write with a Content-Length. The bytes
// are exactly what encoding/json (SetEscapeHTML(false)) produces for
// the same values, with one deliberate exception: a non-finite float
// cell, which encoding/json refuses to encode, is written as null.

// maxPooledReply caps the reply buffers kept for reuse, so one huge
// reply cannot pin its memory for the life of the process.
const maxPooledReply = 1 << 20

var replyPool = sync.Pool{New: func() any { return new([]byte) }}

func getReplyBuf() *[]byte { return replyPool.Get().(*[]byte) }

func putReplyBuf(p *[]byte) {
	if cap(*p) > maxPooledReply {
		return
	}
	*p = (*p)[:0]
	replyPool.Put(p)
}

// appendQueryResponse appends resp as the JSON object QueryResponse
// documents, plus the newline json.Encoder ends a value with.
func appendQueryResponse(b []byte, resp *QueryResponse) ([]byte, error) {
	res := resp.Result
	b = append(b, `{"query":`...)
	b = appendString(b, resp.Query)
	b = append(b, `,"table":`...)
	b = appendString(b, res.Table)
	b = append(b, `,"columns":[`...)
	for i, c := range res.Columns {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, c)
	}
	b = append(b, `],"rows":[`...)
	first := true
	for _, batch := range res.Batches {
		for i, n := 0, batch.Len(); i < n; i++ {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '[')
			for ci := range batch.Cols {
				if ci > 0 {
					b = append(b, ',')
				}
				b = appendCell(b, &batch.Cols[ci], i)
			}
			b = append(b, ']')
		}
	}
	b = append(b, `],"row_count":`...)
	b = strconv.AppendInt(b, int64(res.RowCount), 10)
	if res.Stats != nil {
		st, err := json.Marshal(res.Stats)
		if err != nil {
			return b, err
		}
		b = append(b, `,"stats":`...)
		b = append(b, st...)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"elapsed_us":`...)
	b = strconv.AppendInt(b, resp.ElapsedUs, 10)
	return append(b, '}', '\n'), nil
}

// appendCell appends cell i of one result column.
//
//imprintvet:hotpath
func appendCell(b []byte, v *table.ColVec, i int) []byte {
	if v.IsNull(i) {
		return append(b, "null"...)
	}
	switch v.Kind {
	case table.KindInt:
		return strconv.AppendInt(b, v.Ints[i], 10)
	case table.KindUint:
		return strconv.AppendUint(b, v.Uints[i], 10)
	case table.KindFloat:
		return appendFloat(b, v.Floats[i], v.Bits)
	}
	return appendString(b, v.Strs[i])
}

// appendFloat appends f the way encoding/json formats a float of the
// given width (ES6 number-to-string: shortest digits, exponent form
// below 1e-6 and from 1e21); NaN and ±Inf, which have no JSON form,
// become null.
//
//imprintvet:hotpath
func appendFloat(b []byte, f float64, bits int) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	// The cutoffs compare at the value's own width to land exactly.
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// without HTML escaping: quotes, backslashes and control bytes
// escaped, invalid UTF-8 replaced by U+FFFD, U+2028/U+2029 escaped.
//
//imprintvet:hotpath
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
