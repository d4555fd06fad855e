package server

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
	"repro/table"
)

// The reply encoder: /query replies are appended into a pooled buffer
// straight from the result's typed column vectors and stats counters —
// no reflection, no boxing, no way to fail — and go out in one Write
// with a Content-Length. The bytes
// are exactly what encoding/json (SetEscapeHTML(false)) produces for
// the same values, with one deliberate exception: a non-finite float
// cell, which encoding/json refuses to encode, is written as null.
//
// The two hot cell kinds skip strconv. Integers are written digit pair
// by digit pair straight into the reply, their length counted first,
// so nothing is staged on the stack and copied. A float64 with at most
// six decimals and a magnitude in [1e-6, 1e8) — a price in cents, a
// quarter, a count — is printed from its integer count of millionths;
// appendFloat says why that is exactly strconv's shortest form. Every
// other float, and every float32, still goes through strconv.

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
func appendQueryResponse(b []byte, resp *QueryResponse) []byte {
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
	b = appendInt(b, int64(res.RowCount))
	if res.Stats != nil {
		b = append(b, `,"stats":`...)
		b = appendStats(b, res.Stats)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, resp.Cached)
	b = append(b, `,"elapsed_us":`...)
	b = appendInt(b, resp.ElapsedUs)
	return append(b, '}', '\n')
}

// appendStats appends st the way encoding/json renders a
// core.QueryStats: every field in declaration order, keyed by its Go
// name (the struct carries no tags).
func appendStats(b []byte, st *core.QueryStats) []byte {
	b = append(b, `{"Probes":`...)
	b = appendUint(b, st.Probes)
	b = append(b, `,"Comparisons":`...)
	b = appendUint(b, st.Comparisons)
	b = append(b, `,"CachelinesScanned":`...)
	b = appendUint(b, st.CachelinesScanned)
	b = append(b, `,"CachelinesExact":`...)
	b = appendUint(b, st.CachelinesExact)
	b = append(b, `,"CachelinesSkipped":`...)
	b = appendUint(b, st.CachelinesSkipped)
	b = append(b, `,"FastCountedRows":`...)
	b = appendUint(b, st.FastCountedRows)
	b = append(b, `,"ScratchReused":`...)
	b = appendUint(b, st.ScratchReused)
	b = append(b, `,"SummaryAggRows":`...)
	b = appendUint(b, st.SummaryAggRows)
	b = append(b, `,"WholesaleAggRows":`...)
	b = appendUint(b, st.WholesaleAggRows)
	b = append(b, `,"BlocksVectorized":`...)
	b = appendUint(b, st.BlocksVectorized)
	b = append(b, `,"DeltaRowsScanned":`...)
	b = appendUint(b, st.DeltaRowsScanned)
	return append(b, '}')
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
		return appendInt(b, v.Ints[i])
	case table.KindUint:
		return appendUint(b, v.Uints[i])
	case table.KindFloat:
		return appendFloat(b, v.Floats[i], v.Bits)
	}
	return appendString(b, v.Strs[i])
}

// digitPairs holds "00" through "99": two digits per division by 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 through 10^19, every power of ten a uint64 holds.
var pow10 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits in u (1 for 0).
//
//imprintvet:hotpath
func decimalLen(u uint64) int {
	// bits·1233/4096 is ⌊bits·log10 2⌋ for every bit length up to 64, so
	// u has that many digits, or one more once it reaches the next power.
	// u|1 has u's digit count and at least one.
	u |= 1
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	return n
}

// grow returns b lengthened by n bytes for the caller to overwrite,
// reallocating through append only when the capacity runs out.
//
//imprintvet:hotpath
func grow(b []byte, n int) []byte {
	if l := len(b) + n; l <= cap(b) {
		return b[:l]
	}
	return append(b, "00000000000000000000"[:n]...)
}

// putDecimal writes u's decimal digits right-aligned into d, padding
// with leading zeros; u must have at most len(d) digits.
//
//imprintvet:hotpath
func putDecimal(d []byte, u uint64) {
	i := len(d)
	for ; i >= 2; i -= 2 {
		q := u / 100
		r := (u - q*100) * 2
		d[i-2], d[i-1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if i == 1 {
		d[0] = byte('0' + u)
	}
}

// appendUint appends u in decimal, as strconv.AppendUint does.
//
//imprintvet:hotpath
func appendUint(b []byte, u uint64) []byte {
	l := len(b)
	b = grow(b, decimalLen(u))
	putDecimal(b[l:], u)
	return b
}

// appendInt appends x in decimal, as strconv.AppendInt does.
//
//imprintvet:hotpath
func appendInt(b []byte, x int64) []byte {
	u := uint64(x)
	if x < 0 {
		b = append(b, '-')
		u = -u // MinInt64 wraps to 1<<63, its magnitude
	}
	return appendUint(b, u)
}

// appendFloat appends f the way encoding/json formats a float of the
// given width (ES6 number-to-string: shortest digits, exponent form
// below 1e-6 and from 1e21); NaN and ±Inf, which have no JSON form,
// become null.
//
// A float64 that is the nearest double to a decimal with at most six
// fractional digits, at a magnitude in [1e-6, 1e8), is printed as that
// decimal without strconv, and the bytes are the same: below 1e8
// adjacent doubles lie under 1.5e-8 apart, so at most one such decimal
// rounds to f, and no shorter string can either; |f|·1e6 stays below
// 2^47, where its rounding error (≤ 0.02) cannot carry the nearest
// integer count of millionths c away, and c/1e6 — one correctly
// rounded division of exact operands — is f exactly when that decimal
// exists.
//
//imprintvet:hotpath
func appendFloat(b []byte, f float64, bits int) []byte {
	if bits == 64 {
		if abs := math.Abs(f); abs >= 1e-6 && abs < 1e8 {
			// abs·1e6 + 0.5 is exact below 2^47; truncating it rounds.
			if c := int64(abs*1e6 + 0.5); float64(c)/1e6 == abs {
				if f < 0 {
					b = append(b, '-')
				}
				return appendMillionths(b, uint64(c))
			}
		}
	}
	return appendFloatStrconv(b, f, bits)
}

// appendMillionths appends c/10^6 as a plain decimal: the integer part,
// then, unless it is zero, the fraction without its trailing zeros.
//
//imprintvet:hotpath
func appendMillionths(b []byte, c uint64) []byte {
	whole, frac := c/1e6, c%1e6
	b = appendUint(b, whole)
	if frac == 0 {
		return b
	}
	n := 6
	if frac%1e4 == 0 {
		frac, n = frac/1e4, n-4
	}
	if frac%100 == 0 {
		frac, n = frac/100, n-2
	}
	if frac%10 == 0 {
		frac, n = frac/10, n-1
	}
	l := len(b)
	b = grow(b, 1+n)
	b[l] = '.'
	putDecimal(b[l+1:], frac)
	return b
}

// appendFloatStrconv is appendFloat through strconv, for every value.
//
//imprintvet:hotpath
func appendFloatStrconv(b []byte, f float64, bits int) []byte {
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
