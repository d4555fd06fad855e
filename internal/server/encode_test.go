package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/sql"
	"repro/table"
)

// refResponse is the reflected shape /query replies had when rows were
// [][]any: the hand encoder must reproduce encoding/json's bytes for it.
type refResponse struct {
	Query     string           `json:"query"`
	Table     string           `json:"table"`
	Columns   []string         `json:"columns"`
	Rows      [][]any          `json:"rows"`
	RowCount  int              `json:"row_count"`
	Stats     *core.QueryStats `json:"stats,omitempty"`
	Cached    bool             `json:"cached"`
	ElapsedUs int64            `json:"elapsed_us"`
}

// refEncode renders resp through encoding/json the way writeJSON does
// (no HTML escaping); non-finite floats, which encoding/json rejects,
// are nulled first — the one place the hand encoder departs from it.
func refEncode(t testing.TB, resp *QueryResponse) []byte {
	t.Helper()
	rows := resp.Result.Rows()
	for _, row := range rows {
		for i, v := range row {
			switch f := v.(type) {
			case float64:
				if math.IsNaN(f) || math.IsInf(f, 0) {
					row[i] = nil
				}
			case float32:
				if f64 := float64(f); math.IsNaN(f64) || math.IsInf(f64, 0) {
					row[i] = nil
				}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(refResponse{
		Query: resp.Query, Table: resp.Table, Columns: resp.Columns, Rows: rows,
		RowCount: resp.RowCount, Stats: resp.Stats, Cached: resp.Cached, ElapsedUs: resp.ElapsedUs,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkEncoding(t testing.TB, resp *QueryResponse) {
	t.Helper()
	got := appendQueryResponse(nil, resp)
	if want := refEncode(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("hand encoder diverges from encoding/json:\n got %s\nwant %s", got, want)
	}
	if !json.Valid(got) {
		t.Fatalf("invalid JSON: %s", got)
	}
}

var encStrings = []string{
	"", "plain", `quo"te`, `back\slash`, "ctl\x00\x01\x1f", "\b\f\n\r\t", "\x7f", "<a href='x'>&amp;</a>",
	"bad\xff\xfeutf", "trunc\xe2\x82", "\xc0\xaf", "sep\u2028\u2029end", "héllo wörld ☃ 日本", "\U0001F600", "\ufffd",
}

var encFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 123456789.125, 100, 1e6,
	1e-6, 9.99999e-7, 9.999999999999999e-7, 1e-7, 1.5e-9, 5e-324,
	1e20, 9.99e20, 999999999999999900000, 1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAppendJSONMatchesEncodingJSON holds the hand encoder against
// encoding/json over every cell kind and the edge values of each.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	ints := []int64{0, 1, -1, 42, math.MaxInt8, math.MinInt8, math.MaxInt16, math.MinInt16,
		math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	uints := []uint64{0, 1, math.MaxUint8, math.MaxUint16, math.MaxUint32, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64}
	var cols []table.ColVec
	var names []string
	n := len(encFloats)
	cycle := func(k, i int) int { return i % k }
	for _, bits := range []int{8, 16, 32, 64} {
		iv := table.ColVec{Kind: table.KindInt, Bits: bits}
		uv := table.ColVec{Kind: table.KindUint, Bits: bits}
		for i := 0; i < n; i++ {
			// Values a column of that width can hold: truncate to it.
			x, u := ints[cycle(len(ints), i)], uints[cycle(len(uints), i)]
			switch bits {
			case 8:
				x, u = int64(int8(x)), uint64(uint8(u))
			case 16:
				x, u = int64(int16(x)), uint64(uint16(u))
			case 32:
				x, u = int64(int32(x)), uint64(uint32(u))
			}
			iv.Ints = append(iv.Ints, x)
			uv.Uints = append(uv.Uints, u)
		}
		cols = append(cols, iv, uv)
		names = append(names, "i", "u")
	}
	f64 := table.ColVec{Kind: table.KindFloat, Bits: 64}
	f32 := table.ColVec{Kind: table.KindFloat, Bits: 32}
	for _, f := range encFloats {
		f64.Floats = append(f64.Floats, f)
		f32.Floats = append(f32.Floats, float64(float32(f)))
	}
	// float32's own switch-over neighbourhood: the nearest float32s
	// around 1e-6 and 1e21 are not the float64 ones.
	f32edge := table.ColVec{Kind: table.KindFloat, Bits: 32}
	for i := 0; i < n; i++ {
		base := []float32{1e-6, 1e21, 16777216, 3.4028235e38, 1e-45}[i%5]
		f := math.Nextafter32(base, float32(math.Inf(1-2*(i/5%2))))
		if i/10%2 == 0 {
			f = base
		}
		f32edge.Floats = append(f32edge.Floats, float64(f))
	}
	sv := table.ColVec{Kind: table.KindString}
	nullable := table.ColVec{Kind: table.KindFloat, Bits: 64, Null: make([]bool, n)}
	nullStr := table.ColVec{Kind: table.KindString, Null: make([]bool, n)}
	for i := 0; i < n; i++ {
		sv.Strs = append(sv.Strs, encStrings[cycle(len(encStrings), i)])
		nullable.Floats = append(nullable.Floats, float64(i)/4)
		nullable.Null[i] = i%3 == 0
		nullStr.Strs = append(nullStr.Strs, "s")
		nullStr.Null[i] = i%2 == 1
	}
	cols = append(cols, f64, f32, f32edge, sv, nullable, nullStr)
	names = append(names, "f64", "f32", "f32edge", "str", "nullable", "nullstr")

	batch := &table.RowBatch{Cols: cols}
	res := &sql.Result{Table: `t"ab\le`, Columns: names, RowCount: 2 * n, Batches: []*table.RowBatch{batch, batch},
		Stats: &core.QueryStats{Probes: 3, DeltaRowsScanned: math.MaxUint64}}
	checkEncoding(t, &QueryResponse{Query: "SELECT   <x> \"q\"", Result: res, Cached: true, ElapsedUs: 12345})

	// No rows is an empty array, not null; no stats omits the field.
	checkEncoding(t, &QueryResponse{Query: "q", Result: &sql.Result{Table: "t", Columns: []string{"a"}}, ElapsedUs: -1})
}

// FuzzAppendJSON throws arbitrary strings, floats (both widths) and
// integers at the hand encoder; it must agree with encoding/json byte
// for byte.
func FuzzAppendJSON(f *testing.F) {
	for i, s := range encStrings {
		f.Add(s, math.Float64bits(encFloats[i%len(encFloats)]), int64(i)-3, uint64(i)<<60, i%2 == 0)
	}
	for _, x := range encFloats {
		f.Add("x", math.Float64bits(x), int64(math.MinInt64), uint64(math.MaxUint64), false)
	}
	f.Fuzz(func(t *testing.T, s string, fbits uint64, i int64, u uint64, null bool) {
		x := math.Float64frombits(fbits)
		cols := []table.ColVec{
			{Kind: table.KindString, Strs: []string{s}},
			{Kind: table.KindFloat, Bits: 64, Floats: []float64{x}},
			{Kind: table.KindFloat, Bits: 32, Floats: []float64{float64(float32(x))}},
			{Kind: table.KindInt, Bits: 64, Ints: []int64{i}},
			{Kind: table.KindInt, Bits: 16, Ints: []int64{int64(int16(i))}},
			{Kind: table.KindUint, Bits: 64, Uints: []uint64{u}},
			{Kind: table.KindUint, Bits: 8, Uints: []uint64{uint64(uint8(u))}},
			{Kind: table.KindFloat, Bits: 64, Floats: []float64{x}, Null: []bool{null}},
		}
		res := &sql.Result{Table: s, Columns: []string{s, "f64", "f32", "i64", "i16", "u64", "u8", "n"},
			RowCount: 1, Batches: []*table.RowBatch{{Cols: cols}}}
		checkEncoding(t, &QueryResponse{Query: s, Result: res, Cached: null, ElapsedUs: i})
	})
}

// TestAppendDecimalMatchesStrconv holds appendFloat's decimal fast path
// to the strconv path it bypasses (itself held to encoding/json above):
// every c/10^k for |c| ≤ 2·10^6 and k 0–7, short decimals up to 1e8 at
// random, random bit patterns, the neighbours of the cutoffs, -0 and
// subnormals must print the same bytes either way.
func TestAppendDecimalMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(f float64) {
		t.Helper()
		got = appendFloat(got[:0], f, 64)
		want = appendFloatStrconv(want[:0], f, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#016x): fast path %s, strconv %s", f, math.Float64bits(f), got, want)
		}
	}
	step := int64(1)
	if raceEnabled || testing.Short() {
		step = 13
	}
	for k := 0; k <= 7; k++ {
		p := math.Pow10(k)
		for c := int64(-2e6); c <= 2e6; c += step {
			check(float64(c) / p) // exact operands: the nearest double to c/10^k
		}
	}
	rng := rand.New(rand.NewPCG(29, 1))
	for i := 0; i < 200_000; i++ {
		check(float64(rng.Int64N(2e14)-1e14) / math.Pow10(rng.IntN(8)))
		check(math.Float64frombits(rng.Uint64()))
	}
	for _, x := range []float64{1e-6, 1e8, 1e21, 1 << 53} {
		for _, f := range []float64{x, -x} {
			lo, hi := f, f
			for i := 0; i < 256; i++ {
				check(lo)
				check(hi)
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			}
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0), 1e-310} {
		check(f)
	}
}

// FuzzAppendDecimal aims the fast path where FuzzAppendJSON's random
// bit patterns almost never land: the double nearest c·10^-k, which for
// small k is a short decimal. It must encode as encoding/json does.
func FuzzAppendDecimal(f *testing.F) {
	for _, s := range []struct {
		c int64
		k uint8
	}{{0, 0}, {1, 6}, {-1, 6}, {12345, 2}, {99999999999999, 6}, {99999999999999, 7}, {100000000, 0},
		{1 << 53, 0}, {math.MaxInt64, 6}, {math.MinInt64, 3}, {1, 7}, {9999995, 13}} {
		f.Add(s.c, s.k)
	}
	f.Fuzz(func(t *testing.T, c int64, k uint8) {
		x, err := strconv.ParseFloat(strconv.FormatInt(c, 10)+"e-"+strconv.Itoa(int(k%16)), 64)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, x, 64); !bytes.Equal(got, want) {
			t.Fatalf("%de-%d = %v: got %s, want %s", c, k%16, x, got, want)
		}
	})
}

// TestAppendIntMatchesStrconv holds the digit-pair writers to strconv
// at every digit-count and bit-length boundary and at random.
func TestAppendIntMatchesStrconv(t *testing.T) {
	var us []uint64
	for k := 0; k < 20; k++ {
		p := pow10[k]
		us = append(us, p-1, p, p+1)
	}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		us = append(us, p-1, p, p+1)
	}
	rng := rand.New(rand.NewPCG(29, 2))
	for i := 0; i < 10_000; i++ {
		us = append(us, rng.Uint64()>>rng.IntN(64))
	}
	us = append(us, math.MaxUint64)
	var got []byte
	for _, u := range us {
		if got = appendUint(got[:0], u); string(got) != strconv.FormatUint(u, 10) {
			t.Fatalf("appendUint(%d) = %s", u, got)
		}
		for _, x := range []int64{int64(u), -int64(u)} {
			if got = appendInt(got[:0], x); string(got) != strconv.FormatInt(x, 10) {
				t.Fatalf("appendInt(%d) = %s", x, got)
			}
		}
	}
}

// TestAppendStatsMatchesEncodingJSON sets every QueryStats field to a
// distinct value and requires appendStats to match encoding/json: a
// field added to the struct and not to appendStats fails here.
func TestAppendStatsMatchesEncodingJSON(t *testing.T) {
	var st core.QueryStats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("QueryStats.%s is a %s: appendStats writes uint64 fields only", v.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(uint64(i+1)*1_000_003 + uint64(i)<<59)
	}
	want, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendStats(nil, &st); !bytes.Equal(got, want) {
		t.Fatalf("appendStats diverges from encoding/json:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkAppendQueryResponse encodes a fetch-rows reply: 2,000 rows of
// ts, qty, price, pri, city (int64 near 1e7, uniform int64 below 1e6, a
// random walk in cents, uint8 below 5, a short city name) in 1,024-row
// batches — about 68 KB, allocation-free into a reused buffer.
func BenchmarkAppendQueryResponse(b *testing.B) {
	const rows, batchRows = 2000, 1024
	rng := rand.New(rand.NewPCG(42, 1))
	res := &sql.Result{Table: "orders", Columns: []string{"ts", "qty", "price", "pri", "city"}, RowCount: rows}
	price := 500.0
	for lo := 0; lo < rows; lo += batchRows {
		n := min(batchRows, rows-lo)
		cols := []table.ColVec{
			{Kind: table.KindInt, Bits: 64, Ints: make([]int64, n)},
			{Kind: table.KindInt, Bits: 64, Ints: make([]int64, n)},
			{Kind: table.KindFloat, Bits: 64, Floats: make([]float64, n)},
			{Kind: table.KindUint, Bits: 8, Uints: make([]uint64, n)},
			{Kind: table.KindString, Strs: make([]string, n)},
		}
		for i := 0; i < n; i++ {
			price = math.Min(math.Max(price+(rng.Float64()-0.5)*4, 1), 1000)
			cols[0].Ints[i] = int64(1_000_000+lo+i)*10 + rng.Int64N(1000)
			cols[1].Ints[i] = rng.Int64N(1_000_000)
			cols[2].Floats[i] = math.Round(price*100) / 100
			cols[3].Uints[i] = uint64(rng.IntN(5))
			cols[4].Strs[i] = []string{"af", "as", "eu", "na", "sa"}[rng.IntN(5)] + "-" + strconv.Itoa(rng.IntN(8))
		}
		res.Batches = append(res.Batches, &table.RowBatch{Cols: cols})
	}
	resp := &QueryResponse{
		Query:  "SELECT ts, qty, price, pri, city FROM orders WHERE ts >= $lo AND ts < $hi LIMIT 2000",
		Result: res, ElapsedUs: 1234,
	}
	buf := appendQueryResponse(nil, resp)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendQueryResponse(buf[:0], resp)
	}
}

// TestReplyPoolCap pins the pool hygiene: a reply buffer that grew past
// maxPooledReply is dropped, so the next reply starts from a small one
// instead of inheriting (and pinning) the huge allocation.
func TestReplyPoolCap(t *testing.T) {
	huge := getReplyBuf()
	*huge = append(*huge, make([]byte, 4*maxPooledReply)...)
	putReplyBuf(huge)
	for i := 0; i < 8; i++ {
		p := getReplyBuf()
		if len(*p) != 0 {
			t.Fatalf("pooled buffer has %d stale bytes", len(*p))
		}
		if cap(*p) > maxPooledReply {
			t.Fatalf("pool handed back a %d-byte buffer after an oversized reply (cap %d)", cap(*p), maxPooledReply)
		}
		defer putReplyBuf(p)
	}
	// A buffer within the cap is recycled, emptied.
	small := getReplyBuf()
	*small = append(*small, "reply"...)
	putReplyBuf(small)
	if len(*small) != 0 {
		t.Fatalf("recycled buffer keeps %d bytes", len(*small))
	}
}
