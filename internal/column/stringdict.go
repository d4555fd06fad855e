package column

import (
	"fmt"
	"sort"
)

// StringDict dictionary-encodes a string attribute into an int32 code
// column so that secondary indexes (which operate on fixed-width values)
// can cover it. This mirrors how column stores such as MonetDB handle the
// "str" columns that appear in the paper's Airtraffic and TPC-H datasets.
//
// Codes are assigned in lexicographic order of the distinct strings, so
// range predicates on strings translate directly to range predicates on
// codes.
type StringDict struct {
	codes   *Column[int32]
	symbols []string // sorted; code i maps to symbols[i]
}

// EncodeStrings builds a dictionary-encoded column from vals.
func EncodeStrings(name string, vals []string) *StringDict {
	uniq := make(map[string]int32, 64)
	for _, s := range vals {
		uniq[s] = 0
	}
	symbols := make([]string, 0, len(uniq))
	for s := range uniq {
		symbols = append(symbols, s)
	}
	sort.Strings(symbols)
	for i, s := range symbols {
		uniq[s] = int32(i)
	}
	codes := make([]int32, len(vals))
	for i, s := range vals {
		codes[i] = uniq[s]
	}
	return &StringDict{codes: New(name, codes), symbols: symbols}
}

// Reconstruct rebuilds a dictionary from persisted parts: the code
// column and the sorted distinct symbols. It validates the invariants
// EncodeStrings guarantees (symbols strictly ascending, codes in range).
func Reconstruct(name string, codes []int32, symbols []string) (*StringDict, error) {
	for i := 1; i < len(symbols); i++ {
		if symbols[i-1] >= symbols[i] {
			return nil, fmt.Errorf("column %s: symbols not strictly sorted at %d", name, i)
		}
	}
	for i, c := range codes {
		if c < 0 || int(c) >= len(symbols) {
			return nil, fmt.Errorf("column %s: code %d at row %d out of range", name, c, i)
		}
	}
	return &StringDict{codes: New(name, codes), symbols: symbols}, nil
}

// Codes returns the int32 code column; build indexes over this.
func (d *StringDict) Codes() *Column[int32] { return d.codes }

// Code returns the code of an exact symbol, or ok=false when the string
// is not in the dictionary.
func (d *StringDict) Code(s string) (int32, bool) {
	i := sort.SearchStrings(d.symbols, s)
	if i < len(d.symbols) && d.symbols[i] == s {
		return int32(i), true
	}
	return 0, false
}

// SearchCode returns the code of the first symbol >= s; it equals
// Cardinality when every symbol sorts before s. Because codes are
// assigned in symbol order, [SearchCode(lo), SearchCode(hi)) is exactly
// the code interval of the string range [lo, hi).
func (d *StringDict) SearchCode(s string) int32 {
	return int32(sort.SearchStrings(d.symbols, s))
}

// Symbol returns the string for a code.
func (d *StringDict) Symbol(code int32) string { return d.symbols[code] }

// Symbols returns the distinct strings indexed by code (ascending);
// the slice is the dictionary's own — treat it as read-only.
func (d *StringDict) Symbols() []string { return d.symbols }

// Cardinality returns the number of distinct strings.
func (d *StringDict) Cardinality() int { return len(d.symbols) }

// CodeRange translates an inclusive string range [lo, hi] into a
// half-open code range [loCode, hiCode) suitable for index queries.
// ok is false when no dictionary entry falls inside the range.
func (d *StringDict) CodeRange(lo, hi string) (loCode, hiCode int32, ok bool) {
	l := sort.SearchStrings(d.symbols, lo)
	h := sort.Search(len(d.symbols), func(i int) bool { return d.symbols[i] > hi })
	if l >= h {
		return 0, 0, false
	}
	return int32(l), int32(h), true
}

// CodeRangeExclusive translates the half-open string range [lo, hi)
// into a half-open code range. ok is false when no entry qualifies.
func (d *StringDict) CodeRangeExclusive(lo, hi string) (loCode, hiCode int32, ok bool) {
	l := sort.SearchStrings(d.symbols, lo)
	h := sort.SearchStrings(d.symbols, hi)
	if l >= h {
		return 0, 0, false
	}
	return int32(l), int32(h), true
}

// PrefixCodeRange translates a prefix match into the half-open code
// interval [lo, hi) of symbols starting with prefix: matching strings
// form the range [prefix, upper) where upper is prefix with its last
// byte incremented (prefixes ending in 0xFF bytes shorten first; a
// prefix of only 0xFF bytes matches every symbol >= itself). ok is
// false when no symbol matches.
func (d *StringDict) PrefixCodeRange(prefix string) (lo, hi int32, ok bool) {
	card := int32(len(d.symbols))
	if prefix == "" {
		return 0, card, card > 0
	}
	lo = d.SearchCode(prefix)
	upper := []byte(prefix)
	for len(upper) > 0 && upper[len(upper)-1] == 0xFF {
		upper = upper[:len(upper)-1]
	}
	if len(upper) == 0 {
		return lo, card, lo < card
	}
	upper[len(upper)-1]++
	hi = d.SearchCode(string(upper))
	return lo, hi, lo < hi
}

// SizeBytes returns the payload size: codes plus dictionary strings.
func (d *StringDict) SizeBytes() int64 {
	n := d.codes.SizeBytes()
	for _, s := range d.symbols {
		n += int64(len(s))
	}
	return n
}
