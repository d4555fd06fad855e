package core

import "fmt"

// vecstore is a packed array of imprint vectors. The paper points out
// that a column with low sampled cardinality needs only 8-, 16- or 32-bit
// imprint vectors instead of full 64-bit ones (Section 2.4); storing them
// at their true width keeps the reported index sizes honest. Vectors are
// packed inside a []uint64 arena; widths always divide 64, so a vector
// never straddles a word boundary.
//
// All geometry is powers of two, so indexing compiles to shifts and
// masks — get() is on the query hot path (one call per index probe).
type vecstore struct {
	words []uint64
	n     int    // number of vectors stored
	width uint   // vector width in bits: 8, 16, 32 or 64
	mask  uint64 // width low bits set

	perShift uint // log2(vectors per word)
	slotMask uint // vectors per word - 1
	bitShift uint // log2(width)
}

func newVecstore(widthBits int) vecstore {
	var bitShift uint
	switch widthBits {
	case 8:
		bitShift = 3
	case 16:
		bitShift = 4
	case 32:
		bitShift = 5
	case 64:
		bitShift = 6
	default:
		panic(fmt.Sprintf("core: invalid imprint vector width %d", widthBits))
	}
	var mask uint64
	if widthBits == 64 {
		mask = ^uint64(0)
	} else {
		mask = (uint64(1) << uint(widthBits)) - 1
	}
	perShift := 6 - bitShift // 64/width = 2^(6-bitShift)
	return vecstore{
		width:    uint(widthBits),
		mask:     mask,
		perShift: perShift,
		slotMask: (1 << perShift) - 1,
		bitShift: bitShift,
	}
}

// perWord returns how many vectors fit in one backing word.
func (s *vecstore) perWord() int { return 1 << s.perShift }

// append stores vector v (which must fit in the configured width).
func (s *vecstore) append(v uint64) {
	if v&^s.mask != 0 {
		panic(fmt.Sprintf("core: imprint vector %#x exceeds width %d", v, s.width))
	}
	slot := uint(s.n) & s.slotMask
	if slot == 0 {
		s.words = append(s.words, 0)
	}
	s.words[len(s.words)-1] |= v << (slot << s.bitShift)
	s.n++
}

// get returns vector i.
//
//imprintvet:hotpath
func (s *vecstore) get(i int) uint64 {
	w := s.words[uint(i)>>s.perShift]
	shift := (uint(i) & s.slotMask) << s.bitShift
	return (w >> shift) & s.mask
}

// verdicts tests the n <= 64 vectors from i on against a query mask
// and innermask (Algorithm 3) and returns the outcome as bitmaps: bit j
// of hit is set when vector i+j intersects mask, and of exact when it
// also has no bit outside inner. Full-width vectors — every column with
// more than 32 sampled values — are the words themselves
// (wordVerdicts); narrower ones are read as get reads them, spelled out
// over locals, with two flag-sets and no branch per vector.
//
//imprintvet:hotpath
func (s *vecstore) verdicts(i, n int, mask, inner uint64) (hit, exact uint64) {
	if s.width == 64 {
		return wordVerdicts(s.words[i:i+n], mask, inner)
	}
	words, vmask := s.words, s.mask
	perShift, slotMask, bitShift := s.perShift&63, s.slotMask, s.bitShift&63
	for j := uint(0); j < uint(n); j++ {
		at := uint(i) + j
		vec := words[at>>perShift] >> ((at & slotMask) << bitShift & 63) & vmask
		h := b2u(vec&mask != 0)
		hit |= h << (j & 63)
		exact |= (h & b2u(vec&^inner == 0)) << (j & 63)
	}
	return hit, exact
}

// wordVerdicts is verdicts over up to 64 full-width vectors, a whole
// 64 in lanes (hitLanes, verdictLanes). It skips the exactness bitmap
// when no bin of mask is inner, as for every =/IN on bins that hold
// more than one value: a vector that hits then has a bit outside inner.
//
//imprintvet:hotpath
func wordVerdicts(vecs []uint64, mask, inner uint64) (hit, exact uint64) {
	if len(vecs) == 64 {
		if mask&inner == 0 {
			return hitLanes((*[64]uint64)(vecs), mask), 0
		}
		return verdictLanes((*[64]uint64)(vecs), mask, inner)
	}
	for j, vec := range vecs {
		hit |= b2u(vec&mask != 0) << (uint(j) & 63)
	}
	if mask&inner == 0 {
		return hit, 0
	}
	for j, vec := range vecs {
		exact |= b2u(vec&^inner == 0) << (uint(j) & 63)
	}
	return hit, exact & hit
}

// hitLanes tests 64 vectors against mask, four flag-sets OR-ed together
// per shift into the bitmap, like the table's fixed-width lane kernels:
// the fixed length drops every bounds check.
//
//imprintvet:hotpath
func hitLanes(vecs *[64]uint64, mask uint64) uint64 {
	var hit uint64
	for j := 0; j < 64; j += 4 {
		hit |= (b2u(vecs[j]&mask != 0) | b2u(vecs[j+1]&mask != 0)<<1 |
			b2u(vecs[j+2]&mask != 0)<<2 | b2u(vecs[j+3]&mask != 0)<<3) << uint(j)
	}
	return hit
}

// verdictLanes is hitLanes with the exactness bitmap beside it, tested
// on the same loads.
//
//imprintvet:hotpath
func verdictLanes(vecs *[64]uint64, mask, inner uint64) (hit, exact uint64) {
	outer := ^inner
	for j := 0; j < 64; j += 4 {
		v0, v1, v2, v3 := vecs[j], vecs[j+1], vecs[j+2], vecs[j+3]
		hit |= (b2u(v0&mask != 0) | b2u(v1&mask != 0)<<1 |
			b2u(v2&mask != 0)<<2 | b2u(v3&mask != 0)<<3) << uint(j)
		exact |= (b2u(v0&outer == 0) | b2u(v1&outer == 0)<<1 |
			b2u(v2&outer == 0)<<2 | b2u(v3&outer == 0)<<3) << uint(j)
	}
	return hit, exact & hit
}

// union returns the OR of the n vectors from i on. Full-width vectors —
// every column with more than 32 sampled values — are the words
// themselves.
//
//imprintvet:hotpath
func (s *vecstore) union(i, n int) uint64 {
	words, vmask := s.words, s.mask
	perShift, slotMask, bitShift := s.perShift&63, s.slotMask, s.bitShift&63
	var or uint64
	if s.width == 64 {
		// Four ORs in flight: one chain would wait on each before it.
		ws := s.words[i : i+n]
		var or1, or2, or3 uint64
		for ; len(ws) >= 4; ws = ws[4:] {
			or, or1, or2, or3 = or|ws[0], or1|ws[1], or2|ws[2], or3|ws[3]
		}
		for _, w := range ws {
			or |= w
		}
		return or | or1 | or2 | or3
	}
	for at, end := uint(i), uint(i+n); at < end; at++ {
		or |= words[at>>perShift] >> ((at & slotMask) << bitShift & 63) & vmask
	}
	return or
}

// set overwrites vector i (used by saturation marking, Section 4.2).
func (s *vecstore) set(i int, v uint64) {
	if v&^s.mask != 0 {
		panic(fmt.Sprintf("core: imprint vector %#x exceeds width %d", v, s.width))
	}
	shift := (uint(i) & s.slotMask) << s.bitShift
	w := &s.words[uint(i)>>s.perShift]
	*w = (*w &^ (s.mask << shift)) | v<<shift
}

// last returns the most recently appended vector. It returns 0 when the
// store is empty; imprint vectors of real cachelines are never zero (every
// value sets at least one bin bit), so 0 doubles as "no previous vector".
func (s *vecstore) last() uint64 {
	if s.n == 0 {
		return 0
	}
	return s.get(s.n - 1)
}

// len returns the number of stored vectors.
func (s *vecstore) len() int { return s.n }

// sizeBytes returns the payload footprint: n vectors at width bits each,
// rounded up to whole words as allocated.
func (s *vecstore) sizeBytes() int64 { return int64(len(s.words)) * 8 }
