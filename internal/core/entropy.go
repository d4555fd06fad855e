package core

import (
	"math/bits"
	"strings"
)

// Entropy computes the column entropy E of Section 6.1:
//
//	E = sum_{i=2..n} d(i, i-1) / (2 * sum_{i=1..n} b(i))
//
// where d is the edit distance between consecutive per-cacheline imprint
// vectors (bits to set plus bits to unset, i.e. popcount of the XOR) and
// b(i) is the number of set bits of vector i. E is 0 for perfectly
// clustered/ordered columns and approaches 1 for random ones.
func (ix *Index[V]) Entropy() float64 {
	// Each stored vector stands for one cacheline, or a repeat entry's
	// Count; transitions inside a repeat run have distance 0.
	var num, den, prev uint64
	iVec := 0
	for _, e := range ix.dict {
		count := uint64(1)
		if e.Repeat() {
			count = uint64(e.Count())
		}
		for end := iVec + e.vectors(); iVec < end; iVec++ {
			vec := ix.vecs.get(iVec)
			if iVec > 0 {
				num += uint64(bits.OnesCount64(prev ^ vec))
			}
			den += count * uint64(bits.OnesCount64(vec))
			prev = vec
		}
	}
	if ix.pendingCount > 0 {
		if iVec > 0 {
			num += uint64(bits.OnesCount64(prev ^ ix.pendingVec))
		}
		den += uint64(bits.OnesCount64(ix.pendingVec))
	}
	if den == 0 {
		return 0
	}
	return float64(num) / (2 * float64(den))
}

// Fingerprint renders up to maxLines per-cacheline imprint vectors as
// 'x'/'.' rows, reproducing the prints of Figure 3. Each line is Bins
// characters wide; bit 0 (the lowest bin) is leftmost. maxLines <= 0
// renders everything.
func (ix *Index[V]) Fingerprint(maxLines int) string {
	if maxLines <= 0 {
		maxLines = ix.Cachelines()
	}
	var sb strings.Builder
	bins := ix.hist.Bins
	line := make([]byte, bins+1)
	line[bins] = '\n'
	emitted := 0
	render := func(vec uint64) bool {
		for b := 0; b < bins; b++ {
			if vec&(1<<uint(b)) != 0 {
				line[b] = 'x'
			} else {
				line[b] = '.'
			}
		}
		sb.Write(line)
		emitted++
		return emitted < maxLines
	}
	cont := true
	ix.decompress(func(_ int, vec uint64) bool {
		cont = render(vec)
		return cont
	})
	if cont && ix.pendingCount > 0 {
		render(ix.pendingVec)
	}
	return sb.String()
}
