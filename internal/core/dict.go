package core

import "fmt"

// DictEntry is one entry of the cacheline dictionary (the paper's
// cache_dict struct): a 32-bit value packing a 24-bit cacheline counter,
// the repeat flag, and 7 unused flag bits reserved for future use.
//
// With repeat unset, the next Count() cachelines each map to their own
// stored imprint vector (Count vectors consumed). With repeat set, the
// next Count() cachelines all share one stored imprint vector.
type DictEntry uint32

// MaxCount is the largest cacheline count a single dictionary entry can
// hold (2^24 - 1); longer runs simply span several entries.
const MaxCount = 1<<24 - 1

const repeatBit = 1 << 24

// makeEntry builds an entry from a count and repeat flag.
func makeEntry(count uint32, repeat bool) DictEntry {
	if count > MaxCount {
		panic(fmt.Sprintf("core: dictionary count %d exceeds 24 bits", count))
	}
	e := DictEntry(count)
	if repeat {
		e |= repeatBit
	}
	return e
}

// Count returns the number of cachelines this entry covers.
func (e DictEntry) Count() uint32 { return uint32(e) & MaxCount }

// Repeat reports whether the covered cachelines share one imprint vector.
func (e DictEntry) Repeat() bool { return e&repeatBit != 0 }

// vectors returns how many stored vectors the entry covers: one for a
// repeat, Count otherwise — without a branch, which the probe's walk
// could not predict on a dictionary that alternates the two.
func (e DictEntry) vectors() int {
	cnt, repeat := int(e&MaxCount), int(e&repeatBit>>24)
	return 1 + (cnt-1)&(repeat-1)
}

// String renders the entry for debugging: "7×distinct" or "13×repeat".
func (e DictEntry) String() string {
	if e.Repeat() {
		return fmt.Sprintf("%d×repeat", e.Count())
	}
	return fmt.Sprintf("%d×distinct", e.Count())
}

// commit pushes the imprint vector of one completed cacheline through the
// compression state machine of Algorithm 1. It either extends the current
// dictionary entry or opens a new one, storing the vector only when it
// differs from the previous cacheline's vector (or when a counter
// saturates).
func (ix *Index[V]) commit(vec uint64) {
	if len(ix.dict) == 0 {
		ix.vecs.append(vec)
		ix.dict = append(ix.dict, makeEntry(1, false))
		ix.committed++
		return
	}
	d := len(ix.dict) - 1
	e := ix.dict[d]
	if vec == ix.vecs.last() && e.Count() < MaxCount {
		// Same imprint as the previous cacheline: fold into a repeat run.
		if !e.Repeat() {
			if e.Count() != 1 {
				// The previous cacheline leaves the distinct group and
				// seeds a fresh repeat entry.
				ix.dict[d] = makeEntry(e.Count()-1, false)
				ix.dict = append(ix.dict, makeEntry(1, true))
				d++
			} else {
				ix.dict[d] = makeEntry(1, true)
			}
		}
		ix.dict[d] = makeEntry(ix.dict[d].Count()+1, true)
	} else {
		// Different imprint (or a saturated counter): store the vector.
		ix.vecs.append(vec)
		if !e.Repeat() && e.Count() < MaxCount {
			ix.dict[d] = makeEntry(e.Count()+1, false)
		} else {
			ix.dict = append(ix.dict, makeEntry(1, false))
		}
	}
	ix.committed++
}

// decompress iterates the per-cacheline imprint vector stream hidden
// behind the dictionary compression, calling f(cacheline, vec) for every
// committed cacheline in order. It stops early if f returns false.
// The trailing partial cacheline (if any) is NOT visited; use
// PendingVector for it.
func (ix *Index[V]) decompress(f func(cl int, vec uint64) bool) {
	iVec, cl := 0, 0
	for _, e := range ix.dict {
		cnt := int(e.Count())
		if e.Repeat() {
			vec := ix.vecs.get(iVec)
			iVec++
			for j := 0; j < cnt; j++ {
				if !f(cl, vec) {
					return
				}
				cl++
			}
		} else {
			for j := 0; j < cnt; j++ {
				if !f(cl, ix.vecs.get(iVec)) {
					return
				}
				iVec++
				cl++
			}
		}
	}
}
