package core

import (
	"math/bits"

	"repro/internal/coltype"
)

// CandidateRun is a maximal run of consecutive cachelines that may
// contain qualifying values. Exact runs are cachelines whose every value
// is guaranteed to qualify (the innermask fast path), so materialization
// can skip the false-positive check. Candidate runs are the currency of
// the late-materialization strategy of Section 3: for multi-attribute
// conjunctions the per-column runs are merge-joined *before* any value is
// touched, and only the surviving cachelines are checked.
type CandidateRun struct {
	Start uint32 // first cacheline number of the run
	Count uint32 // number of consecutive cachelines
	Exact bool   // every value in the run qualifies
}

// Masks is a predicate bound to one index's histogram — Algorithm 3's
// query mask and innermask: Mask has a bit for every bin that may hold
// a qualifying value, Inner for every bin lying entirely inside the
// predicate. An imprint vector disjoint from Mask rules its cachelines
// out; one with no bit outside Inner guarantees every value qualifies.
// Build one with RangeMasks/AtLeastMasks/LessThanMasks/PointMasks/
// InSetMasks and hand it to RunsInto (the probe) or ResidualShare (the
// access-path sample); it is only meaningful against the index that
// built it.
type Masks struct{ Mask, Inner uint64 }

func (ix *Index[V]) bind(p pred[V]) Masks {
	mask, inner := ix.masks(&p)
	return Masks{Mask: mask, Inner: inner}
}

// RangeMasks binds low <= v < high.
func (ix *Index[V]) RangeMasks(low, high V) Masks {
	return ix.bind(pred[V]{low: low, high: high, lowIncl: true})
}

// AtLeastMasks binds v >= low.
func (ix *Index[V]) AtLeastMasks(low V) Masks {
	return ix.bind(pred[V]{low: low, lowIncl: true, highUnb: true})
}

// LessThanMasks binds v < high.
func (ix *Index[V]) LessThanMasks(high V) Masks {
	return ix.bind(pred[V]{high: high, lowUnb: true})
}

// PointMasks binds v == x.
func (ix *Index[V]) PointMasks(x V) Masks {
	return ix.bind(pred[V]{low: x, high: x, lowIncl: true, highIncl: true})
}

// InSetMasks binds v in set: the bin bit of every member. Equality is
// never inner (a bin may hold neighbors), so every matching cacheline
// is checked.
func (ix *Index[V]) InSetMasks(set []V) Masks {
	var m Masks
	for _, v := range set {
		m.Mask |= 1 << uint(ix.hist.Bin(v))
	}
	return m
}

// RangeCachelines evaluates [low, high) down to a candidate cacheline
// list without materializing ids.
func (ix *Index[V]) RangeCachelines(low, high V) ([]CandidateRun, QueryStats) {
	return ix.RangeCachelinesInto(nil, low, high)
}

// RangeCachelinesInto is RangeCachelines appending into dst (pass a
// recycled buffer truncated to length 0 to avoid the allocation).
func (ix *Index[V]) RangeCachelinesInto(dst []CandidateRun, low, high V) ([]CandidateRun, QueryStats) {
	return ix.RunsInto(dst, ix.RangeMasks(low, high), 1, nil)
}

// AtLeastCachelines evaluates v >= low down to candidate cachelines.
func (ix *Index[V]) AtLeastCachelines(low V) ([]CandidateRun, QueryStats) {
	return ix.AtLeastCachelinesInto(nil, low)
}

// AtLeastCachelinesInto is AtLeastCachelines appending into dst.
func (ix *Index[V]) AtLeastCachelinesInto(dst []CandidateRun, low V) ([]CandidateRun, QueryStats) {
	return ix.RunsInto(dst, ix.AtLeastMasks(low), 1, nil)
}

// LessThanCachelines evaluates v < high down to candidate cachelines.
func (ix *Index[V]) LessThanCachelines(high V) ([]CandidateRun, QueryStats) {
	return ix.LessThanCachelinesInto(nil, high)
}

// LessThanCachelinesInto is LessThanCachelines appending into dst.
func (ix *Index[V]) LessThanCachelinesInto(dst []CandidateRun, high V) ([]CandidateRun, QueryStats) {
	return ix.RunsInto(dst, ix.LessThanMasks(high), 1, nil)
}

// PointCachelines evaluates v == x down to candidate cachelines.
func (ix *Index[V]) PointCachelines(x V) ([]CandidateRun, QueryStats) {
	return ix.PointCachelinesInto(nil, x)
}

// PointCachelinesInto is PointCachelines appending into dst.
func (ix *Index[V]) PointCachelinesInto(dst []CandidateRun, x V) ([]CandidateRun, QueryStats) {
	return ix.RunsInto(dst, ix.PointMasks(x), 1, nil)
}

// InSetCachelines reduces an IN-list to candidate cachelines for late
// materialization.
func (ix *Index[V]) InSetCachelines(set []V) ([]CandidateRun, QueryStats) {
	return ix.InSetCachelinesInto(nil, set)
}

// InSetCachelinesInto is InSetCachelines appending into dst. An empty
// set selects nothing and probes nothing.
func (ix *Index[V]) InSetCachelinesInto(dst []CandidateRun, set []V) ([]CandidateRun, QueryStats) {
	if len(set) == 0 {
		return dst, QueryStats{}
	}
	return ix.RunsInto(dst, ix.InSetMasks(set), 1, nil)
}

// b2u is the flag-set behind the probe's branch-free verdict bitmaps.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RunsInto is the one dictionary walk behind every candidate-run probe:
// it tests each stored imprint vector against m and appends to dst the
// maximal runs of candidate units, a unit being `unit` consecutive
// cachelines (aligned at multiples of unit; the last may be short). A
// unit is a candidate when any of its cachelines is, and Exact only
// when every one of its cachelines is an exact candidate — the trailing
// partial cacheline never is — so coarsening can only grow candidacy
// and shrink exactness, both sound. Unit 1 is the paper's cacheline
// probe; the table layer asks for its 64-row evaluation block
// (Section 2.3: size the imprint's verdict to the engine's access
// granularity) instead of renormalizing a cacheline list afterwards.
// QueryStats count cachelines and stored-vector probes whatever the
// unit, which must be a power of two up to 64 — every divisor of the
// table's 64-row block is — so that the walk splits dictionary entries
// at unit boundaries with shifts and folds 64 verdicts to a word.
//
// The walk costs what changes, not what the dictionary holds. Stored
// vectors are tested in lanes, a window of probeWindow words of hit and
// exact bitmaps at a time; then the dictionary is walked by arithmetic
// alone (each entry advances the cacheline by its count, the vector by
// one or its count) up to the entry holding the next vector whose
// verdict differs, found by a trailing-zero scan of the bitmaps. A
// same-verdict stretch is one add, however many entries it spans, and
// a distinct entry holding a change is one feed of its bits. A long
// distinct entry — all an incompressible column has — is not bitmapped
// ahead but tested and fed 64 vectors at a time as the walk reaches it,
// so equality on such a column still tests each vector once.
//
// The same walk also yields the verdicts a unit coarsens away: when
// hits is not nil, RunsInto overwrites its first HitWords() words with
// one bit per cacheline, bit c set iff cacheline c's vector meets the
// mask (exact ones included). A caller that checks a candidate unit's
// values reads from it which cachelines can hold a qualifying value —
// Algorithm 3's per-cacheline residual — while it walks the units.
// Pass nil when only the runs are wanted, as every unit-1 caller does;
// the buffer is the caller's, so the walk allocates nothing either way.
//
//imprintvet:hotpath
func (ix *Index[V]) RunsInto(dst []CandidateRun, m Masks, unit int, hits []uint64) ([]CandidateRun, QueryStats) {
	if unit < 1 || unit > 64 || unit&(unit-1) != 0 {
		panic("core: probe unit must be a power of two in [1, 64]")
	}
	w := unitWalk{mask: m.Mask, inner: m.Inner, f: unit, shift: uint(bits.TrailingZeros(uint(unit))),
		runs: dst, base: len(dst)}
	if hits != nil {
		w.hits = hits[:ix.HitWords()]
		clear(w.hits)
	}
	var win verdictWindow
	var cur, curX uint64 // the verdict of the stretch being walked, all ones or zero
	dict := ix.dict
	cl, iVec := 0, 0
	for d := 0; d < len(dict); {
		// Vectors before p share the stretch's verdict: walk the entries
		// that hold only those.
		p := win.nextChange(iVec, cur, curX)
		for ; d < len(dict); d++ {
			e := dict[d]
			if iVec+e.vectors() > p {
				break
			}
			cl += int(e.Count())
			iVec += e.vectors()
		}
		if cl > w.cl {
			w.add(cur != 0, curX != 0, cl-w.cl)
		}
		if d == len(dict) {
			break
		}
		e := dict[d]
		cnt := int(e.Count())
		switch {
		case e.vectors() < 64 && iVec+e.vectors() > win.hi:
			win.fill(&ix.vecs, iVec, w.mask, w.inner)
		case e.Repeat():
			// The change is this entry's vector: a new stretch begins.
			hit, exact := win.bits(iVec, 1)
			cur, curX = -hit, -exact
		default:
			// A word of verdicts at a time, the first batch ending on a
			// unit boundary so that the others hold whole units only. A
			// long entry past the window is tested as the walk reaches it.
			var hit, exact uint64
			n := 0
			for end := iVec + cnt; iVec < end; iVec += n {
				n = min(end-iVec, 64-w.cl&(unit-1))
				if iVec+n <= win.hi {
					hit, exact = win.bits(iVec, n)
				} else {
					hit, exact = ix.vecs.verdicts(iVec, n, w.mask, w.inner)
				}
				w.feed(hit, exact, n)
			}
			// The stretch after the entry likely keeps its last verdict.
			cur, curX = -(hit >> (n - 1) & 1), -(exact >> (n - 1) & 1)
			cl += cnt
			d++
		}
	}
	probes := ix.vecs.len()
	if ix.pendingCount > 0 {
		// The partial tail is never exact: its cacheline is not full.
		probes++
		w.add(ix.pendingVec&w.mask != 0, false, 1)
	}
	if fill := w.cl & (unit - 1); fill > 0 && w.uHit > 0 {
		// The column ends inside a unit: exact when all it holds is.
		w.push(w.cl>>w.shift, 1, w.uExact == fill)
	}
	return w.runs, QueryStats{
		Probes:            uint64(probes),
		CachelinesExact:   uint64(w.exactCl),
		CachelinesScanned: uint64(w.hitCl - w.exactCl),
		CachelinesSkipped: uint64(ix.Cachelines() - w.hitCl),
	}
}

// HitWords is how many words RunsInto's per-cacheline hit bitmap takes:
// one bit for every cacheline, the partial tail included.
func (ix *Index[V]) HitWords() int { return (ix.Cachelines() + 63) / 64 }

// probeWindow is how many words of verdict bitmaps RunsInto keeps on
// its stack: the verdicts of 4,096 consecutive stored vectors.
const probeWindow = 64

// verdictWindow holds the verdicts of stored vectors [lo, hi) as
// bitmaps, bit i-lo standing for vector i.
type verdictWindow struct {
	hit, exact [probeWindow]uint64
	lo, hi     int
}

// fill tests the vectors from i on, as many as the window holds, 64 at
// a time. Misses cluster — they are most of what a selective probe
// reads — so after a batch of misses the next is first ORed together:
// when the union misses the mask, so does every vector, for one OR
// each.
//
//imprintvet:hotpath
func (v *verdictWindow) fill(vs *vecstore, i int, mask, inner uint64) {
	v.lo, v.hi = i, min(vs.len(), i+probeWindow*64)
	hit := uint64(0)
	for k := 0; i < v.hi; k, i = k+1, i+64 {
		n := min(64, v.hi-i)
		exact := uint64(0)
		if hit != 0 || vs.union(i, n)&mask != 0 {
			hit, exact = vs.verdicts(i, n, mask, inner)
		}
		v.hit[k&(probeWindow-1)], v.exact[k&(probeWindow-1)] = hit, exact
	}
}

// nextChange returns the first vector from i on whose verdict is not
// (cur, curX) — each all ones or zero — or hi when the window holds
// none.
//
//imprintvet:hotpath
func (v *verdictWindow) nextChange(i int, cur, curX uint64) int {
	if i >= v.hi {
		return v.hi
	}
	at := uint(i - v.lo)
	before := lowBits(at & 63) // the vectors ahead of i in its word
	for k := at >> 6; int(k<<6) < v.hi-v.lo; k++ {
		if diff := ((v.hit[k&(probeWindow-1)] ^ cur) | (v.exact[k&(probeWindow-1)] ^ curX)) &^ before; diff != 0 {
			return min(v.lo+int(k<<6)+bits.TrailingZeros64(diff), v.hi) // bits past hi are clear: no change, whatever they read
		}
		before = 0
	}
	return v.hi
}

// bits returns the verdicts of the n <= 64 vectors from i on, all in
// the window, as verdicts would.
//
//imprintvet:hotpath
func (v *verdictWindow) bits(i, n int) (hit, exact uint64) {
	at := uint(i - v.lo)
	k, s := at>>6, at&63
	hit, exact = v.hit[k&(probeWindow-1)]>>s, v.exact[k&(probeWindow-1)]>>s
	if s+uint(n) > 64 {
		hit |= v.hit[(k+1)&(probeWindow-1)] << (64 - s)
		exact |= v.exact[(k+1)&(probeWindow-1)] << (64 - s)
	}
	return hit & lowBits(uint(n)), exact & lowBits(uint(n))
}

// unitWalk is RunsInto's state: the run list under construction, the
// position, the unit under assembly — fed by dictionary entries that
// start or end inside a unit — and the cacheline tallies behind
// QueryStats.
type unitWalk struct {
	mask, inner uint64
	f           int  // cachelines per unit, a power of two ...
	shift       uint // ... namely 1 << shift
	runs        []CandidateRun
	base        int // runs[:base] were the caller's: never merged into

	cl           int // cachelines walked: unit cl>>shift holds cl&(f-1) so far ...
	uHit, uExact int // ... of which these many hit, and are exact

	hitCl, exactCl int // cachelines that hit; those of them that are exact

	hits []uint64 // the per-cacheline hit bitmap, when the caller asked for it
}

// push appends count units from start, extending the last run when it
// is adjacent and as exact.
//
//imprintvet:hotpath
func (w *unitWalk) push(start, count int, exact bool) {
	if n := len(w.runs); n > w.base {
		last := &w.runs[n-1]
		if last.Exact == exact && last.Start+last.Count == uint32(start) {
			last.Count += uint32(count)
			return
		}
	}
	w.runs = append(w.runs, CandidateRun{Start: uint32(start), Count: uint32(count), Exact: exact})
}

// add walks cnt consecutive cachelines of one verdict — a repeat entry.
// Misses, most of what a selective probe walks, only advance the
// position, unless an earlier hit left a unit open: they keep it from
// being exact, and close it when they reach its end. Of a hit's
// cachelines the head completes the unit under assembly, whole units in
// the middle are one run, and the tail opens the next unit.
//
//imprintvet:hotpath
func (w *unitWalk) add(hit, exact bool, cnt int) {
	if !hit {
		if w.uHit > 0 && w.cl&(w.f-1)+cnt >= w.f {
			w.push(w.cl>>w.shift, 1, false)
			w.uHit, w.uExact = 0, 0
		}
		w.cl += cnt
		return
	}
	w.hitCl += cnt
	if w.hits != nil {
		setBits(w.hits, w.cl, cnt)
	}
	nExact := 0
	if exact {
		w.exactCl += cnt
		nExact = w.f
	}
	if fill := w.cl & (w.f - 1); fill > 0 {
		n := min(cnt, w.f-fill)
		w.group(n, n, min(n, nExact))
		cnt -= n
	}
	if n := cnt >> w.shift; n > 0 {
		w.push(w.cl>>w.shift, n, exact)
		w.cl += n << w.shift
		cnt &= w.f - 1
	}
	if cnt > 0 {
		w.group(cnt, cnt, min(cnt, nExact))
	}
}

// group adds n cachelines that fit the unit under assembly, nHit of
// them hits and nExact exact, closing the unit when they fill it.
//
//imprintvet:hotpath
func (w *unitWalk) group(n, nHit, nExact int) {
	w.uHit += nHit
	w.uExact += nExact
	if w.cl += n; w.cl&(w.f-1) == 0 {
		if w.uHit > 0 {
			w.push(w.cl>>w.shift-1, 1, w.uExact == w.f)
		}
		w.uHit, w.uExact = 0, 0
	}
}

// feed walks the n <= 64 cachelines from the walk's position on, each
// with a distinct stored vector, given their verdicts as bitmaps (bit j:
// cacheline cl+j hits, is exact), whose popcounts are the cacheline
// tallies. The head completes the unit under assembly and the tail
// opens the next one, cacheline counts as add assembles them; the whole
// units between fold to one verdict bit each (unitVerdicts), and their
// runs are read off those bits with trailing-zero counts, so run
// extraction costs what the runs number, not the units, however the
// hits are scattered.
//
//imprintvet:hotpath
func (w *unitWalk) feed(hit, exact uint64, n int) {
	w.hitCl += bits.OnesCount64(hit)
	w.exactCl += bits.OnesCount64(exact)
	if w.hits != nil {
		orBits(w.hits, w.cl, hit, n)
	}
	if fill := w.cl & (w.f - 1); fill > 0 {
		k := uint(min(n, w.f-fill))
		w.group(int(k), bits.OnesCount64(hit&lowBits(k)), bits.OnesCount64(exact&lowBits(k)))
		hit, exact, n = hit>>k, exact>>k, n-int(k)
	}
	if units := uint(n) >> w.shift; units > 0 {
		w.units(unitVerdicts(hit, exact, uint(w.f), units))
		whole := units << w.shift
		w.cl += int(whole)
		hit, exact, n = hit>>whole, exact>>whole, n-int(whole)
	}
	if n > 0 {
		w.group(n, bits.OnesCount64(hit&lowBits(uint(n))), bits.OnesCount64(exact&lowBits(uint(n))))
	}
}

// units pushes the runs of the unit verdict bitmaps, bit u standing for
// the unit u places past the walk's position (which is on a boundary).
//
//imprintvet:hotpath
func (w *unitWalk) units(hit, exact uint64) {
	for u := w.cl >> w.shift; hit != 0; {
		// The next run: candidates from bit at on, as exact as the first.
		at := uint(bits.TrailingZeros64(hit))
		run, isExact := hit>>at&^(exact>>at), exact>>at&1 != 0
		if isExact {
			run = exact >> at
		}
		length := uint(bits.TrailingZeros64(^run))
		w.push(u+int(at), int(length), isExact)
		hit &^= lowBits(length) << at
	}
}

// setBits sets bits [from, from+n) of the bitmap bm.
//
//imprintvet:hotpath
func setBits(bm []uint64, from, n int) {
	for n > 0 {
		s := uint(from & 63)
		c := min(n, 64-int(s))
		bm[from>>6] |= lowBits(uint(c)) << s
		from, n = from+c, n-c
	}
}

// orBits ORs x, whose bits from n <= 64 on are clear, into the bitmap bm
// at bit at.
//
//imprintvet:hotpath
func orBits(bm []uint64, at int, x uint64, n int) {
	s := uint(at & 63)
	bm[at>>6] |= x << s
	if s > 0 && int(s)+n > 64 {
		bm[at>>6+1] |= x >> (64 - s)
	}
}

// lowBits returns the word with its n <= 64 low bits set.
func lowBits(n uint) uint64 { return uint64(1)<<n - 1 }

// unitVerdicts folds per-vector verdict bitmaps into one bit per unit
// of f vectors, n units: a unit is hit when any of its vectors is, and
// exact when all of them are. Shifted ORs (ANDs) fold each unit's f bits
// into its lowest in log2(f) steps, and log2(64/f) shift-and-mask steps
// pack the lowest bits together, halving the stride each time — no step
// per unit.
//
//imprintvet:hotpath
func unitVerdicts(vhit, vexact uint64, f, n uint) (hit, exact uint64) {
	for s := uint(1); s < f; s <<= 1 {
		vhit |= vhit >> s
		vexact &= vexact >> s
	}
	hit, exact = vhit, vexact
	for _, st := range packSteps[bits.TrailingZeros(f)&7] {
		hit = (hit | hit>>st.shift) & st.keep
		exact = (exact | exact>>st.shift) & st.keep
	}
	return hit & lowBits(n), exact & lowBits(n)
}

// packStep is one step of unitVerdicts' packing: OR the word with itself
// shifted right, keep the bits that now hold unit verdicts.
type packStep struct {
	shift uint
	keep  uint64
}

// packSteps[log2 f] packs bits 0, f, 2f, ... of a word into its low
// 64/f bits: the first step keeps those bits, and every further one
// merges neighbouring fields — of f·2^i bits, their low 2^i bits the
// verdicts packed so far — into fields twice as wide holding twice the
// verdicts.
var packSteps = func() (t [7][]packStep) {
	field := func(width, low int) uint64 { // the low bits of every field
		var m uint64
		for at := 0; at < 64; at += width {
			m |= lowBits(uint(low)) << at
		}
		return m
	}
	for k := range t {
		f := 1 << k
		t[k] = []packStep{{0, field(f, 1)}}
		for width, low := f, 1; low < width && width < 64; width, low = 2*width, 2*low {
			t[k] = append(t[k], packStep{uint(width - low), field(2*width, 2*low)})
		}
	}
	return t
}()

// sampleWindows bounds the access-path sample: at most this many
// windows of stored vectors are read, whatever the index size.
const sampleWindows = 64

// ResidualShare estimates, without walking the dictionary, the share of
// the column's units (unit cachelines each, as in RunsInto) a probe
// with m would leave to the residual check — neither skipped nor exact —
// which is what the probe costs and cannot save. It ORs up to
// sampleWindows evenly spaced windows of unit consecutive stored
// vectors and tests each like RunsInto tests a unit, then scales the
// residual windows' share by the compression ratio: every stored
// vector stands for at least one cacheline, a repeated one for many, so
// the product is a lower bound on the residual share and an index that
// compresses — clustered by the paper's own measure — is not talked out
// of a probe by the incompressible stretches its stored vectors
// over-represent. The planner's input next to EstimateSelectivity: the
// histogram predicts how many rows qualify, this measures whether the
// imprint can tell where they are. A pure function of the index and m.
func (ix *Index[V]) ResidualShare(m Masks, unit int) float64 {
	stored := ix.vecs.len()
	if stored == 0 {
		return 0 // only a partial cacheline: nothing to sample, nothing to save
	}
	width := min(unit, stored)
	windows := stored / width
	k := min(windows, sampleWindows)
	residual := 0
	for i := 0; i < k; i++ {
		or := ix.vecs.union(i*windows/k*width, width)
		if or&m.Mask != 0 && or&^m.Inner != 0 {
			residual++
		}
	}
	return float64(residual) / float64(k) * float64(stored) / float64(ix.Cachelines())
}

// IntersectRuns merge-joins two sorted candidate run lists, keeping only
// cachelines present in both. An output cacheline is Exact only when it
// is exact on both sides; otherwise values must be re-checked during
// materialization.
func IntersectRuns(a, b []CandidateRun) []CandidateRun {
	return IntersectRunsInto(nil, a, b)
}

// IntersectRunsInto is IntersectRuns appending into dst, which must not
// alias a or b.
func IntersectRunsInto(dst, a, b []CandidateRun) []CandidateRun {
	out := dst
	push := func(start, count uint32, exact bool) {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Exact == exact && last.Start+last.Count == start {
				last.Count += count
				return
			}
		}
		out = append(out, CandidateRun{Start: start, Count: count, Exact: exact})
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ra, rb := a[i], b[j]
		aEnd := ra.Start + ra.Count
		bEnd := rb.Start + rb.Count
		lo := max(ra.Start, rb.Start)
		hi := min(aEnd, bEnd)
		if lo < hi {
			push(lo, hi-lo, ra.Exact && rb.Exact)
		}
		if aEnd <= bEnd {
			i++
		}
		if bEnd <= aEnd {
			j++
		}
	}
	return out
}

// TotalCachelines sums the cachelines covered by a run list.
func TotalCachelines(runs []CandidateRun) uint64 {
	var t uint64
	for _, r := range runs {
		t += uint64(r.Count)
	}
	return t
}

// CheckFunc reports whether row id satisfies a conjunct's predicate on
// its own base column.
type CheckFunc func(id uint32) bool

// RangeCheck returns a CheckFunc testing ix's column against [low, high);
// it is the per-conjunct residual predicate applied after merge-joining
// candidate runs.
func (ix *Index[V]) RangeCheck(low, high V) CheckFunc {
	col := ix.col
	return func(id uint32) bool {
		v := col[id]
		return v >= low && v < high
	}
}

// AppendMaskIDs appends base+i, in ascending order, for every set bit i
// of a 64-row selection mask. It is the one expansion step from
// selection masks back to row ids, shared by the vectorized table
// executors and MaterializeRuns.
//
//imprintvet:hotpath
func AppendMaskIDs(dst []uint32, base uint32, mask uint64) []uint32 {
	for mask != 0 {
		dst = append(dst, base+uint32(bits.TrailingZeros64(mask)))
		mask &= mask - 1
	}
	return dst
}

// MaterializeRuns converts a candidate run list into ascending ids,
// applying every check to rows of non-exact runs (exact runs are emitted
// wholesale). vpc is the values-per-cacheline of the indexes that
// produced the runs (they must agree), and n bounds ids of the trailing
// partial cacheline. comparisons reports how many residual predicate
// evaluations were spent.
//
// Evaluation is block-at-a-time, mirroring the table layer's vectorized
// walk: each run is consumed in chunks of up to 64 rows folded into a
// selection mask — exact chunks fill the mask wholesale, checked chunks
// set one bit per surviving row (checks still short-circuit per row, so
// the comparison count is unchanged) — and the mask expands to ids
// through AppendMaskIDs.
func MaterializeRuns(runs []CandidateRun, vpc, n int, res []uint32, checks ...CheckFunc) (ids []uint32, comparisons uint64) {
	for _, r := range runs {
		from := int(r.Start) * vpc
		to := (int(r.Start) + int(r.Count)) * vpc
		if to > n {
			to = n
		}
		for b := from; b < to; b += 64 {
			be := b + 64
			if be > to {
				be = to
			}
			var m uint64
			if r.Exact {
				m = ^uint64(0) >> (64 - uint(be-b))
			} else {
				for id := b; id < be; id++ {
					ok := true
					for _, c := range checks {
						comparisons++
						if !c(uint32(id)) {
							ok = false
							break
						}
					}
					if ok {
						m |= 1 << uint(id-b)
					}
				}
			}
			res = AppendMaskIDs(res, uint32(b), m)
		}
	}
	return res, comparisons
}

// Conjunct pairs an index with a range so multi-attribute conjunctions
// can be expressed over columns of different value types.
type Conjunct interface {
	// Runs evaluates the conjunct to its candidate cacheline list.
	Runs() ([]CandidateRun, QueryStats)
	// Check is the residual predicate on the conjunct's base column.
	Check() CheckFunc
	// Geometry returns the values-per-cacheline and column length, which
	// must agree across all conjuncts of one conjunction.
	Geometry() (vpc, n int)
}

// rangeConjunct is the Conjunct for a [low, high) predicate over an
// imprints index.
type rangeConjunct[V coltype.Value] struct {
	ix        *Index[V]
	low, high V
}

// NewRangeConjunct builds a Conjunct for low <= ix.Column()[id] < high.
func NewRangeConjunct[V coltype.Value](ix *Index[V], low, high V) Conjunct {
	return &rangeConjunct[V]{ix: ix, low: low, high: high}
}

func (c *rangeConjunct[V]) Runs() ([]CandidateRun, QueryStats) {
	return c.ix.RangeCachelines(c.low, c.high)
}

func (c *rangeConjunct[V]) Check() CheckFunc { return c.ix.RangeCheck(c.low, c.high) }

func (c *rangeConjunct[V]) Geometry() (int, int) { return c.ix.vpc, c.ix.n }

// EvaluateAnd evaluates a conjunction of range predicates with late
// materialization: each conjunct is reduced to candidate cachelines, the
// lists are merge-joined, and only then are the surviving rows checked
// against the residual predicates (Section 3's multi-attribute
// evaluation). All conjuncts must cover columns of identical length and
// cacheline geometry.
func EvaluateAnd(res []uint32, conjs ...Conjunct) ([]uint32, QueryStats) {
	if len(conjs) == 0 {
		return res, QueryStats{}
	}
	var st QueryStats
	vpc0, n0 := conjs[0].Geometry()
	runs, s := conjs[0].Runs()
	st.Add(s)
	for _, c := range conjs[1:] {
		vpc, n := c.Geometry()
		if vpc != vpc0 || n != n0 {
			panic("core: conjunction over misaligned columns")
		}
		r, s := c.Runs()
		st.Add(s)
		runs = IntersectRuns(runs, r)
		if len(runs) == 0 {
			return res, st
		}
	}
	checks := make([]CheckFunc, len(conjs))
	for i, c := range conjs {
		checks[i] = c.Check()
	}
	ids, comparisons := MaterializeRuns(runs, vpc0, n0, res, checks...)
	st.Comparisons += comparisons
	return ids, st
}
