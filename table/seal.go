package table

import (
	"runtime"
	"time"

	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/delta"
)

// Background sealing (the write path's second stage under the buffered
// seal policy with AutoSeal; SealDelta / FlushDelta drive the same
// passes by hand): full
// segment-sized slabs are cut off the front of the delta store's
// vectors by slice — a numeric stretch becomes its segment's value slab
// as it is, a string stretch is decoded and re-encoded under a sorted
// dictionary — their summaries, dictionaries and indexes built OUTSIDE
// the table lock from a prefix snapshot that shares no mutable memory
// with the store (delta.Store.CopyPrefix copies the rows out by typed
// slice copy), and the finished segments installed atomically under the
// write lock — readers only
// ever see either the rows in the delta or the same rows in sealed
// segments, never both and never neither. Installation is optimistic:
// the store's (base, generation) identity is re-checked under the lock,
// and a build raced by an update or flush is discarded
// (IngestStats.SealRetries), never installed. The sealer holds sealMu
// for a whole pass and the table's write lock only to top the tail up
// and to install; the merge-compactor's idle pass costs one write-lock
// acquisition and one flag read per segment (core.Index.NeedsRebuild
// looks at the imprint vectors only after an update marked the index).

// sealLoop is the background worker started by EnableDeltaIngest with
// AutoSeal: it wakes on commit kicks, seals full chunks and runs one
// merge-compactor pass. It never compacts: folding deletes renumbers ids
// and, on a sharded table, must refresh the parent's routing counters
// under its commit tokens — Maintain does both.
func (t *Table) sealLoop(d *deltaState) {
	defer d.sealer.Done()
	for {
		select {
		case <-d.stop:
			return
		case <-d.kick:
		}
		t.sealFullChunks(d)
		t.mergePass(d)
	}
}

// Conflict backoff: consecutive discarded builds grow an exponential
// retry delay (reset by the next successful install), so a sustained
// update storm does not burn CPU rebuilding segments it will discard.
const (
	sealBackoffBase = time.Millisecond
	sealBackoffCap  = 50 * time.Millisecond
)

// sealBackoffFor maps a conflict streak to its capped retry delay.
func sealBackoffFor(streak uint32) time.Duration {
	wait := sealBackoffBase << min(streak-1, 8)
	return min(wait, sealBackoffCap)
}

// sealFullChunks seals every full segment-sized chunk currently
// buffered and returns the rows moved. Install conflicts (concurrent
// updates keep bumping the store generation) back off exponentially —
// capped, and reset by the next successful optimistic install — and
// every fourth consecutive conflict degrades to folding full chunks
// under the lock so the pass always terminates.
func (t *Table) sealFullChunks(d *deltaState) int {
	d.sealMu.Lock()
	defer d.sealMu.Unlock()
	sealed := 0
	for {
		n, retry := t.sealChunk(d)
		sealed += n
		if retry {
			d.sealRetries.Add(1)
			streak := d.conflictStreak.Add(1)
			if streak%4 == 0 {
				t.mu.Lock()
				if full := (d.store.Len() / t.segRows) * t.segRows; full > 0 {
					t.flushDeltaLocked(full)
					sealed += full
				}
				t.mu.Unlock()
			}
			wait := sealBackoffFor(streak)
			d.backoffNanos.Store(int64(wait))
			select {
			case <-d.stop:
				return sealed
			case <-time.After(wait):
			}
			continue
		}
		if n > 0 {
			// A clean optimistic install: the storm (if any) has passed.
			d.conflictStreak.Store(0)
			d.backoffNanos.Store(0)
		}
		if n == 0 {
			return sealed
		}
	}
}

// sealChunk builds and installs up to maxSealSegs full segments from
// the delta's front. It returns the rows installed and whether the
// caller should retry because a concurrent mutation invalidated the
// off-lock build.
func (t *Table) sealChunk(d *deltaState) (int, bool) {
	// Fewer buffered rows than a segment cannot yield a seal even after
	// topping the tail up — skip without touching the table lock, so
	// per-commit kicks stay free of exclusive acquisitions.
	if d.store.Len() < t.segRows {
		return 0, false
	}
	// Whole segments only install on a full columnar tail; top a
	// partial tail (left by an earlier flush) up from the delta first.
	t.mu.Lock()
	if rem := t.rows % t.segRows; rem != 0 {
		fill := t.segRows - rem
		if n := d.store.Len(); n < fill {
			fill = n
		}
		if fill > 0 {
			t.flushDeltaLocked(fill)
		}
	}
	order := append([]string(nil), t.order...)
	cols := make([]anyColumn, len(order))
	for ci, name := range order {
		cols[ci] = t.cols[name]
	}
	maxSegs := d.maxSealSegs
	t.mu.Unlock()

	full := d.store.Len() / t.segRows
	prefix := d.store.CopyPrefix(min(full, maxSegs) * t.segRows)
	nsegs := prefix.Rows / t.segRows
	if nsegs == 0 {
		return 0, false
	}
	n := nsegs * t.segRows

	// Build off the lock: the prefix snapshot is the sealer's own, so
	// summaries, dictionaries and imprints can be computed while readers
	// and writers proceed. Yield between segment builds so reader
	// goroutines interleave promptly even at small GOMAXPROCS.
	built := make([][]any, len(cols))
	for ci, col := range cols {
		segsBuilt := make([]any, nsegs)
		for k := 0; k < nsegs; k++ {
			segsBuilt[k] = col.buildSealed(prefix, k)
			runtime.Gosched()
		}
		built[ci] = segsBuilt
	}

	// Install atomically iff nothing invalidated the snapshot: same
	// store identity (no update/flush/layout change) and the prefix is
	// still buffered. base == t.rows is implied by an unchanged
	// generation; asserted cheaply all the same.
	t.mu.Lock()
	ok := d.store.Matches(prefix.Base, prefix.Gen, n) && prefix.Base == t.rows
	if ok {
		for ci, col := range cols {
			for _, seg := range built[ci] {
				col.installSealed(seg)
			}
		}
		t.rows += n
		t.growDeletedTo(t.rows)
		d.store.Truncate(n)
		d.seals.Add(1)
		d.sealedSegs.Add(uint64(nsegs))
		d.sealedRows.Add(uint64(n))
	}
	t.mu.Unlock()
	if !ok {
		return 0, true
	}
	return n, false
}

// mergePass is the merge-compactor: it rewrites sealed segments whose
// summary was widened by updates or whose index saturated, restoring
// exact summaries (and with them aggregate pushdown and tight pruning)
// one segment per lock acquisition so readers interleave.
func (t *Table) mergePass(d *deltaState) {
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		t.mu.Lock()
		merged := false
		for _, name := range t.order {
			if t.cols[name].mergeOne(defaultSatLimit) {
				merged = true
				d.merges.Add(1)
				break
			}
		}
		t.mu.Unlock()
		if !merged {
			return
		}
	}
}

// ---- per-column seal/merge hooks ----

func (c *colState[V]) buildSealed(prefix delta.View, k int) any {
	// The k-th segment's stretch of the snapshot, capped so the slab
	// cannot grow into its neighbour's.
	lo := prefix.Lo() + k*c.segRows
	vals := delta.NumVec[V](prefix, c.pos)[lo : lo+c.segRows : lo+c.segRows]
	s := &segment[V]{vals: vals}
	s.min, s.max, _ = summarize(vals)
	if c.mode == Imprints {
		s.ix = core.Build(vals, c.vpcOpts)
	}
	return s
}

//imprintvet:locks held=mu
func (c *colState[V]) installSealed(built any) {
	c.segs = append(c.segs, built.(*segment[V]))
}

//imprintvet:locks held=mu.R
func (c *colState[V]) mergeBacklog(satLimit float64) int {
	n := 0
	for _, s := range c.segs {
		if c.needsMerge(s, satLimit) {
			n++
		}
	}
	return n
}

//imprintvet:locks held=mu
func (c *colState[V]) mergeOne(satLimit float64) bool {
	for _, s := range c.segs {
		if c.needsMerge(s, satLimit) {
			s.rebuild(c.mode, c.vpcOpts)
			return true
		}
	}
	return false
}

func (c *colState[V]) needsMerge(s *segment[V], satLimit float64) bool {
	return s.sumWide || (s.ix != nil && s.ix.NeedsRebuild(satLimit, 0, 0))
}

func (c *strColState) buildSealed(prefix delta.View, k int) any {
	codes, syms := prefix.StrVec(c.pos)
	lo := prefix.Lo() + k*c.segRows
	vals := make([]string, c.segRows)
	for i, code := range codes[lo : lo+c.segRows] {
		vals[i] = syms[code]
	}
	// The generation is assigned at install time (it needs the write
	// lock); plans cannot have cached a translation for an uninstalled
	// segment anyway.
	s := &strSegment{dict: column.EncodeStrings(c.name, vals)}
	if c.mode == Imprints {
		s.ix = core.Build(s.codes(), c.vpcOpts)
	}
	return s
}

//imprintvet:locks held=mu
func (c *strColState) installSealed(built any) {
	s := built.(*strSegment)
	s.gen = c.nextGen()
	c.segs = append(c.segs, s)
}

//imprintvet:locks held=mu.R
func (c *strColState) mergeBacklog(satLimit float64) int {
	n := 0
	for _, s := range c.segs {
		if s.ix != nil && s.ix.NeedsRebuild(satLimit, 0, 0) {
			n++
		}
	}
	return n
}

//imprintvet:locks held=mu
func (c *strColState) mergeOne(satLimit float64) bool {
	for _, s := range c.segs {
		if s.ix != nil && s.ix.NeedsRebuild(satLimit, 0, 0) {
			c.rebuildSegmentIndex(s)
			return true
		}
	}
	return false
}
