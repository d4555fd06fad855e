package table

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/wal"
)

// strSegment is one horizontal slice of a string column: its own
// dictionary (lexicographically ordered int32 codes over just this
// segment's values, see column.StringDict) and a column imprint over
// the code slab. Per-segment dictionaries are what keep string columns
// bounded under growth: a novel string in a batch append or update
// re-encodes one segment, never the whole column.
//
// gen is the segment's generation, unique within the column and bumped
// whenever the dictionary changes shape (re-encode on novel strings,
// compact). Compiled string leaves cache their dictionary translation
// per segment keyed by gen, so appending rows — which only ever opens
// new segments or extends the tail in place — never invalidates a
// cached translation over a sealed segment.
type strSegment struct {
	dict *column.StringDict
	ix   *core.Index[int32]
	gen  uint64
}

func (s *strSegment) codes() []int32 { return s.dict.Codes().Values() }
func (s *strSegment) rows() int      { return s.dict.Codes().Len() }

// codeSlab returns the codes of the rows r names and their
// dictionary's symbols by code. ordered reports that code order is
// string order — true of a sealed segment's sorted dictionary, not of
// the delta's arrival-ordered one.
//
//imprintvet:locks held=mu.R
func (c *strColState) codeSlab(r segRef) (codes []int32, syms []string, ordered bool) {
	if r.view != nil {
		codes, syms = r.view.StrVec(c.pos)
		return codes, syms, false
	}
	seg := c.segs[r.s]
	return seg.codes(), seg.dict.Symbols(), true
}

// strColState is the per-column state of a string attribute, segmented
// like colState. String predicates translate to per-segment code
// intervals, so StrRange and friends compose in the same And/Or/AndNot
// trees as numeric leaves.
type strColState struct {
	name string
	// segs is written only under the owning table's write lock and read
	// under at least its read lock (snapshotsafe enforces both).
	segs    []*strSegment //imprintvet:guarded by=mu
	mode    IndexMode     // Imprints or NoIndex
	vpcOpts core.Options
	segRows int
	pos     int    // position in the table's column order (place)
	genSeq  uint64 // generation source; each (re-)encode gets a fresh value
}

// nextGen returns a column-unique generation for a fresh or re-encoded
// segment dictionary; callers hold the table's write lock.
func (c *strColState) nextGen() uint64 {
	c.genSeq++
	return c.genSeq
}

// AddStringColumn defines a new string column, dictionary-encoding vals
// segment by segment and (unless mode is NoIndex) building a code
// imprint per segment. Like AddColumn, the values are copied on ingest.
func (t *Table) AddStringColumn(name string, vals []string, mode IndexMode, opts core.Options) error {
	return addColumn(t, name, vals, mode, opts, func(part []string) anyColumn {
		cs := &strColState{name: name, mode: mode, vpcOpts: opts, segRows: t.segRows}
		//imprintvet:allow locksafe a column not yet installed; addColumn builds it under every part's write lock
		cs.absorbStrings(part)
		return cs
	})
}

// StringColumn materializes the decoded values of a string column. The
// returned slice is freshly allocated and safe to keep.
func (t *Table) StringColumn(name string) ([]string, error) {
	return columnValues(t, name, localStringColumn)
}

// localStringColumn is one part's decoded values of a string column in
// local-id order: its segments, then its buffered rows.
//
//imprintvet:locks held=mu.R
func localStringColumn(t *Table, name string) ([]string, error) {
	cs, err := strCol(t, name)
	if err != nil {
		return nil, err
	}
	return cs.deltaValues(cs.decodeAll(), t.deltaViewLocked()), nil
}

// UpdateString changes one string value in place. When the new value is
// already in the segment's dictionary the covering imprint is widened
// (Section 4.2); a novel string re-encodes that one segment — code
// order must stay aligned with string order — leaving every other
// segment (and plans compiled over them) untouched.
func (t *Table) UpdateString(name string, id int, v string) error {
	kid, lid := t.locate(id)
	lg, lsn, err := kid.updateStringLocked(name, lid, v)
	if err != nil || lg == nil {
		return err
	}
	return lg.WaitDurable(lsn)
}

// updateStringLocked applies the update under the write lock and, with
// a WAL attached, logs it in the same critical section.
func (t *Table) updateStringLocked(name string, id int, v string) (*wal.Log, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, err := strCol(t, name)
	if err != nil {
		return nil, 0, err
	}
	if id < 0 || id >= t.totalRowsLocked() {
		return nil, 0, fmt.Errorf("table %s: row %d out of range", t.name, id)
	}
	if id >= cs.colRows() {
		// Still buffered: patch the delta vector in place; no re-encode,
		// no imprint widening.
		store := t.delta.store
		store.SetString(id-store.Base(), cs.pos, v)
		return t.logStringUpdateLocked(cs, id, v)
	}
	seg, local := cs.segs[id/cs.segRows], id%cs.segRows
	if code, ok := seg.dict.Code(v); ok {
		seg.codes()[local] = code
		if seg.ix != nil {
			seg.ix.MarkUpdated(local, code)
		}
		return t.logStringUpdateLocked(cs, id, v)
	}
	all := cs.decodeSegment(seg)
	all[local] = v
	cs.reencodeSegment(seg, all)
	return t.logStringUpdateLocked(cs, id, v)
}

// logStringUpdateLocked frames one string update into the attached WAL
// (no-op without one); callers hold the write lock.
//
//imprintvet:locks held=mu
func (t *Table) logStringUpdateLocked(cs *strColState, id int, v string) (*wal.Log, int64, error) {
	if t.delta.wal == nil {
		return nil, 0, nil
	}
	return t.walAppendLocked(encodeWALUpdate(id, cs.pos, walTagString, []string{v}))
}

func strCol(t *Table, name string) (*strColState, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	cs, ok := c.(*strColState)
	if !ok {
		return nil, fmt.Errorf("table %s: column %q holds %s, not string",
			t.name, name, c.colType())
	}
	return cs, nil
}

// ---- anyColumn implementation ----

func (c *strColState) colName() string { return c.name }
func (c *strColState) colType() string { return "string" }

//imprintvet:locks held=mu.R
func (c *strColState) segments() int { return len(c.segs) }

//imprintvet:locks held=mu.R
func (c *strColState) colRows() int {
	if len(c.segs) == 0 {
		return 0
	}
	return (len(c.segs)-1)*c.segRows + c.segs[len(c.segs)-1].rows()
}

//imprintvet:locks held=mu.R
func (c *strColState) sizeBytes() int64 {
	var n int64
	for _, s := range c.segs {
		n += s.dict.SizeBytes()
	}
	return n
}

//imprintvet:locks held=mu.R
func (c *strColState) indexBytes() int64 {
	var n int64
	for _, s := range c.segs {
		if s.ix != nil {
			n += s.ix.SizeBytes()
		}
	}
	return n
}

func (c *strColState) indexKind() string {
	if c.mode == Imprints {
		return "imprints"
	}
	return "scan"
}

//imprintvet:locks held=mu.R
func (c *strColState) addIndexStats(st *ColumnIndexStats) {
	st.Segments += len(c.segs)
	for _, s := range c.segs {
		if s.ix == nil {
			continue
		}
		st.IndexedSegments++
		st.StoredVectors += s.ix.StoredVectors()
		st.DictEntries += s.ix.DictEntries()
		st.SizeBytes += s.ix.SizeBytes()
		st.Saturation += s.ix.Saturation()
	}
}

//imprintvet:locks held=mu
func (c *strColState) maintain(satLimit float64, rebuild bool) int {
	n := 0
	for _, s := range c.segs {
		if s.ix != nil && s.ix.NeedsRebuild(satLimit, 0, 0) {
			n++
			if rebuild {
				c.rebuildSegmentIndex(s)
			}
		}
	}
	return n
}

// rebuildSegmentIndex rebuilds one segment's code imprint in place (the
// dictionary is unchanged, so cached plan translations stay valid).
func (c *strColState) rebuildSegmentIndex(s *strSegment) {
	s.ix = nil
	if c.mode != Imprints || s.rows() == 0 {
		return
	}
	s.ix = core.Build(s.codes(), c.vpcOpts)
}

//imprintvet:locks held=mu.R
func (c *strColState) valueAt(r segRef, local int) any {
	codes, syms, _ := c.codeSlab(r)
	return syms[codes[local]]
}

func (c *strColState) decodeSegment(s *strSegment) []string {
	codes := s.codes()
	out := make([]string, len(codes))
	for i, code := range codes {
		out[i] = s.dict.Symbol(code)
	}
	return out
}

//imprintvet:locks held=mu.R
func (c *strColState) decodeAll() []string {
	out := make([]string, 0, c.colRows())
	for _, s := range c.segs {
		out = append(out, c.decodeSegment(s)...)
	}
	return out
}

// newSegment encodes vals into a fresh segment with its own dictionary
// and generation.
func (c *strColState) newSegment(vals []string) *strSegment {
	s := &strSegment{dict: column.EncodeStrings(c.name, vals), gen: c.nextGen()}
	c.rebuildSegmentIndex(s)
	return s
}

// reencodeSegment replaces one segment's dictionary with a fresh
// encoding of vals and rebuilds its index, bumping the segment
// generation so cached translations over it are dropped.
func (c *strColState) reencodeSegment(s *strSegment, vals []string) {
	s.dict = column.EncodeStrings(c.name, vals)
	s.gen = c.nextGen()
	c.rebuildSegmentIndex(s)
}

//imprintvet:locks held=mu
func (c *strColState) compact(keep []int) {
	kept := make([]string, 0, len(keep))
	for _, id := range keep {
		seg := c.segs[id/c.segRows]
		kept = append(kept, seg.dict.Symbol(seg.codes()[id%c.segRows]))
	}
	c.segs = nil
	c.absorbStrings(kept)
}

// absorbStrings extends the column with new rows, filling the active
// tail segment and opening fresh segments as it fills. When every value
// appended to the tail is already in its dictionary, the codes and the
// imprint extend in place (Section 4.1's cheap append); a novel string
// re-encodes the tail segment only — sealed segments never change.
//
//imprintvet:locks held=mu
func (c *strColState) absorbStrings(vals []string) {
	for len(vals) > 0 {
		if len(c.segs) == 0 || c.segs[len(c.segs)-1].rows() == c.segRows {
			c.segs = append(c.segs, c.newSegment(nil))
		}
		tail := c.segs[len(c.segs)-1]
		room := c.segRows - tail.rows()
		if room > len(vals) {
			room = len(vals)
		}
		c.extendTail(tail, vals[:room])
		vals = vals[room:]
	}
}

// extendTail appends chunk to the tail segment, re-encoding it only
// when a value is missing from its dictionary.
func (c *strColState) extendTail(s *strSegment, chunk []string) {
	newCodes := make([]int32, len(chunk))
	for i, v := range chunk {
		code, ok := s.dict.Code(v)
		if !ok {
			all := append(c.decodeSegment(s), chunk...)
			c.reencodeSegment(s, all)
			return
		}
		newCodes[i] = code
	}
	s.dict.Codes().Append(newCodes...)
	if c.mode != Imprints {
		return
	}
	if s.ix == nil {
		c.rebuildSegmentIndex(s)
	} else {
		s.ix.Append(s.codes())
	}
}

// ---- leaf compilation ----

// strSegTrans is one segment's dictionary translation of a string
// leaf: the half-open code interval or code set the predicate selects
// there. Valid while gen matches the segment's generation — sealed
// segments never change generation on appends, so cached translations
// survive across executions of a prepared statement.
type strSegTrans struct {
	gen    uint64
	lo, hi int32 // half-open code interval (non-IN kinds)
	none   bool  // the dictionary proves the leaf selects nothing here
	set    []int32
	member map[int32]struct{}
}

// strLeafPlan is the compiled form of a string leaf: the bounds are
// typed once at compile time, and the per-segment dictionary
// translation is derived lazily and cached keyed by segment
// generation. The cache makes prepared executions segment-incremental:
// appending rows re-translates at most the active tail segment.
type strLeafPlan struct {
	c         *strColState
	kind      leafKind
	low, high string
	inSet     []string // kindIn

	cacheMu sync.Mutex
	cache   []*strSegTrans // indexed by segment
	kerns   []strKernEntry // cached per-segment selection-mask kernels
}

// strKernEntry is one cached code-slab kernel with the identity it was
// derived for: the dictionary generation (the translation it bakes in)
// and the code slab it reads (tail appends grow the slab without a
// generation bump, so the slab header is checked too).
type strKernEntry struct {
	gen   uint64
	codes *int32
	n     int
	k     blockKernel
}

func (c *strColState) compileLeaf(p *leafPred) (leafPlan, error) {
	pl := &strLeafPlan{c: c, kind: p.kind}
	str := func(x any) (string, error) {
		if x == nil {
			return "", nil
		}
		v, ok := x.(string)
		if !ok {
			return "", fmt.Errorf("column %q is string but predicate bound is %T", c.name, x)
		}
		return v, nil
	}
	switch p.kind {
	case kindIn:
		set, ok := p.low.([]string)
		if !ok {
			return nil, fmt.Errorf("column %q is string but IN-list holds %T", c.name, p.low)
		}
		// Each member once, ascending: the per-segment code sets then are
		// too, and the estimate and the kernels' small-set cutoff count
		// members, not list entries.
		pl.inSet = slices.Compact(slices.Sorted(slices.Values(set)))
		return pl, nil
	case kindRange, kindAtLeast, kindLessThan, kindEquals, kindPrefix:
		var err error
		if pl.low, err = str(p.low); err != nil {
			return nil, err
		}
		if pl.high, err = str(p.high); err != nil {
			return nil, err
		}
		return pl, nil
	}
	return nil, fmt.Errorf("column %q: unknown leaf kind %d", c.name, p.kind)
}

// trans returns segment s's cached dictionary translation, deriving it
// when missing or stale (the segment re-encoded since).
//
//imprintvet:locks held=mu.R
func (pl *strLeafPlan) trans(s int) *strSegTrans {
	seg := pl.c.segs[s]
	pl.cacheMu.Lock()
	defer pl.cacheMu.Unlock()
	for len(pl.cache) <= s {
		pl.cache = append(pl.cache, nil)
	}
	if e := pl.cache[s]; e != nil && e.gen == seg.gen {
		return e
	}
	e := pl.translate(seg)
	pl.cache[s] = e
	return e
}

// translate derives the leaf's code interval or code set through one
// segment's dictionary.
func (pl *strLeafPlan) translate(seg *strSegment) *strSegTrans {
	e := &strSegTrans{gen: seg.gen}
	dict := seg.dict
	if pl.kind == kindIn {
		for _, v := range pl.inSet {
			if code, in := dict.Code(v); in {
				e.set = append(e.set, code)
			}
		}
		e.none = len(e.set) == 0
		e.member = make(map[int32]struct{}, len(e.set))
		for _, code := range e.set {
			e.member[code] = struct{}{}
		}
		return e
	}
	card := int32(dict.Cardinality())
	var ok bool
	switch pl.kind {
	case kindRange: // inclusive [low, high] per string-predicate convention
		e.lo, e.hi, ok = dict.CodeRange(pl.low, pl.high)
	case kindAtLeast:
		e.lo = dict.SearchCode(pl.low)
		e.hi, ok = card, e.lo < card
	case kindLessThan:
		e.hi = dict.SearchCode(pl.high)
		ok = e.hi > 0
	case kindEquals:
		var code int32
		code, ok = dict.Code(pl.low)
		e.lo, e.hi = code, code+1
	case kindPrefix:
		e.lo, e.hi, ok = dict.PrefixCodeRange(pl.low)
	}
	e.none = !ok
	return e
}

func (pl *strLeafPlan) access() string { return pl.c.indexKind() }

// prune is exact for string leaves: the segment's own dictionary
// proves whether any of its values can satisfy the predicate.
//
//imprintvet:locks held=mu.R
func (pl *strLeafPlan) prune(s int) bool {
	if pl.c.segs[s].rows() == 0 {
		return true
	}
	return pl.trans(s).none
}

// deltaKernel translates the leaf once against the delta's dictionary —
// the raw-string form of the per-segment translation: Range is
// inclusive on both ends, Equals is exact, Prefix is a literal prefix
// test — into a membership table over its codes.
//
//imprintvet:locks held=mu.R
func (pl *strLeafPlan) deltaKernel(r segRef) blockKernel {
	codes, syms, _ := pl.c.codeSlab(r)
	var match func(s string) bool
	switch pl.kind {
	case kindIn:
		match = func(s string) bool { return slices.Contains(pl.inSet, s) }
		if len(pl.inSet) > 4 {
			member := make(map[string]struct{}, len(pl.inSet))
			for _, s := range pl.inSet {
				member[s] = struct{}{}
			}
			match = func(s string) bool { _, ok := member[s]; return ok }
		}
	case kindRange:
		match = func(s string) bool { return s >= pl.low && s <= pl.high }
	case kindAtLeast:
		match = func(s string) bool { return s >= pl.low }
	case kindLessThan:
		match = func(s string) bool { return s < pl.high }
	case kindPrefix:
		match = func(s string) bool { return strings.HasPrefix(s, pl.low) }
	default: // kindEquals; compileLeaf rejected every other kind
		match = func(s string) bool { return s == pl.low }
	}
	member := make([]bool, len(syms))
	none := true
	for code, s := range syms {
		if match(s) {
			member[code], none = true, false
		}
	}
	if none {
		return zeroMask
	}
	return memberKernel(codes, member)
}

//imprintvet:locks held=mu.R
func (pl *strLeafPlan) segRuns(s int, dst []core.CandidateRun) ([]core.CandidateRun, candLanes, core.QueryStats) {
	e := pl.trans(s)
	if e.none {
		return dst, candLanes{none: true}, core.QueryStats{}
	}
	seg := pl.c.segs[s]
	if seg.ix == nil {
		// Scan-only segment: every block is a candidate.
		return blockSpanRunsInto(dst, seg.rows(), false), candLanes{}, core.QueryStats{}
	}
	return imprintRuns(seg.ix, e.masks(pl.kind, seg.ix), dst)
}

// masks binds the translated leaf to the segment's code imprint.
func (e *strSegTrans) masks(kind leafKind, ix *core.Index[int32]) core.Masks {
	if kind == kindIn {
		return ix.InSetMasks(e.set)
	}
	return ix.RangeMasks(e.lo, e.hi)
}

//imprintvet:locks held=mu.R
func (pl *strLeafPlan) segResidual(s int) float64 {
	ix := pl.c.segs[s].ix
	return ix.ResidualShare(pl.trans(s).masks(pl.kind, ix), BlockRows/ix.ValuesPerCacheline())
}

// segKernel returns the leaf's cached selection-mask kernel over
// segment s's code slab, re-deriving it when the segment re-encoded
// (generation bump) or its slab moved or grew (tail append).
//
//imprintvet:locks held=mu.R
func (pl *strLeafPlan) segKernel(s int) blockKernel {
	e := pl.trans(s)
	seg := pl.c.segs[s]
	codes := seg.codes()
	if e.none || len(codes) == 0 {
		return zeroMask
	}
	pl.cacheMu.Lock()
	defer pl.cacheMu.Unlock()
	for len(pl.kerns) <= s {
		pl.kerns = append(pl.kerns, strKernEntry{})
	}
	k := &pl.kerns[s]
	if k.k != nil && k.gen == seg.gen && k.codes == &codes[0] && k.n == len(codes) {
		return k.k
	}
	k.gen, k.codes, k.n = seg.gen, &codes[0], len(codes)
	if pl.kind == kindIn {
		k.k = inKernel(codes, e.set, e.member)
	} else {
		k.k = intRangeKernel(codes, e.lo, e.hi)
	}
	return k.k
}

// segEstimate mirrors numLeafPlan.segEstimate: negative means segment s
// has no imprint-backed estimate.
//
//imprintvet:locks held=mu.R
func (pl *strLeafPlan) segEstimate(s int) float64 {
	seg := pl.c.segs[s]
	if seg.ix == nil {
		return -1
	}
	e := pl.trans(s)
	if e.none {
		return 0
	}
	if pl.kind == kindIn {
		return inSetEstimate(seg.ix.InSetMasks(e.set), seg.ix.Bins())
	}
	return seg.ix.EstimateSelectivity(e.lo, e.hi)
}
