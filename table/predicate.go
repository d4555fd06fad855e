package table

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/coltype"
	"repro/internal/core"
)

// BlockRows is the row granularity at which table-level predicates are
// composed. Columns of different value widths cover different numbers
// of rows per imprint vector (8 for 8-byte values up to 64 for 1-byte
// values); normalizing every column's candidate list to blocks of 64
// rows makes run lists from mixed-width columns merge-joinable.
const BlockRows = 64

// Predicate is a node of a selection tree over one table. Build leaves
// with Range/AtLeast/LessThan/Equals/In (numeric columns) and StrRange/
// StrAtLeast/StrLessThan/StrEquals/StrIn/StrPrefix (string columns) —
// or their parameterized P-suffixed variants taking Bound placeholders —
// compose them with And/Or/AndNot, and execute through Table.Select or
// compile once with Table.Prepare.
type Predicate interface{ isPred() }

type leafKind int

const (
	kindRange leafKind = iota // low <= v < high (strings: low <= v <= high)
	kindAtLeast
	kindLessThan
	kindEquals
	kindIn     // v in set (low holds the []V or []string)
	kindPrefix // string columns only: v starts with low
)

// leafPred holds type-erased bounds; the owning column types them once,
// in compileLeaf. A bound is either a plain value ([]V / []string for
// kindIn) or a Bound placeholder resolved before compilation.
type leafPred struct {
	col       string
	kind      leafKind
	low, high any
}

func (*leafPred) isPred() {}

// describe renders the leaf for Explain plans. binds, when non-nil,
// annotates parameter placeholders with their bound values.
func (p *leafPred) describe(binds map[string]any) string {
	switch p.kind {
	case kindRange:
		if isStringBound(p.low) {
			return fmt.Sprintf("%s in [%s, %s]", p.col, bound(p.low, binds), bound(p.high, binds))
		}
		return fmt.Sprintf("%s in [%s, %s)", p.col, bound(p.low, binds), bound(p.high, binds))
	case kindAtLeast:
		return fmt.Sprintf("%s >= %s", p.col, bound(p.low, binds))
	case kindLessThan:
		return fmt.Sprintf("%s < %s", p.col, bound(p.high, binds))
	case kindEquals:
		return fmt.Sprintf("%s == %s", p.col, bound(p.low, binds))
	case kindIn:
		return fmt.Sprintf("%s in %s", p.col, bound(p.low, binds))
	case kindPrefix:
		return fmt.Sprintf("%s prefix %s", p.col, bound(p.low, binds))
	}
	return fmt.Sprintf("%s ?", p.col)
}

// isStringBound reports whether a leaf bound holds (or declares) a
// string, which flips range rendering to the inclusive convention.
func isStringBound(x any) bool {
	if b, ok := x.(Bound); ok {
		return b.typ == "string"
	}
	_, ok := x.(string)
	return ok
}

// bound renders one predicate bound, quoting strings so empty or
// space-bearing values stay visible in plans. Placeholders render as
// $name, or $name=value once bound.
func bound(x any, binds map[string]any) string {
	if b, ok := x.(Bound); ok {
		if b.name == "" {
			return bound(b.lit, nil)
		}
		if v, bnd := binds[b.name]; bnd {
			return fmt.Sprintf("$%s=%s", b.name, bound(v, nil))
		}
		return "$" + b.name
	}
	switch v := x.(type) {
	case string:
		return fmt.Sprintf("%q", v)
	case []string:
		return fmt.Sprintf("%q", v)
	}
	return fmt.Sprintf("%v", x)
}

type andPred struct{ kids []Predicate }
type orPred struct{ kids []Predicate }
type andNotPred struct{ p, q Predicate }

func (*andPred) isPred()    {}
func (*orPred) isPred()     {}
func (*andNotPred) isPred() {}

// Range selects rows with low <= column < high.
func Range[V coltype.Value](col string, low, high V) Predicate {
	return &leafPred{col: col, kind: kindRange, low: low, high: high}
}

// AtLeast selects rows with column >= low.
func AtLeast[V coltype.Value](col string, low V) Predicate {
	return &leafPred{col: col, kind: kindAtLeast, low: low}
}

// LessThan selects rows with column < high.
func LessThan[V coltype.Value](col string, high V) Predicate {
	return &leafPred{col: col, kind: kindLessThan, high: high}
}

// Equals selects rows with column == v.
func Equals[V coltype.Value](col string, v V) Predicate {
	return &leafPred{col: col, kind: kindEquals, low: v}
}

// In selects rows whose column equals any of the given values (an
// IN-list, answered in a single index pass). The values are copied, so
// a caller-reused backing slice cannot change the predicate later.
func In[V coltype.Value](col string, values ...V) Predicate {
	return &leafPred{col: col, kind: kindIn, low: append([]V(nil), values...)}
}

// StrRange selects rows of a string column with low <= v <= high.
// String ranges are inclusive on both ends (the dictionary maps them to
// a half-open code range internally).
func StrRange(col, low, high string) Predicate {
	return &leafPred{col: col, kind: kindRange, low: low, high: high}
}

// StrAtLeast selects rows of a string column with v >= low.
func StrAtLeast(col, low string) Predicate {
	return &leafPred{col: col, kind: kindAtLeast, low: low}
}

// StrLessThan selects rows of a string column with v < high.
func StrLessThan(col, high string) Predicate {
	return &leafPred{col: col, kind: kindLessThan, high: high}
}

// StrEquals selects rows of a string column equal to v.
func StrEquals(col, v string) Predicate {
	return &leafPred{col: col, kind: kindEquals, low: v}
}

// StrIn selects rows of a string column equal to any of the given
// values (strings absent from the column select nothing).
func StrIn(col string, values ...string) Predicate {
	return &leafPred{col: col, kind: kindIn, low: append([]string(nil), values...)}
}

// StrPrefix selects rows of a string column starting with prefix.
// Matching strings form a contiguous dictionary range, so the leaf is
// answered in a single index pass like any other range.
func StrPrefix(col, prefix string) Predicate {
	return &leafPred{col: col, kind: kindPrefix, low: prefix}
}

// And selects rows satisfying every child predicate.
func And(ps ...Predicate) Predicate { return &andPred{kids: ps} }

// Or selects rows satisfying at least one child predicate.
func Or(ps ...Predicate) Predicate { return &orPred{kids: ps} }

// AndNot selects rows satisfying p but not q.
func AndNot(p, q Predicate) Predicate { return &andNotPred{p: p, q: q} }

// ---- parameterized bounds ----

// Bound is one side of a predicate leaf built with the P-suffixed
// constructors (RangeP, EqualsP, ...): either a literal wrapped by
// Val/StrVal, or a named placeholder created by Param/StrParam whose
// value is supplied per execution via Prepared.Bind. The zero Bound is
// invalid and rejected at compile time.
type Bound struct {
	name     string // placeholder name; "" for literals
	lit      any    // literal value when name == ""
	typ      string // declared value type ("int64", "string", ...)
	isParam  bool
	scalarOK func(any) bool // reports whether x is one declared value
	listOK   func(any) bool // reports whether x is a slice of them (IN)
}

// Param returns a named placeholder for a numeric bound of type V. The
// placeholder's type is checked against the column at Prepare time and
// against the supplied value at Bind time.
func Param[V coltype.Value](name string) Bound {
	return Bound{
		name:     name,
		typ:      coltype.TypeName[V](),
		isParam:  true,
		scalarOK: func(x any) bool { _, ok := x.(V); return ok },
		listOK:   func(x any) bool { _, ok := x.([]V); return ok },
	}
}

// StrParam returns a named placeholder for a string bound. In an InP
// leaf it binds to a []string.
func StrParam(name string) Bound {
	return Bound{
		name:     name,
		typ:      "string",
		isParam:  true,
		scalarOK: func(x any) bool { _, ok := x.(string); return ok },
		listOK:   func(x any) bool { _, ok := x.([]string); return ok },
	}
}

// Val wraps a numeric literal as a Bound, for mixing fixed and
// parameterized bounds in one P-suffixed leaf.
func Val[V coltype.Value](v V) Bound {
	return Bound{lit: v, typ: coltype.TypeName[V]()}
}

// StrVal wraps a string literal as a Bound.
func StrVal(s string) Bound {
	return Bound{lit: s, typ: "string"}
}

// RangeP selects rows with low <= column < high (numeric) or
// low <= column <= high (string), with either bound a literal (Val,
// StrVal) or a placeholder (Param, StrParam).
func RangeP(col string, low, high Bound) Predicate {
	return &leafPred{col: col, kind: kindRange, low: low, high: high}
}

// AtLeastP selects rows with column >= low.
func AtLeastP(col string, low Bound) Predicate {
	return &leafPred{col: col, kind: kindAtLeast, low: low}
}

// LessThanP selects rows with column < high.
func LessThanP(col string, high Bound) Predicate {
	return &leafPred{col: col, kind: kindLessThan, high: high}
}

// EqualsP selects rows with column == v.
func EqualsP(col string, v Bound) Predicate {
	return &leafPred{col: col, kind: kindEquals, low: v}
}

// InP selects rows whose column equals any value of an IN-list bound at
// execution time: the placeholder binds to a []V (Param) or []string
// (StrParam). The bound must be a placeholder — literal IN-lists are
// expressed with In/StrIn.
func InP(col string, set Bound) Predicate {
	return &leafPred{col: col, kind: kindIn, low: set}
}

// PrefixP selects rows of a string column starting with a prefix bound
// at execution time.
func PrefixP(col string, prefix Bound) Predicate {
	return &leafPred{col: col, kind: kindPrefix, low: prefix}
}

// resolveBound substitutes a literal or bound parameter value for a
// Bound placeholder; non-Bound values pass through.
func resolveBound(col string, x any, binds map[string]any) (any, bool, error) {
	b, ok := x.(Bound)
	if !ok {
		return x, false, nil
	}
	if b.name == "" {
		return b.lit, true, nil
	}
	v, bnd := binds[b.name]
	if !bnd {
		return nil, false, fmt.Errorf("column %q: parameter $%s is not bound (prepare the query and Bind it)", col, b.name)
	}
	return v, true, nil
}

// resolveLeaf substitutes every Bound of a leaf, returning a leaf whose
// bounds are plain values ready for compileLeaf. Placeholder-free
// leaves resolve to themselves.
func resolveLeaf(p *leafPred, binds map[string]any) (*leafPred, error) {
	lo, ch1, err := resolveBound(p.col, p.low, binds)
	if err != nil {
		return nil, err
	}
	hi, ch2, err := resolveBound(p.col, p.high, binds)
	if err != nil {
		return nil, err
	}
	if !ch1 && !ch2 {
		return p, nil
	}
	r := *p
	r.low, r.high = lo, hi
	return &r, nil
}

// leafHasParams reports whether a leaf carries named placeholders.
func leafHasParams(p *leafPred) bool {
	return boundParamName(p.low) != "" || boundParamName(p.high) != ""
}

func boundParamName(x any) string {
	if b, ok := x.(Bound); ok {
		return b.name
	}
	return ""
}

// checkLeafBounds validates a leaf's shape against its column — the
// declared Bound types and the string-only kinds — so Prepare rejects
// mismatches before any value is bound. The InP rule — the IN-list
// must be a placeholder — lives here too.
func checkLeafBounds(p *leafPred, c anyColumn) error {
	if p.kind == kindPrefix && c.colType() != "string" {
		return fmt.Errorf("column %q is %s: prefix predicates need a string column", p.col, c.colType())
	}
	for _, x := range []any{p.low, p.high} {
		b, ok := x.(Bound)
		if !ok {
			continue
		}
		if b.isParam && b.name == "" {
			return fmt.Errorf("column %q: parameter with empty name", p.col)
		}
		if !b.isParam && b.typ == "" {
			return fmt.Errorf("column %q: invalid zero Bound (use Val/StrVal/Param/StrParam)", p.col)
		}
		if b.typ != "" && b.typ != c.colType() {
			what := "bound"
			if b.name != "" {
				what = "parameter $" + b.name
			}
			return fmt.Errorf("column %q is %s but %s is %s", p.col, c.colType(), what, b.typ)
		}
		if p.kind == kindIn && !b.isParam {
			return fmt.Errorf("column %q: InP needs a Param/StrParam IN-list (use In/StrIn for literals)", p.col)
		}
	}
	return nil
}

// SelectOptions tunes evaluation.
type SelectOptions struct {
	// Ctx cancels the execution: the segment fan-out checks it between
	// segments (serial executions between iterations, parallel workers
	// before claiming the next segment), so a canceled or deadline-expired
	// query returns promptly without evaluating segments no worker has
	// started — in-flight segments drain first, their partial results are
	// discarded, and the executor reports the context's error (wrapped, so
	// errors.Is(err, context.Canceled / context.DeadlineExceeded) works).
	// A query whose deadline already expired does no per-segment work at
	// all. nil means no cancellation.
	Ctx context.Context
	// ScanThreshold is where a leaf stops probing a segment's imprint and
	// scans it instead (the paper's optimizer remark: prefer a scan where
	// the index cannot pay for itself), decided per segment in two stages
	// against this one number. First the segment's imprint histogram
	// estimates the share of rows that qualify: above the threshold the
	// leaf is unselective and every block would survive the probe. Then
	// the imprint itself is sampled at the executor's block granularity
	// (core.Index.ResidualShare — a few dozen windows of stored vectors,
	// no state): when the share of blocks a probe could neither skip nor
	// mark exact is above the threshold, the probe prunes nothing —
	// qualifying rows are few but scattered into every block, the
	// paper's worst case — and its cost buys only what a scan returns
	// anyway. Both stages are pure functions of the segment's imprint
	// and the bound predicate, so the choice never depends on
	// parallelism or shard count. 0 means the default of 0.95;
	// set above 1 to always probe.
	ScanThreshold float64
	// Parallelism bounds the worker pool that fans segments out during
	// query execution. 0 means GOMAXPROCS; 1 forces serial execution.
	// Results are merged in segment order either way, so parallelism
	// never changes what a query returns.
	Parallelism int
}

func (o SelectOptions) threshold() float64 {
	if o.ScanThreshold == 0 {
		return 0.95
	}
	return o.ScanThreshold
}

// ---- compiled predicate trees ----

// blockKernel is the vectorized residual evaluator of one predicate
// subtree over one segment: it evaluates rows [from, to) of the
// segment's value slab — segment-local ids, to-from <= BlockRows — into
// a selection bitmask whose bit i is set iff row from+i satisfies the
// predicate. Only the lanes in want are asked for: for them the mask is
// exact, kern(from, to, want) & want == kern(from, to, all) & want, and
// the bits outside want (at and above to-from included) mean nothing —
// callers AND the mask with want. The mask travels by value, keeping
// every block evaluation on the stack. Leaf kernels are monomorphized
// comparison loops over the slab; And/Or/AndNot combine child masks
// word-wise, each child asked only for the lanes still undecided, so a
// whole tree costs one dynamic call per 64-row block instead of one (or
// one per leaf) per row.
//
// want is what lets the residual read only the cachelines the imprint
// marks (Algorithm 3): walkBlocks passes the block's live candidate
// lanes, and a leaf whose wanted lanes fill at most half the block's
// octets (8-lane groups: one cacheline of 8-byte values) checks those
// octets alone; any denser block runs the 64-lane body, whose carry
// chain streams a whole block faster than eight octet checks.
type blockKernel func(from, to int, want uint64) uint64

// zeroMask is the kernel of a subtree that matches nothing in the
// segment (a pruned leaf under OR). A package-level func converts to a
// blockKernel without allocating.
func zeroMask(from, to int, want uint64) uint64 { return 0 }

// leafPlan is one predicate leaf translated against its column exactly
// once: typed bounds and IN-sets come from that single translation.
// Execution is per segment — the plan resolves the column's segments
// live, so a plan stays valid across appends, updates and compactions
// (string dictionary translations are cached per segment, keyed by the
// segment's generation).
type leafPlan interface {
	// segEstimate is the selectivity estimate within segment s; negative
	// when that segment has no imprint.
	segEstimate(s int) float64
	// segResidual samples segment s's imprint (which segEstimate reported
	// present) for the share of its blocks a probe would leave to the
	// residual evaluator — neither skipped nor exact.
	segResidual(s int) float64
	// prune reports that segment s provably contains no qualifying row
	// (min/max summary or dictionary excludes the predicate), so the
	// segment can be skipped without probing.
	prune(s int) bool
	// segRuns probes segment s's index down to candidate runs in
	// BlockRows units, local to the segment, appended into dst (pass a
	// pooled buffer truncated to length 0 to keep probing alloc-free),
	// and the candidate lanes within them: an imprint's per-cacheline
	// hits, every lane for a scan-only segment.
	segRuns(s int, dst []core.CandidateRun) ([]core.CandidateRun, candLanes, core.QueryStats)
	// segKernel is the vectorized residual evaluator for segment s.
	// Kernels are cached per segment (re-derived when the segment's
	// value slab or dictionary generation changes), so steady-state
	// executions fetch a closure instead of building one.
	segKernel(s int) blockKernel
	// access names the column's index kind ("imprints" or "scan");
	// per-segment deviations (pruned, scan fallback) are decided during
	// evaluation.
	access() string
	// deltaKernel is the selection-mask kernel of the leaf over the
	// buffered slab r names, derived per execution (slabs have no index,
	// no summary and no cache). Semantics match segKernel; a string leaf
	// is translated once against the slab's arrival-ordered dictionary
	// into a membership set over its codes.
	deltaKernel(r segRef) blockKernel
}

// ---- monomorphized leaf kernels ----

// Each kernel folds one 64-row block of a typed value slab into a
// selection mask. Its loop body — the xxxLanes function — is written
// once, over *[BlockRows]V: the fixed width tells the compiler every
// lane index and shift count is in range (no bounds checks, no
// oversize-shift guard). No lane branches, so selectivity does not
// stall the branch predictor the way per-row check closures do.
// Integer comparisons — range, equality, at-least and less-than, string
// leaves included through their int32 codes — are all one band test,
// uint64(v-lo) < span, run by intBandLanes as a carry chain: the lanes
// go from 63 down to 0, and each compare's borrow is the carry-in of an
// add of the accumulator to itself, which shifts the verdict in with no
// flag-set, shift or OR (MOV, SUB, SUB, ADC per lane). Float kernels
// keep flag-sets — NaN fails every compare and -0 equals 0, which no
// integer trick honours — grouped four to a nibble, so four are OR-ed
// together before one shift lands them in the accumulator. The one
// ragged block a segment or delta stretch can end in runs through the
// same body: padBlock copies it into a stack array and the padded lanes
// are masked off. The bodies are top-level functions, not part of the
// closures: the compiler does not inline calls inside a closure whose
// constructor was itself inlined, so a closure holds nothing per lane.

// b2u is the flag-set the float kernels are built from.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// nibble packs four lane verdicts into bits 0-3.
func nibble(b0, b1, b2, b3 bool) uint64 {
	return b2u(b0) | b2u(b1)<<1 | b2u(b2)<<2 | b2u(b3)<<3
}

// octetMask returns bit 8k set iff octet k of want — lanes 8k to 8k+7 —
// holds a wanted lane.
func octetMask(want uint64) uint64 {
	want |= want >> 4
	want |= want >> 2
	want |= want >> 1
	return want & 0x0101010101010101
}

// sparseOctets returns want's octets (octetMask) and whether they are
// few enough — at most half the block's — to be checked one by one.
func sparseOctets(want uint64) (uint64, bool) {
	if want == ^uint64(0) { // a whole live block: a scan's common case
		return 0, false
	}
	occ := octetMask(want)
	return occ, bits.OnesCount64(occ) <= BlockRows/8/2
}

// octet returns the 8 lanes of blk from lane at (a multiple of 8) on.
func octet[V any](blk *[BlockRows]V, at int) *[8]V {
	at &= BlockRows - 8
	return (*[8]V)(blk[at : at+8])
}

// padBlock fills pad — the caller's stack array — with a ragged block's
// rows followed by copies of the first one: a value already in the
// block, so a padded lane is as valid an operand (a real dictionary
// code, say) as a real one. The caller masks the verdicts with
// blockOnes(len(rows)).
func padBlock[V any](pad *[BlockRows]V, rows []V) *[BlockRows]V {
	n := copy(pad[:], rows)
	for i := n; i < BlockRows; i++ {
		pad[i] = pad[0]
	}
	return pad
}

// intLeafKernel answers an integer comparison leaf as one band of
// intBandKernel: equality is the band [v, v+1), less-than the band from
// the type's minimum up to the bound, and at-least the complement of
// that band.
func intLeafKernel[V coltype.Value](vals []V, kind leafKind, low, high V) blockKernel {
	switch kind {
	case kindRange:
		return intRangeKernel(vals, low, high)
	case kindEquals:
		return intBandKernel(vals, int64(low), 1, 0)
	}
	min64 := int64(coltype.MinOf[V]())
	if kind == kindAtLeast {
		return intBandKernel(vals, min64, uint64(int64(low)-min64), ^uint64(0))
	}
	return intBandKernel(vals, min64, uint64(int64(high)-min64), 0) // kindLessThan
}

// intRangeKernel answers low <= v < high over an integer slab — a
// string leaf's code interval included — with one unsigned wrap-around
// compare per lane: for integer values, low <= v && v < high ⟺
// uint64(v-low) < uint64(high-low) (arithmetic mod 2^64, valid for
// every signed and unsigned width once widened to 64 bits). Callers
// guarantee an integer V; an empty range short-circuits to zeroMask.
func intRangeKernel[V coltype.Value](vals []V, low, high V) blockKernel {
	if high <= low {
		return zeroMask
	}
	lo64 := int64(low)
	return intBandKernel(vals, lo64, uint64(int64(high)-lo64), 0)
}

// intBandKernel answers uint64(v-lo64) < span for every lane, the mask
// xor-ed with inv (all ones complements the band).
func intBandKernel[V coltype.Value](vals []V, lo64 int64, span, inv uint64) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return intBandBlock((*[BlockRows]V)(vals[from:to]), want, lo64, span) ^ inv
		}
		var pad [BlockRows]V
		return intBandBlock(padBlock(&pad, vals[from:to]), want, lo64, span) ^ inv
	}
}

// intBandBlock runs the band over the wanted lanes of one block: octet
// by octet when they are sparse, else the whole carry chain.
//
//imprintvet:hotpath
func intBandBlock[V coltype.Value](blk *[BlockRows]V, want uint64, lo64 int64, span uint64) uint64 {
	occ, sparse := sparseOctets(want)
	if !sparse {
		return intBandLanes(blk, lo64, span)
	}
	var acc uint64
	for ; occ != 0; occ &= occ - 1 {
		// intBandLanes' carry chain over one octet, written out: a call
		// per octet would cost as much as its eight lanes.
		at := bits.TrailingZeros64(occ)
		o := octet(blk, at)
		var r, b uint64
		_, b = bits.Sub64(uint64(int64(o[7])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[6])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[5])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[4])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[3])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[2])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[1])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		_, b = bits.Sub64(uint64(int64(o[0])-lo64), span, 0)
		r, _ = bits.Add64(r, r, b)
		acc |= r << uint(at)
	}
	return acc
}

// intBandLanes is the carry chain: the lanes from 63 down to 0, each
// compare's borrow added into the accumulator doubled, so lane i's
// verdict ends in bit i.
//
//imprintvet:hotpath
func intBandLanes[V coltype.Value](blk *[BlockRows]V, lo64 int64, span uint64) uint64 {
	var acc, b uint64
	for i := BlockRows - 4; i >= 0; i -= 4 {
		_, b = bits.Sub64(uint64(int64(blk[i+3])-lo64), span, 0)
		acc, _ = bits.Add64(acc, acc, b)
		_, b = bits.Sub64(uint64(int64(blk[i+2])-lo64), span, 0)
		acc, _ = bits.Add64(acc, acc, b)
		_, b = bits.Sub64(uint64(int64(blk[i+1])-lo64), span, 0)
		acc, _ = bits.Add64(acc, acc, b)
		_, b = bits.Sub64(uint64(int64(blk[i])-lo64), span, 0)
		acc, _ = bits.Add64(acc, acc, b)
	}
	return acc
}

// rangeKernel answers low <= v < high over a float slab (NaN fails both
// compares, so it never qualifies). It and the float kernels after
// it keep flag-sets: none of the integer band's wrap-around applies.
func rangeKernel[V coltype.Value](vals []V, low, high V) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return rangeBlock((*[BlockRows]V)(vals[from:to]), want, low, high)
		}
		var pad [BlockRows]V
		return rangeBlock(padBlock(&pad, vals[from:to]), want, low, high)
	}
}

//imprintvet:hotpath
func rangeBlock[V coltype.Value](blk *[BlockRows]V, want uint64, low, high V) uint64 {
	occ, sparse := sparseOctets(want)
	if !sparse {
		return rangeLanes(blk, low, high)
	}
	var acc uint64
	for ; occ != 0; occ &= occ - 1 {
		at := bits.TrailingZeros64(occ)
		o := octet(blk, at)
		acc |= (nibble(o[0] >= low, o[1] >= low, o[2] >= low, o[3] >= low)&nibble(o[0] < high, o[1] < high, o[2] < high, o[3] < high) |
			(nibble(o[4] >= low, o[5] >= low, o[6] >= low, o[7] >= low)&nibble(o[4] < high, o[5] < high, o[6] < high, o[7] < high))<<4) << uint(at)
	}
	return acc
}

//imprintvet:hotpath
func rangeLanes[V coltype.Value](blk *[BlockRows]V, low, high V) uint64 {
	var acc uint64
	for i := 0; i < BlockRows; i += 4 {
		acc |= (nibble(blk[i] >= low, blk[i+1] >= low, blk[i+2] >= low, blk[i+3] >= low) &
			nibble(blk[i] < high, blk[i+1] < high, blk[i+2] < high, blk[i+3] < high)) << uint(i)
	}
	return acc
}

func atLeastKernel[V coltype.Value](vals []V, low V) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return atLeastBlock((*[BlockRows]V)(vals[from:to]), want, low)
		}
		var pad [BlockRows]V
		return atLeastBlock(padBlock(&pad, vals[from:to]), want, low)
	}
}

//imprintvet:hotpath
func atLeastBlock[V coltype.Value](blk *[BlockRows]V, want uint64, low V) uint64 {
	occ, sparse := sparseOctets(want)
	if !sparse {
		return atLeastLanes(blk, low)
	}
	var acc uint64
	for ; occ != 0; occ &= occ - 1 {
		at := bits.TrailingZeros64(occ)
		o := octet(blk, at)
		acc |= (nibble(o[0] >= low, o[1] >= low, o[2] >= low, o[3] >= low) | nibble(o[4] >= low, o[5] >= low, o[6] >= low, o[7] >= low)<<4) << uint(at)
	}
	return acc
}

//imprintvet:hotpath
func atLeastLanes[V coltype.Value](blk *[BlockRows]V, low V) uint64 {
	var acc uint64
	for i := 0; i < BlockRows; i += 4 {
		acc |= nibble(blk[i] >= low, blk[i+1] >= low, blk[i+2] >= low, blk[i+3] >= low) << uint(i)
	}
	return acc
}

func lessThanKernel[V coltype.Value](vals []V, high V) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return lessThanBlock((*[BlockRows]V)(vals[from:to]), want, high)
		}
		var pad [BlockRows]V
		return lessThanBlock(padBlock(&pad, vals[from:to]), want, high)
	}
}

//imprintvet:hotpath
func lessThanBlock[V coltype.Value](blk *[BlockRows]V, want uint64, high V) uint64 {
	occ, sparse := sparseOctets(want)
	if !sparse {
		return lessThanLanes(blk, high)
	}
	var acc uint64
	for ; occ != 0; occ &= occ - 1 {
		at := bits.TrailingZeros64(occ)
		o := octet(blk, at)
		acc |= (nibble(o[0] < high, o[1] < high, o[2] < high, o[3] < high) | nibble(o[4] < high, o[5] < high, o[6] < high, o[7] < high)<<4) << uint(at)
	}
	return acc
}

//imprintvet:hotpath
func lessThanLanes[V coltype.Value](blk *[BlockRows]V, high V) uint64 {
	var acc uint64
	for i := 0; i < BlockRows; i += 4 {
		acc |= nibble(blk[i] < high, blk[i+1] < high, blk[i+2] < high, blk[i+3] < high) << uint(i)
	}
	return acc
}

func equalsKernel[V coltype.Value](vals []V, v V) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return equalsBlock((*[BlockRows]V)(vals[from:to]), want, v)
		}
		var pad [BlockRows]V
		return equalsBlock(padBlock(&pad, vals[from:to]), want, v)
	}
}

//imprintvet:hotpath
func equalsBlock[V coltype.Value](blk *[BlockRows]V, want uint64, v V) uint64 {
	occ, sparse := sparseOctets(want)
	if !sparse {
		return equalsLanes(blk, v)
	}
	var acc uint64
	for ; occ != 0; occ &= occ - 1 {
		at := bits.TrailingZeros64(occ)
		o := octet(blk, at)
		acc |= (nibble(o[0] == v, o[1] == v, o[2] == v, o[3] == v) | nibble(o[4] == v, o[5] == v, o[6] == v, o[7] == v)<<4) << uint(at)
	}
	return acc
}

//imprintvet:hotpath
func equalsLanes[V coltype.Value](blk *[BlockRows]V, v V) uint64 {
	var acc uint64
	for i := 0; i < BlockRows; i += 4 {
		acc |= nibble(blk[i] == v, blk[i+1] == v, blk[i+2] == v, blk[i+3] == v) << uint(i)
	}
	return acc
}

// inKernel tests set membership per lane. Small IN-lists compare
// against the sorted unique values directly (a handful of flag-sets per
// lane beats a map probe); larger ones fall back to the member map.
func inKernel[V coltype.Value](vals []V, set []V, member map[V]struct{}) blockKernel {
	var small []V
	if len(set) <= 4 {
		small, member = append(small, set...), nil
	}
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return inLanes((*[BlockRows]V)(vals[from:to]), small, member)
		}
		var pad [BlockRows]V
		return inLanes(padBlock(&pad, vals[from:to]), small, member)
	}
}

// inLanes tests every lane, whatever is wanted: no served statement
// holds an IN-list, and a loop over only the wanted lanes, paying a
// trailing-zero count and a shift per lane, would need a cut-over of
// its own (on the delta's member table it already lost at half a
// block).
//
//imprintvet:hotpath
func inLanes[V coltype.Value](blk *[BlockRows]V, small []V, member map[V]struct{}) uint64 {
	var acc uint64
	if member != nil {
		for i := range blk {
			_, ok := member[blk[i]]
			acc |= b2u(ok) << uint(i)
		}
		return acc
	}
	for i := range blk {
		bit := uint64(0)
		for _, s := range small {
			if blk[i] == s {
				bit = 1
			}
		}
		acc |= bit << uint(i)
	}
	return acc
}

// memberKernel tests each lane's dictionary code against a membership
// table indexed by code — how a string leaf evaluates a delta slab,
// whose arrival-ordered codes form no interval. Like inLanes, it tests
// every lane whatever is wanted.
func memberKernel(codes []int32, member []bool) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if to-from == BlockRows {
			return memberLanes((*[BlockRows]int32)(codes[from:to]), member)
		}
		var pad [BlockRows]int32
		return memberLanes(padBlock(&pad, codes[from:to]), member)
	}
}

//imprintvet:hotpath
func memberLanes(blk *[BlockRows]int32, member []bool) uint64 {
	var acc uint64
	for i := range blk {
		acc |= b2u(member[blk[i]]) << uint(i)
	}
	return acc
}

// ---- word-wise mask composition ----

// andKernels combines child masks with word-AND: each child is asked
// only for the lanes every earlier one kept, and the rest are skipped
// once none is left.
func andKernels(ks []blockKernel) blockKernel {
	return func(from, to int, want uint64) uint64 {
		for _, k := range ks {
			if want == 0 {
				return 0
			}
			want &= k(from, to, want)
		}
		return want
	}
}

// orKernels combines child masks with word-OR: each child is asked only
// for the lanes no earlier one set, and the rest are skipped once every
// wanted lane is.
func orKernels(ks []blockKernel) blockKernel {
	return func(from, to int, want uint64) uint64 {
		var acc uint64
		for _, k := range ks {
			if want == 0 {
				break
			}
			hit := k(from, to, want) & want
			acc, want = acc|hit, want&^hit
		}
		return acc
	}
}

// andNotKernel computes p &^ q, asking q only for the lanes p kept.
func andNotKernel(p, q blockKernel) blockKernel {
	return func(from, to int, want uint64) uint64 {
		if want &= p(from, to, want); want == 0 {
			return 0
		}
		return want &^ q(from, to, want)
	}
}

// compileLeafCalls counts leaf translations, so tests can assert that
// each leaf is translated exactly once per compile (and that prepared
// executions of static leaves translate zero times).
var compileLeafCalls atomic.Uint64

// compiledNode is the compiled form of a predicate subtree: every leaf
// is bound to its column, and leaves without placeholders carry their
// one-time translation. A compiled tree is immutable and safe for
// concurrent executions; it stays valid for the lifetime of the table
// because plans resolve segment state live at execution time.
type compiledNode struct {
	op   string // "leaf", "and", "or", "andnot"
	leaf *leafPred
	col  anyColumn
	plan leafPlan // non-nil when the leaf has no placeholders
	kids []*compiledNode
}

// compile validates a predicate tree against the table and translates
// every placeholder-free leaf exactly once. Callers hold the table's
// read lock.
func (t *Table) compile(p Predicate) (*compiledNode, error) {
	switch node := p.(type) {
	case *leafPred:
		c, ok := t.cols[node.col]
		if !ok {
			return nil, fmt.Errorf("table %s: no column %q", t.name, node.col)
		}
		if err := checkLeafBounds(node, c); err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		cn := &compiledNode{op: "leaf", leaf: node, col: c}
		if !leafHasParams(node) {
			resolved, err := resolveLeaf(node, nil)
			if err != nil {
				return nil, err
			}
			compileLeafCalls.Add(1)
			plan, err := c.compileLeaf(resolved)
			if err != nil {
				return nil, err
			}
			cn.plan = plan
		}
		return cn, nil
	case *andPred:
		if len(node.kids) == 0 {
			return nil, fmt.Errorf("table %s: empty AND", t.name)
		}
		kids := t.fuseBands(node.kids)
		if len(kids) == 1 {
			return t.compile(kids[0])
		}
		return t.compileKids("and", kids)
	case *orPred:
		if len(node.kids) == 0 {
			return nil, fmt.Errorf("table %s: empty OR", t.name)
		}
		return t.compileKids("or", node.kids)
	case *andNotPred:
		return t.compileKids("andnot", []Predicate{node.p, node.q})
	}
	return nil, fmt.Errorf("table %s: unknown predicate %T", t.name, p)
}

// fuseBands rewrites the direct kids of an AND so that an AtLeast leaf
// and a LessThan leaf on the same numeric column become one Range leaf
// carrying both bounds (literal or placeholder): the band is estimated,
// probed and evaluated once — the paper's Algorithm 3 — and keeps the
// exact runs two half-open probes would lose. The fused leaf takes the
// earlier kid's position; each leaf joins at most one pair, so a third
// leaf on the column stays as it is. Kids under Or/AndNot or a nested
// And are not direct and are left alone. String columns are never
// fused: a string Range is upper-inclusive, so StrAtLeast ∧ StrLessThan
// has no Range equivalent. The conjunction's semantics carry over
// because a numeric Range leaf with high <= low or a NaN bound selects
// nothing (numLeafPlan.prune).
func (t *Table) fuseBands(kids []Predicate) []Predicate {
	half := func(p Predicate) *leafPred {
		l, ok := p.(*leafPred)
		if !ok || (l.kind != kindAtLeast && l.kind != kindLessThan) {
			return nil
		}
		if c, ok := t.cols[l.col]; !ok || c.colType() == "string" {
			return nil
		}
		return l
	}
	out := make([]Predicate, 0, len(kids))
	used := make([]bool, len(kids))
	for i, kid := range kids {
		if used[i] {
			continue
		}
		if a := half(kid); a != nil {
			for j := i + 1; j < len(kids); j++ {
				b := half(kids[j])
				if b == nil || used[j] || b.col != a.col || b.kind == a.kind {
					continue
				}
				used[j] = true
				lo, hi := a, b
				if a.kind == kindLessThan {
					lo, hi = b, a
				}
				kid = &leafPred{col: a.col, kind: kindRange, low: lo.low, high: hi.high}
				break
			}
		}
		out = append(out, kid)
	}
	return out
}

func (t *Table) compileKids(op string, preds []Predicate) (*compiledNode, error) {
	cn := &compiledNode{op: op, kids: make([]*compiledNode, len(preds))}
	for i, kid := range preds {
		k, err := t.compile(kid)
		if err != nil {
			return nil, err
		}
		cn.kids[i] = k
	}
	return cn, nil
}

// execNode is one execution of a compiled subtree: parameters are
// resolved and every leaf carries a ready leafPlan (static leaves reuse
// the compile-time translation, parameterized ones are translated once
// per execution from the bound values). An execNode is immutable during
// the execution, so segment workers share it freely.
type execNode struct {
	op    string
	leaf  *leafPred
	plan  leafPlan
	binds map[string]any // for Explain's bound-parameter rendering
	kids  []*execNode
}

// bindTree resolves one execution's parameters against a compiled tree.
// Callers hold the table's read lock.
func (t *Table) bindTree(cn *compiledNode, binds map[string]any) (*execNode, error) {
	en := &execNode{op: cn.op, leaf: cn.leaf, plan: cn.plan, binds: binds}
	if cn.op == "leaf" && en.plan == nil {
		resolved, err := resolveLeaf(cn.leaf, binds)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		compileLeafCalls.Add(1)
		if en.plan, err = cn.col.compileLeaf(resolved); err != nil {
			return nil, err
		}
	}
	for _, kid := range cn.kids {
		k, err := t.bindTree(kid, binds)
		if err != nil {
			return nil, err
		}
		en.kids = append(en.kids, k)
	}
	return en, nil
}

// evaluated is the composable per-segment form of a predicate subtree:
// candidate row-block runs local to the segment, the selection-mask
// kernel that decides the rows of inexact runs, and (when plan
// recording is on) the plan node describing how the subtree was
// evaluated there.
type evaluated struct {
	runs  []core.CandidateRun // in BlockRows units, segment-local
	kern  blockKernel         // residual (nil for a match-all tree)
	lanes candLanes           // the rows of inexact runs kern is asked about
	plan  *PlanNode
	owner *[]core.CandidateRun // pooled backing of runs; released by releaseEval
	// origin is the row id (part-local) that position 0 of the runs, the
	// kernel and the value slab stand for, and positions [lo, hi) are the
	// rows evaluated: a sealed segment's first row and [0, segLen); for
	// buffered rows (evalDelta) the delta view's origin and a stretch of
	// its positions.
	origin, lo, hi int
	buffered       bool
}

// releaseEval returns an evaluation's pooled run and lane buffers to
// the scratch pools. Executors call it once the runs have been fully
// consumed; the evaluation must not be walked afterwards.
func releaseEval(ev *evaluated) {
	putRunScratch(ev.owner)
	ev.owner, ev.runs = nil, nil
	ev.lanes.release()
}

// candLanes is a subtree's candidate lanes within one segment: the rows
// of its inexact blocks that the imprint could not rule out, at the
// granularity the imprint answers in. An imprint leaf holds RunsInto's
// per-cacheline hit bitmap (vpc rows a bit); an and or an or over such
// leaves holds one bit per row, its kids' lanes ANDed or ORed block by
// block over its own runs; an andnot takes p's. The zero value is every
// lane — all a scan fallback, a scan-only leaf or buffered rows know.
// Lanes outside a subtree's runs are clear, so an or reads its kids'
// lanes anywhere; an extra lane only costs a check, never a row.
type candLanes struct {
	bits  []uint64 // nil: every lane (or none, below)
	vpc   int      // rows per bit: the imprint's values per cacheline, or 1
	none  bool     // no lane: a subtree that matches nothing here
	owner *[]uint64
}

// block returns the candidate lanes of the segment's block b, bit i
// standing for the block's row i.
//
//imprintvet:hotpath
func (l *candLanes) block(b int) uint64 {
	switch {
	case l.bits == nil:
		if l.none {
			return 0
		}
		return ^uint64(0)
	case l.vpc == 1:
		return l.bits[b]
	case l.vpc == 8:
		return octetLanes[uint8(l.bits[b>>3]>>uint(b&7*8))]
	}
	per := BlockRows / l.vpc // cachelines a block
	cl := b * per
	h := l.bits[cl>>6] >> uint(cl&63) & blockOnes(per)
	var m uint64
	for ; h != 0; h &= h - 1 {
		m |= blockOnes(l.vpc) << (uint(bits.TrailingZeros64(h)) * uint(l.vpc))
	}
	return m
}

// octetLanes[h] sets octet k's 8 lanes for every bit k of h: the lanes
// of a block of 8-value cachelines (8-byte values), from its hit bits.
var octetLanes = func() (t [256]uint64) {
	for h := range t {
		for k := 0; k < 8; k++ {
			if h>>k&1 != 0 {
				t[h] |= 0xff << (8 * k)
			}
		}
	}
	return t
}()

func (l *candLanes) release() {
	putLaneScratch(l.owner)
	*l = candLanes{}
}

// composeLanes folds the lanes of two kids of an and (or of an or) into
// their parent's over the parent's runs, releasing both. Every lane and
// no lane pass through without a buffer; two bitmaps fold block by
// block into a row bitmap of the segment's blocks, exact blocks all
// ones and blocks outside the runs clear.
func composeLanes(or bool, a, b candLanes, runs []core.CandidateRun, blocks int) candLanes {
	all := func(l candLanes) bool { return l.bits == nil && !l.none }
	switch {
	case or && (all(a) || b.none), !or && (a.none || all(b)):
		b.release()
		return a
	case or && (all(b) || a.none), !or && (b.none || all(a)):
		a.release()
		return b
	}
	buf := getLaneScratch(blocks)
	out := *buf
	clear(out)
	for _, r := range runs {
		for blk := int(r.Start); blk < int(r.Start+r.Count); blk++ {
			switch {
			case r.Exact:
				out[blk] = ^uint64(0)
			case or:
				out[blk] = a.block(blk) | b.block(blk)
			default:
				out[blk] = a.block(blk) & b.block(blk)
			}
		}
	}
	a.release()
	b.release()
	return candLanes{bits: out, vpc: 1, owner: buf}
}

// mergeRuns composes two child run lists with merge into a fresh pooled
// buffer and releases both children's run buffers (their lanes are the
// caller's to compose).
func mergeRuns(a, b *evaluated, merge func(dst, x, y []core.CandidateRun) []core.CandidateRun) ([]core.CandidateRun, *[]core.CandidateRun) {
	buf := getRunScratch()
	*buf = merge((*buf)[:0], a.runs, b.runs)
	putRunScratch(a.owner)
	putRunScratch(b.owner)
	return *buf, buf
}

// evalSegment evaluates one execution tree against segment s: the
// single evaluator behind both ad-hoc queries and prepared statements,
// run by each segment worker. A nil tree matches every row of the
// segment exactly. The returned evaluation's run list lives in a pooled
// buffer — the executor must releaseEval it after the walk. Callers
// hold the table's read lock.
func (t *Table) evalSegment(en *execNode, s int, opts SelectOptions, st *core.QueryStats, record bool) evaluated {
	ev := t.evalTree(en, s, opts, st, record)
	ev.origin, ev.hi = s*t.segRows, t.segLen(s)
	return ev
}

// evalTree is evalSegment's recursion over the tree.
func (t *Table) evalTree(en *execNode, s int, opts SelectOptions, st *core.QueryStats, record bool) evaluated {
	if en == nil {
		buf := getRunScratch()
		*buf = blockSpanRunsInto((*buf)[:0], t.segLen(s), true)
		var node *PlanNode
		if record {
			node = &PlanNode{Op: "all", Pred: "true"}
			node.setRuns(*buf)
		}
		return evaluated{runs: *buf, plan: node, owner: buf}
	}
	switch en.op {
	case "leaf":
		return t.evalSegmentLeaf(en, s, opts, st, record)
	case "and":
		if excludes(en, s) {
			return excluded(en, s, record)
		}
		acc := t.evalTree(en.kids[0], s, opts, st, record)
		kerns := []blockKernel{acc.kern}
		var kids []*PlanNode
		if record {
			kids = []*PlanNode{acc.plan}
		}
		for _, kid := range en.kids[1:] {
			ev := t.evalTree(kid, s, opts, st, record)
			kerns = append(kerns, ev.kern)
			acc.runs, acc.owner = mergeRuns(&acc, &ev, core.IntersectRunsInto)
			acc.lanes = composeLanes(false, acc.lanes, ev.lanes, acc.runs, t.segBlocks(s))
			if record {
				kids = append(kids, ev.plan)
			}
		}
		acc.kern = andKernels(kerns)
		if record {
			acc.plan = opNode("and", acc.runs, kids)
		}
		return acc
	case "or":
		acc := t.evalTree(en.kids[0], s, opts, st, record)
		kerns := []blockKernel{acc.kern}
		var kids []*PlanNode
		if record {
			kids = []*PlanNode{acc.plan}
		}
		for _, kid := range en.kids[1:] {
			ev := t.evalTree(kid, s, opts, st, record)
			kerns = append(kerns, ev.kern)
			acc.runs, acc.owner = mergeRuns(&acc, &ev, core.UnionRunsInto)
			acc.lanes = composeLanes(true, acc.lanes, ev.lanes, acc.runs, t.segBlocks(s))
			if record {
				kids = append(kids, ev.plan)
			}
		}
		acc.kern = orKernels(kerns)
		if record {
			acc.plan = opNode("or", acc.runs, kids)
		}
		return acc
	case "andnot":
		if excludes(en, s) {
			return excluded(en, s, record)
		}
		evP := t.evalTree(en.kids[0], s, opts, st, record)
		evQ := t.evalTree(en.kids[1], s, opts, st, record)
		out := evaluated{kern: andNotKernel(evP.kern, evQ.kern), lanes: evP.lanes}
		evQ.lanes.release()
		var plans []*PlanNode
		if record {
			plans = []*PlanNode{evP.plan, evQ.plan}
		}
		out.runs, out.owner = mergeRuns(&evP, &evQ, core.DiffRunsInto)
		if record {
			out.plan = opNode("andnot", out.runs, plans)
		}
		return out
	}
	panic("table: unknown execution op " + en.op)
}

// excludes reports, from summaries alone — min/max and dictionaries,
// no probe, no imprint sample — that no row of segment s satisfies the
// subtree: a leaf whose plan prunes s, a conjunction with an excluded
// kid, a disjunction whose every kid is excluded, a difference whose
// minuend is. evalTree asks it before evaluating any kid of an and or
// an andnot, so the costly structures of one conjunct are never walked
// on a segment a cheaper one has already ruled out.
func excludes(en *execNode, s int) bool {
	switch en.op {
	case "leaf":
		return en.plan.prune(s)
	case "and":
		for _, kid := range en.kids {
			if excludes(kid, s) {
				return true
			}
		}
		return false
	case "or":
		for _, kid := range en.kids {
			if !excludes(kid, s) {
				return false
			}
		}
		return true
	case "andnot":
		return excludes(en.kids[0], s)
	}
	return false
}

// empty is the evaluation of a subtree that matches no row of the
// segment: no runs, and a residual that rejects every row (it is still
// asked under or, where sibling runs may cover the segment's rows).
func empty(plan *PlanNode) evaluated {
	return evaluated{kern: zeroMask, lanes: candLanes{none: true}, plan: plan}
}

// excluded is the evaluation of a subtree excludes ruled out on segment
// s. When recording, its plan keeps the tree's shape: every leaf is
// pruned, for its own summary or because a conjunct excluded the
// segment before the leaf was asked anything else.
func excluded(en *execNode, s int, record bool) evaluated {
	var plan *PlanNode
	if record {
		plan = excludedPlan(en, s)
	}
	return empty(plan)
}

func excludedPlan(en *execNode, s int) *PlanNode {
	if en.op == "leaf" {
		node := leafNode(en)
		node.Access, node.Reason = "pruned", "conjunct excluded"
		if en.plan.prune(s) {
			node.Reason = "summary excludes"
		}
		return node
	}
	kids := make([]*PlanNode, len(en.kids))
	for i, kid := range en.kids {
		kids[i] = excludedPlan(kid, s)
	}
	return opNode(en.op, nil, kids)
}

// leafNode is a leaf's plan node before its segment is evaluated.
func leafNode(en *execNode) *PlanNode {
	return &PlanNode{Op: "leaf", Column: en.leaf.col, Pred: en.leaf.describe(en.binds),
		Access: en.plan.access(), Selectivity: -1, Residual: -1}
}

// evalSegmentLeaf runs one leaf against one segment. Pruning comes
// first — a segment whose summary (or dictionary) provably excludes the
// predicate is skipped without probing. The data-dependent access-path
// choice — probe the index or fall back to a scan — is resolved per
// segment on every execution, in the two stages SelectOptions.
// ScanThreshold documents: the histogram's selectivity estimate, then a
// sample of what the imprint could prune at block granularity.
func (t *Table) evalSegmentLeaf(en *execNode, s int, opts SelectOptions, st *core.QueryStats, record bool) evaluated {
	plan := en.plan
	var node *PlanNode
	if record {
		node = leafNode(en)
	}
	if plan.prune(s) {
		if record {
			node.Access = "pruned"
			node.Reason = "summary excludes"
		}
		return empty(node)
	}
	// Cost-based access path: skip index probing for segments where the
	// probe cannot pay for itself. Only imprint-backed segments yield an
	// estimate (negative means none); a segment without one is scanned
	// by segRuns. A threshold of 1 or more can never be crossed, so it
	// samples nothing.
	if est := plan.segEstimate(s); est >= 0 {
		thr := opts.threshold()
		why := ""
		if est > thr {
			why = "unselective"
		} else if thr < 1 {
			res := plan.segResidual(s)
			if record {
				node.Residual = res
			}
			if res > thr {
				why = "probe prunes nothing"
			}
		}
		if record {
			node.Selectivity = est
		}
		if why != "" {
			buf := getRunScratch()
			*buf = blockSpanRunsInto((*buf)[:0], t.segLen(s), false)
			if record {
				node.Access = "scan"
				node.Reason = why
				node.setRuns(*buf)
			}
			return evaluated{runs: *buf, kern: plan.segKernel(s), plan: node, owner: buf}
		}
	}
	buf := getRunScratch()
	runs, lanes, s1 := plan.segRuns(s, (*buf)[:0])
	*buf = runs
	st.Add(s1)
	if record {
		node.Stats = s1
		node.setRuns(runs)
	}
	return evaluated{runs: runs, kern: plan.segKernel(s), lanes: lanes, plan: node, owner: buf}
}

// blockSpanRunsInto appends one run covering every block of an n-row
// segment to dst: inexact for scan fallbacks (rows must still pass the
// residual evaluator), exact for a query with no predicate at all.
func blockSpanRunsInto(dst []core.CandidateRun, n int, exact bool) []core.CandidateRun {
	blocks := (n + BlockRows - 1) / BlockRows
	if blocks == 0 {
		return dst
	}
	return append(dst, core.CandidateRun{Start: 0, Count: uint32(blocks), Exact: exact})
}

// ---- typed leaf compilation on colState ----

func leafBounds[V coltype.Value](c *colState[V], p *leafPred) (low, high V, err error) {
	cast := func(x any) (V, error) {
		if x == nil {
			var zero V
			return zero, nil
		}
		v, ok := x.(V)
		if !ok {
			return v, fmt.Errorf("column %q is %s but predicate bound is %T",
				c.name, coltype.TypeName[V](), x)
		}
		return v, nil
	}
	if low, err = cast(p.low); err != nil {
		return low, high, err
	}
	high, err = cast(p.high)
	return low, high, err
}

func (c *colState[V]) inSet(p *leafPred) ([]V, error) {
	set, ok := p.low.([]V)
	if !ok {
		return nil, fmt.Errorf("column %q is %s but IN-list holds %T",
			c.name, coltype.TypeName[V](), p.low)
	}
	return set, nil
}

// numLeafPlan is the compiled form of a numeric leaf: bounds typed
// once, IN-set materialized once (slice for index probes, map for the
// kernel over long lists, [setLo, setHi] for segment pruning). Segments are
// resolved through the column state at execution time, so the plan
// stays valid across appends, updates, rebuilds and compactions.
type numLeafPlan[V coltype.Value] struct {
	c            *colState[V]
	kind         leafKind
	low, high    V
	set          []V            // kindIn
	member       map[V]struct{} // kindIn
	setLo, setHi V              // kindIn summary bounds (meaningless when empty)

	// Per-segment selection-mask kernels, cached so steady-state
	// executions reuse one closure per segment instead of building one
	// per execution. An entry is valid while it reads the segment's
	// current value slab (same backing array, same length): in-place
	// updates keep it, appends and rebuilds that move or grow the slab
	// re-derive it.
	cacheMu sync.Mutex
	kerns   []numKernEntry[V]
}

// numKernEntry is one cached kernel with the slab identity it reads.
type numKernEntry[V coltype.Value] struct {
	vals *V // first element of the slab the kernel captured
	n    int
	k    blockKernel
}

func (c *colState[V]) compileLeaf(p *leafPred) (leafPlan, error) {
	pl := &numLeafPlan[V]{c: c, kind: p.kind}
	switch p.kind {
	case kindPrefix:
		return nil, fmt.Errorf("column %q is %s: prefix predicates need a string column",
			c.name, coltype.TypeName[V]())
	case kindIn:
		set, err := c.inSet(p)
		if err != nil {
			return nil, err
		}
		// Each member once, ascending: the estimate and the kernel's
		// small-set cutoff count members, not list entries. A NaN equals
		// nothing, so it is no member.
		set = slices.DeleteFunc(slices.Clone(set), func(v V) bool { return v != v })
		slices.Sort(set)
		pl.set = slices.Compact(set)
		pl.member = make(map[V]struct{}, len(pl.set))
		for _, v := range pl.set {
			pl.member[v] = struct{}{}
		}
		if n := len(pl.set); n > 0 {
			pl.setLo, pl.setHi = pl.set[0], pl.set[n-1]
		}
		return pl, nil
	case kindRange, kindAtLeast, kindLessThan, kindEquals:
		var err error
		if pl.low, pl.high, err = leafBounds(c, p); err != nil {
			return nil, err
		}
		return pl, nil
	}
	return nil, fmt.Errorf("column %q: unknown leaf kind %d", c.name, p.kind)
}

func (pl *numLeafPlan[V]) access() string { return pl.c.indexKind() }

// prune applies the segment's [min, max] summary: true when no value of
// the segment can satisfy the leaf. Sound under updates (widen grows
// the summary) and deletes (summary only over-covers).
//
//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) prune(s int) bool {
	seg := pl.c.segs[s]
	if len(seg.vals) == 0 {
		return true
	}
	switch pl.kind {
	case kindRange:
		// An empty band — high <= low, or a NaN bound — selects nothing
		// in any segment, whatever the index would say.
		return !(pl.low < pl.high) || seg.max < pl.low || seg.min >= pl.high
	case kindAtLeast:
		return seg.max < pl.low
	case kindLessThan:
		return seg.min >= pl.high
	case kindEquals:
		return pl.low < seg.min || pl.low > seg.max
	case kindIn:
		return len(pl.set) == 0 || pl.setHi < seg.min || pl.setLo > seg.max
	}
	return false
}

//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) deltaKernel(r segRef) blockKernel { return pl.kernel(pl.c.slab(r)) }

// masks binds the leaf to one segment imprint's histogram.
func (pl *numLeafPlan[V]) masks(ix *core.Index[V]) core.Masks {
	switch pl.kind {
	case kindIn:
		return ix.InSetMasks(pl.set)
	case kindRange:
		return ix.RangeMasks(pl.low, pl.high)
	case kindAtLeast:
		return ix.AtLeastMasks(pl.low)
	case kindLessThan:
		return ix.LessThanMasks(pl.high)
	default: // kindEquals; compileLeaf rejected every other kind
		return ix.PointMasks(pl.low)
	}
}

//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) segResidual(s int) float64 {
	ix := pl.c.segs[s].ix
	return ix.ResidualShare(pl.masks(ix), BlockRows/ix.ValuesPerCacheline())
}

//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) segRuns(s int, dst []core.CandidateRun) ([]core.CandidateRun, candLanes, core.QueryStats) {
	seg := pl.c.segs[s]
	if ix := seg.ix; ix != nil {
		return imprintRuns(ix, pl.masks(ix), dst)
	}
	// Scan-only segment: every block is a candidate.
	return blockSpanRunsInto(dst, len(seg.vals), false), candLanes{}, core.QueryStats{}
}

// imprintRuns probes one segment imprint in the executor's own unit —
// one verdict per BlockRows block — and keeps the per-cacheline hits
// the same walk yields, in a pooled buffer, as the leaf's candidate
// lanes.
func imprintRuns[V coltype.Value](ix *core.Index[V], m core.Masks, dst []core.CandidateRun) ([]core.CandidateRun, candLanes, core.QueryStats) {
	buf := getLaneScratch(ix.HitWords())
	runs, st := ix.RunsInto(dst, m, BlockRows/ix.ValuesPerCacheline(), *buf)
	return runs, candLanes{bits: *buf, vpc: ix.ValuesPerCacheline(), owner: buf}, st
}

// segKernel returns the leaf's cached selection-mask kernel for segment
// s, deriving a fresh monomorphized one when the segment's slab changed
// since it was cached.
//
//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) segKernel(s int) blockKernel {
	vals := pl.c.segs[s].vals
	if len(vals) == 0 {
		return zeroMask
	}
	pl.cacheMu.Lock()
	defer pl.cacheMu.Unlock()
	for len(pl.kerns) <= s {
		pl.kerns = append(pl.kerns, numKernEntry[V]{})
	}
	e := &pl.kerns[s]
	if e.k != nil && e.vals == &vals[0] && e.n == len(vals) {
		return e.k
	}
	e.vals, e.n, e.k = &vals[0], len(vals), pl.kernel(vals)
	return e.k
}

// kernel derives the leaf's monomorphized selection-mask kernel over
// one value slab — a sealed segment's or a delta slab's.
func (pl *numLeafPlan[V]) kernel(vals []V) blockKernel {
	switch {
	case pl.kind == kindIn:
		return inKernel(vals, pl.set, pl.member)
	case isIntType[V]():
		return intLeafKernel(vals, pl.kind, pl.low, pl.high)
	}
	switch pl.kind {
	case kindRange:
		return rangeKernel(vals, pl.low, pl.high)
	case kindAtLeast:
		return atLeastKernel(vals, pl.low)
	case kindLessThan:
		return lessThanKernel(vals, pl.high)
	default: // kindEquals; compileLeaf rejected every other kind
		return equalsKernel(vals, pl.low)
	}
}

// segEstimate returns the leaf's selectivity estimate within segment s
// from that segment's imprint histogram, or a negative value when the
// segment has no imprint to estimate from.
//
//imprintvet:locks held=mu.R
func (pl *numLeafPlan[V]) segEstimate(s int) float64 {
	ix := pl.c.segs[s].ix
	if ix == nil {
		return -1
	}
	switch pl.kind {
	case kindIn:
		return inSetEstimate(ix.InSetMasks(pl.set), ix.Bins())
	case kindRange:
		return ix.EstimateSelectivity(pl.low, pl.high)
	case kindAtLeast:
		return ix.EstimateSelectivity(pl.low, coltype.MaxOf[V]())
	case kindLessThan:
		return ix.EstimateSelectivity(coltype.MinOf[V](), pl.high)
	case kindEquals:
		// Crude point estimate: one bin's share.
		return 1 / float64(ix.Bins())
	}
	return -1
}

// inSetEstimate is an IN-list's selectivity estimate from the masks it
// binds: the share of bins its members light — equality's one bin's
// share per member, a bin counted once however many members it holds.
func inSetEstimate(m core.Masks, bins int) float64 {
	return float64(bits.OnesCount64(m.Mask)) / float64(bins)
}
