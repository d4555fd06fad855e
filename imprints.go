// Package imprints is a Go implementation of column imprints, the
// cache-conscious secondary index structure of Sidirourgos & Kersten,
// "Column Imprints: A Secondary Index Structure", SIGMOD 2013.
//
// A column imprint summarizes every 64-byte cacheline of a column with a
// small bit vector over an approximated equi-height histogram of at most
// 64 bins; identical consecutive vectors are run-length compressed
// through a cacheline dictionary. Range and point queries intersect a
// query bit mask with the imprint vectors to touch only the cachelines
// that can contain qualifying values, falling back to value checks only
// where a histogram bin straddles a query border.
//
// # Quick start
//
//	col := []int64{ ... }
//	ix := imprints.Build(col, imprints.Options{})
//	ids, stats := ix.RangeIDs(100, 500, nil) // ids with 100 <= v < 500
//
// # The front door: repro/table
//
// This package is the low-level facade over a single raw index. For
// anything relation-shaped, the front door is the repro/table package's
// lazy Query API, which composes numeric and string predicates under
// And/Or/AndNot trees, plans index-vs-scan per leaf, streams rows, and
// is safe for concurrent readers against batch writers:
//
//	q := t.Select("price", "city").Where(pred).Limit(10)
//	plan, _ := q.Explain() // the per-leaf access-path plan
//	for id, row := range q.Rows() { ... }
//
// Serving loops that re-run one predicate shape per request should
// compile it once with table.Prepare: leaves are translated a single
// time, named placeholders (table.Param / table.StrParam) are bound per
// execution, and executions are safe to run concurrently:
//
//	p, _ := t.Prepare(pred, table.SelectOptions{})
//	ids, _, _ := p.Bind("lo", int64(40)).Bind("hi", int64(90)).IDs()
//
// # The frozen paper API
//
// The facade is the paper's API and stays this size; each name is a thin
// wrapper or alias over the internal packages:
//
//   - Algorithm 1, the build: Build, plus ReadIndex and Index.Write for
//     binary images.
//   - Algorithm 3, the probes: Index.RangeIDs, RangeIDsClosed, AtLeast,
//     LessThan, PointIDs, InSetIDs, CountRange and the Range iterator,
//     with the candidate cachelines they walk (Index.RangeCachelines).
//   - Section 3, late-materialized conjunctions: NewRangeConjunct,
//     EvaluateAnd, IntersectRuns and TotalRunCachelines.
//   - Section 4.1 append (Index.Append) and Section 4.2 update marking
//     (Index.MarkUpdated, Saturation, NeedsRebuild).
//   - The comparators of Section 6: zonemaps (BuildZonemap), bit-binned
//     WAH bitmaps (BuildWAH, BuildWAHShared) and a sequential scan
//     (ScanRange), so applications can measure all four on their own
//     data; column entropy and imprint prints (Index.Entropy,
//     Fingerprint) for Figures 3 and 4.
//   - The multi-level extension (NewTwoLevel) and string columns
//     (EncodeStrings, BuildStringIndex).
//
// All types are generic over the fixed-width value types in Value;
// strings are supported through dictionary encoding (EncodeStrings).
package imprints

import (
	"io"

	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/scan"
	"repro/internal/wah"
	"repro/internal/zonemap"
)

// Value enumerates the supported column element types: every fixed-width
// integer plus float32 and float64.
type Value = coltype.Value

// Options configures imprint construction. The zero value follows the
// paper: 2048-value sample, 64-byte cachelines, up to 64 bins.
type Options = core.Options

// Index is a column imprints secondary index. See core.Index for the
// full method set: RangeIDs, RangeIDsClosed, AtLeast, LessThan,
// PointIDs, CountRange, RangeCachelines, Append, MarkUpdated, Entropy,
// Fingerprint, SizeBytes, Write, ...
type Index[V Value] = core.Index[V]

// QueryStats instruments query evaluation: index probes, value
// comparisons and per-cacheline outcome counts.
type QueryStats = core.QueryStats

// CandidateRun is a run of candidate cachelines used by the
// late-materialization API (RangeCachelines, EvaluateAnd).
type CandidateRun = core.CandidateRun

// Conjunct is one range predicate of a multi-attribute conjunction.
type Conjunct = core.Conjunct

// TwoLevel is the optional second index level that summarizes blocks of
// cachelines (the paper's multi-level extension).
type TwoLevel[V Value] = core.TwoLevel[V]

// Histogram holds the sampled bin borders shared by imprints and the
// WAH comparator.
type Histogram[V Value] = histogram.Histogram[V]

// StringDict is a dictionary-encoded string column: build indexes over
// Codes() and translate string ranges with CodeRange.
type StringDict = column.StringDict

// ErrCorrupt is returned by ReadIndex for invalid serialized images.
var ErrCorrupt = core.ErrCorrupt

// Build constructs a column imprints index over col (Algorithm 1 of the
// paper). It panics on an empty column.
func Build[V Value](col []V, opts Options) *Index[V] {
	return core.Build(col, opts)
}

// NewTwoLevel adds a second summary level over an existing index;
// blockSize is in cachelines (0 selects a default).
func NewTwoLevel[V Value](ix *Index[V], blockSize int) *TwoLevel[V] {
	return core.NewTwoLevel(ix, blockSize)
}

// ReadIndex deserializes an index written with Index.Write and
// reattaches it to col.
func ReadIndex[V Value](r io.Reader, col []V) (*Index[V], error) {
	return core.ReadIndex(r, col)
}

// NewRangeConjunct wraps a [low, high) predicate over an index for use
// with EvaluateAnd.
func NewRangeConjunct[V Value](ix *Index[V], low, high V) Conjunct {
	return core.NewRangeConjunct(ix, low, high)
}

// EvaluateAnd evaluates a conjunction of range predicates over columns
// of one relation with late materialization: candidate cacheline lists
// are merge-joined before any value is fetched (Section 3 of the paper).
func EvaluateAnd(res []uint32, conjs ...Conjunct) ([]uint32, QueryStats) {
	return core.EvaluateAnd(res, conjs...)
}

// IntersectRuns merge-joins two candidate cacheline lists, the step
// EvaluateAnd takes between conjuncts.
func IntersectRuns(a, b []CandidateRun) []CandidateRun { return core.IntersectRuns(a, b) }

// TotalRunCachelines sums the cachelines covered by a candidate list.
func TotalRunCachelines(runs []CandidateRun) uint64 { return core.TotalCachelines(runs) }

// EncodeStrings dictionary-encodes a string attribute into an int32 code
// column (codes are ordered like the strings, so string ranges map to
// code ranges).
func EncodeStrings(name string, vals []string) *StringDict {
	return column.EncodeStrings(name, vals)
}

// Zonemap is the per-cacheline min/max comparator index (Section 2.1).
type Zonemap[V Value] = zonemap.Index[V]

// ZonemapStats instruments zonemap queries.
type ZonemapStats = zonemap.QueryStats

// BuildZonemap constructs a zonemap with cacheline-sized zones.
func BuildZonemap[V Value](col []V) *Zonemap[V] {
	return zonemap.Build(col, zonemap.Options{})
}

// WAHBitmap is the bit-binned, WAH-compressed bitmap comparator index.
type WAHBitmap[V Value] = wah.BitmapIndex[V]

// WAHStats instruments WAH bitmap queries.
type WAHStats = wah.QueryStats

// BuildWAH constructs a WAH bitmap index; opts.Seed controls the shared
// histogram sampling.
func BuildWAH[V Value](col []V, opts Options) *WAHBitmap[V] {
	return wah.Build(col, wah.Options{
		SampleSize:      opts.SampleSize,
		Seed:            opts.Seed,
		CountDuplicates: opts.CountDuplicates,
	})
}

// BuildWAHShared constructs a WAH bitmap over the same histogram as an
// imprints index, exactly as the paper's evaluation does.
func BuildWAHShared[V Value](col []V, ix *Index[V]) *WAHBitmap[V] {
	return wah.BuildWithHistogram(col, ix.Histogram())
}

// ScanStats reports the work of a sequential scan.
type ScanStats = scan.Stats

// ScanRange is the sequential-scan baseline: ids of values in
// [low, high).
func ScanRange[V Value](col []V, low, high V, res []uint32) ([]uint32, ScanStats) {
	return scan.RangeIDs(col, low, high, res)
}
