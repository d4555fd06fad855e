// Package table provides the columnar-relation substrate around the
// imprints index: a Table is a set of equal-length typed columns, each
// with an imprint index or none (scan-only), batch appends (Section
// 4.1), in-place updates with index widening, delete tracking,
// rebuild policies (Section 4.2), tuple reconstruction (ReadRow), whole-
// table persistence, and a composable predicate engine that evaluates
// Range/AtLeast/LessThan/Equals/In leaves (plus StrRange and friends on
// dictionary-encoded string columns) under AND/OR/AND-NOT trees with
// late materialization (Section 3), choosing between index and scan per
// leaf based on estimated selectivity.
//
// Storage is horizontally segmented: every column is split into
// fixed-size segments (TableOptions.SegmentRows rows, 64K by default),
// each owning its value slab and its own secondary index plus a
// min/max summary. Appends land in the active tail segment only, index
// saturation rebuilds are segment-local, and queries evaluate segments
// independently — pruning segments whose summary provably excludes the
// predicate and fanning the rest out across a bounded worker pool
// (SelectOptions.Parallelism), merging in segment order so results are
// deterministic.
//
// The front door is the lazy Query builder:
//
//	q := t.Select("price", "city").Where(pred).Limit(10)
//	for id, row := range q.Rows() { ... }
//
// Queries execute via Rows (a streaming iterator), IDs, Count, and
// Explain, which renders the per-leaf access-path plan including the
// per-segment decisions (pruned / imprints / scan).
//
// Execution inside each segment is vectorized: candidate runs are
// walked 64 rows (one machine word) at a time, each predicate leaf
// evaluates a block of its value slab into a selection bitmask with a
// monomorphized branch-light kernel, And/Or/AndNot combine masks
// word-wise, and the deleted bitmap folds in with one word-AND per
// block — so the residual check behind the imprints' cacheline pruning
// costs one dynamic call per leaf per 64 rows, not per row.
// QueryStats.BlocksVectorized (and the Explain preview) make the tier
// observable.
//
// Results compose into a segment-parallel aggregation pipeline:
// Aggregate folds typed aggregates inside the segment workers
// (fully-selected, delete-free segments answer Min/Max from their
// summaries and count(*) from the row count without touching values —
// see ExplainAggregate and QueryStats.SummaryAggRows), GroupBy
// partitions by integer or dictionary-encoded string keys, and
// OrderBy + Limit runs a bounded top-k over per-segment heaps:
//
//	res, _, _ := t.Select().Where(pred).Aggregate(table.Sum("qty"), table.CountAll())
//	grp, _, _ := t.Select().Where(pred).GroupBy("city").Aggregate(table.Avg("price"))
//	top, _, _ := t.Select().Where(pred).OrderBy(table.Desc("price")).Limit(10).IDs()
//
// For serving workloads that run the same predicate shape on every
// request, Table.Prepare compiles the tree once into a Prepared
// statement: columns and types are validated up front, every
// placeholder-free leaf is translated exactly once, and named
// placeholders (Param, StrParam, used through the P-suffixed leaf
// constructors) are bound per execution:
//
//	p, _ := t.Prepare(table.RangeP("price",
//	    table.Param[float64]("lo"), table.Param[float64]("hi")), table.SelectOptions{})
//	ids, _, _ := p.Bind("lo", 10.0).Bind("hi", 20.0).IDs()
//
// Ad-hoc queries route through the same compiled representation, so
// there is exactly one evaluator. A Table is safe for concurrent use:
// queries and point reads take a shared lock, while batch commits,
// updates, deletes and maintenance take it exclusively; prepared
// statements are safe for concurrent executions, and because plans
// resolve segments live at execution time — string translations are
// cached per segment and invalidated by that segment's generation
// alone — appending rows never invalidates a plan over already sealed
// segments.
package table

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/coltype"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// IndexMode selects the secondary index maintained for a column.
type IndexMode int

const (
	// Imprints builds a column imprints index (the default).
	Imprints IndexMode = iota
	// NoIndex leaves the column scan-only.
	NoIndex
)

// TableOptions configures table-wide storage policy.
type TableOptions struct {
	// SegmentRows is the number of rows per storage segment. 0 means
	// DefaultSegmentRows (64K); other values are rounded up to the next
	// multiple of BlockRows so candidate-run composition always works on
	// whole blocks.
	SegmentRows int
	// Shards splits the table into that many independently locked
	// shards (shard.go): global segments route round-robin across
	// shards, each shard owns its own lock, segment lists, delta store
	// and — with EnableDeltaIngest's AutoSeal — background sealer, so
	// commits, updates, seals and merges on different shards run fully
	// concurrently. 0 or 1 means the single-shard layout: one lock, and
	// WriteFile writes the checksummed v5 image; sharded tables persist
	// as a v6 envelope of per-shard v5 images. Every operation runs one
	// body over the table's parts either way — its shards, or an
	// unsharded table itself — and queries run through the one
	// execution frame (exec.go).
	Shards int
}

// anyColumn is the type-erased per-column state.
type anyColumn interface {
	colName() string
	colRows() int
	colType() string
	sizeBytes() int64
	indexBytes() int64
	indexKind() string // access path name: "imprints" or "scan"
	segments() int
	// maintain counts the segments whose index is saturated past
	// satLimit and, when rebuild is set, rebuilds exactly those.
	maintain(satLimit float64, rebuild bool) int
	compact(keep []int) // drop deleted rows (ids to keep, ascending)
	// valueAt boxes the value at position local of the rows r names.
	valueAt(r segRef, local int) any
	// vecKind is the column's ColVec kind and numeric width; gather
	// appends the values at the given positions of the rows r names to
	// dst — unboxed, widened to dst's kind (batch.go).
	vecKind() (ColKind, int)
	gather(dst *ColVec, r segRef, locals []uint32)
	// persist writes the column's checksummed sections (persist.go).
	persist(io.Writer) error
	// addIndexStats adds the column's index state to a per-table total.
	addIndexStats(st *ColumnIndexStats)
	// compileLeaf translates one predicate leaf against this column
	// exactly once: typed bounds and IN-sets are derived here and
	// nowhere else. The returned plan resolves segments live at
	// execution time (probes, pruning, residual checks and selectivity
	// estimates are all per segment).
	compileLeaf(p *leafPred) (leafPlan, error)
	// aggCheck validates an aggregate operator against the column type
	// (strings reject sum/avg).
	aggCheck(op aggOp) error
	// aggSummary answers op over every live row of segment s purely
	// from the segment summary (value slab untouched); ok is false
	// when the summary cannot answer exactly. The caller guarantees
	// full coverage and a delete-free segment and fills in rows.
	aggSummary(op aggOp, s int) (aggPartial, bool)
	// groupCheck validates the column as a GroupBy key (integer and
	// string columns only).
	groupCheck() error
	// slotter returns the group-key slotter of the rows r names (a dense
	// slot id per row, decoded to the global key space when the unit's
	// groups are emitted); slotAcc returns a per-slot fold accumulator
	// for op over them.
	slotter(r segRef) segSlotter
	slotAcc(op aggOp, r segRef) slotAgg
	// topkAcc returns a bounded top-k collector over the rows r names
	// (unbounded when k <= 0), which tags rows with global ids once
	// rebased; topkMerge returns the merge that ranks the per-unit
	// partials globally and states its k-th best value as a bound.
	topkAcc(r segRef, desc bool, k int) segTopK
	topkMerge(desc bool, k int) topMerge

	// ---- LSM-ingest hooks (delta.go, seal.go) ----
	// place records the column's position in the table — and so in
	// every delta store and view of it — once, before the column is
	// published (installColumn); deltaCol returns an empty delta vector
	// of the column's type.
	place(pos int)
	deltaCol() delta.Col
	// absorbDelta extends the column tail with view's rows; callers
	// hold the write lock.
	absorbDelta(view delta.View)
	// buildSealed builds one full sealed segment (value slab, exact
	// summary, index/dictionary) from the k-th segRows rows of a prefix
	// snapshot — run outside any lock; installSealed appends the built
	// segments under the write lock.
	buildSealed(prefix delta.View, k int) any
	installSealed(built any)
	// mergeBacklog counts sealed segments whose summary was widened by
	// updates or whose index saturated past satLimit; mergeOne rewrites
	// the first such segment (exact summary, fresh index) under the
	// write lock and reports whether it found one.
	mergeBacklog(satLimit float64) int
	mergeOne(satLimit float64) bool
}

// colState is the concrete typed column state: an ordered list of
// fixed-size segments. All segments but the last hold exactly segRows
// values; the last (the active tail) absorbs appends until full.
type colState[V coltype.Value] struct {
	name string
	// segs is written only under the owning table's write lock and read
	// under at least its read lock (snapshotsafe enforces both).
	segs    []*segment[V] //imprintvet:guarded by=mu
	mode    IndexMode
	vpcOpts core.Options
	segRows int
	pos     int // position in the table's column order (place)
}

func newColState[V coltype.Value](name string, mode IndexMode, opts core.Options, segRows int) *colState[V] {
	return &colState[V]{name: name, mode: mode, vpcOpts: opts, segRows: segRows}
}

// Table is a named relation. All exported methods (and the generic free
// functions operating on a Table) are safe for concurrent use: readers
// share the table, writers exclude everything else.
type Table struct {
	mu      sync.RWMutex
	name    string
	order   []string
	cols    map[string]anyColumn
	rows    int // sealed (columnar) rows; totalRowsLocked adds the delta
	segRows int
	// deleted is lazily sized; nil when nothing deleted.
	deleted *bitvec.Vector //imprintvet:guarded by=mu
	ndel    int
	// delta is the write-path state (delta.go): the store every commit
	// appends to, the seal policy and the sealer's bookkeeping. Set by
	// NewWithOptions and never reassigned; the store behind it has its
	// own mutex.
	delta *deltaState
	shard *shardState // sharded layout (TableOptions.Shards > 1); nil otherwise
	// self holds the table itself: its parts when unsharded (parts).
	self [1]*Table
	// fsys is the filesystem WriteFile/checkpointing goes through (nil
	// means the real one); set on every part by Open and EnableWAL.
	fsys faultfs.FS
	// walKeepSeq is the checkpoint baked into the loaded image: WAL
	// records in segments below it are superseded and skipped on
	// replay. Set once at load, read by EnableWAL before any
	// concurrency starts.
	walKeepSeq uint64
	// quarantined lists segments replaced by placeholders because their
	// persisted sections failed checksum verification (LoadOptions.
	// Quarantine); their rows are marked deleted. Set once at load.
	quarantined []QuarantinedSegment
}

// New creates an empty table with default options.
func New(name string) *Table { return NewWithOptions(name, TableOptions{}) }

// NewWithOptions creates an empty table with the given storage policy.
func NewWithOptions(name string, opts TableOptions) *Table {
	t := &Table{name: name, cols: map[string]anyColumn{}, segRows: normalizeSegmentRows(opts.SegmentRows),
		delta: newDeltaState()}
	t.initParts(opts.Shards)
	return t
}

// normalizeSegmentRows applies the default and rounds up to a whole
// number of BlockRows blocks.
func normalizeSegmentRows(n int) int {
	if n <= 0 {
		return DefaultSegmentRows
	}
	if rem := n % BlockRows; rem != 0 {
		n += BlockRows - rem
	}
	return n
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the number of rows, including deleted-but-not-compacted
// ones and rows still buffered in the delta store.
func (t *Table) Rows() int { return sumParts(t, (*Table).totalRowsLocked) }

// LiveRows returns the number of rows not marked deleted.
func (t *Table) LiveRows() int { return sumParts(t, (*Table).liveRowsLocked) }

//imprintvet:locks held=mu.R
func (t *Table) liveRowsLocked() int { return t.totalRowsLocked() - t.ndel }

// sumParts sums one counter over the parts, each read under its part's
// read lock.
func sumParts[N int | int64](t *Table, counter func(kid *Table) N) N {
	var n N
	for _, kid := range t.parts() {
		kid.mu.RLock()
		n += counter(kid)
		kid.mu.RUnlock()
	}
	return n
}

// SegmentRows returns the rows-per-segment storage granularity.
func (t *Table) SegmentRows() int { return t.segRows }

// Segments returns the current number of storage segments.
func (t *Table) Segments() int { return sumParts(t, (*Table).segCount) }

// segCount returns the segment count for the current row count; callers
// hold a lock.
func (t *Table) segCount() int {
	return (t.rows + t.segRows - 1) / t.segRows
}

// segLen returns the number of rows in segment s; callers hold a lock.
func (t *Table) segLen(s int) int {
	n := t.rows - s*t.segRows
	if n > t.segRows {
		n = t.segRows
	}
	return n
}

// segBlocks is how many BlockRows blocks segment s spans, the last
// possibly ragged.
func (t *Table) segBlocks(s int) int { return (t.segLen(s) + BlockRows - 1) / BlockRows }

// Columns lists column names in definition order.
func (t *Table) Columns() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]string(nil), t.order...)
}

// ColumnType returns a column's value type name ("int64", "float64",
// "string", ...), so external planners (e.g. the SQL front-end) can
// choose typed literals without reflection over row values.
func (t *Table) ColumnType(name string) (string, error) {
	kid := t.parts()[0] // schemas are identical across parts
	kid.mu.RLock()
	defer kid.mu.RUnlock()
	c, ok := kid.cols[name]
	if !ok {
		return "", fmt.Errorf("table %s: no column %q", t.name, name)
	}
	return c.colType(), nil
}

// SizeBytes returns total column payload bytes.
func (t *Table) SizeBytes() int64 { return sumParts(t, colsSum(anyColumn.sizeBytes)) }

// IndexBytes returns total secondary index bytes.
func (t *Table) IndexBytes() int64 { return sumParts(t, colsSum(anyColumn.indexBytes)) }

// colsSum is the counter summing one byte count over a part's columns.
func colsSum(bytes func(anyColumn) int64) func(kid *Table) int64 {
	return func(kid *Table) int64 {
		var s int64
		for _, c := range kid.cols {
			s += bytes(c)
		}
		return s
	}
}

// ColumnIndexStats aggregates one column's secondary-index state across
// its segments.
type ColumnIndexStats struct {
	Segments        int     // storage segments of the column
	IndexedSegments int     // segments carrying an index
	StoredVectors   int     // imprint vectors stored across segments
	DictEntries     int     // cacheline-dictionary entries across segments
	SizeBytes       int64   // total index footprint
	Saturation      float64 // mean imprint saturation over indexed segments
}

// IndexStats reports the aggregated index state of one column.
func (t *Table) IndexStats(name string) (ColumnIndexStats, error) {
	var st ColumnIndexStats
	for _, kid := range t.parts() {
		kid.mu.RLock()
		c, ok := kid.cols[name]
		if ok {
			c.addIndexStats(&st)
		}
		kid.mu.RUnlock()
		if !ok {
			return ColumnIndexStats{}, fmt.Errorf("table %s: no column %q", t.name, name)
		}
	}
	if st.IndexedSegments > 0 {
		st.Saturation /= float64(st.IndexedSegments)
	}
	return st, nil
}

// AddColumn defines a new column with initial values. All columns must
// stay the same length: the first column fixes the row count and later
// ones must match it. The values are copied on ingest — chunked into
// segments of the table's SegmentRows — so the caller's slice stays
// independent of the table.
func AddColumn[V coltype.Value](t *Table, name string, vals []V, mode IndexMode, opts core.Options) error {
	return addColumn(t, name, vals, mode, opts, func(part []V) anyColumn {
		cs := newColState[V](name, mode, opts, t.segRows)
		//imprintvet:allow locksafe a column not yet installed; addColumn builds it under every part's write lock
		cs.absorb(part)
		return cs
	})
}

// checkNewColumn validates a column definition for a table that holds
// rows rows; callers hold mu. Only Imprints and NoIndex columns can be
// persisted and read back.
func (t *Table) checkNewColumn(name string, nvals, rows int, mode IndexMode, opts core.Options) error {
	if _, dup := t.cols[name]; dup {
		return fmt.Errorf("table %s: column %q already exists", t.name, name)
	}
	if mode != Imprints && mode != NoIndex {
		return fmt.Errorf("table %s: column %q: invalid index mode %d", t.name, name, mode)
	}
	if len(t.order) > 0 && nvals != rows {
		return fmt.Errorf("table %s: column %q has %d rows, table has %d",
			t.name, name, nvals, rows)
	}
	if err := validateOptions(opts); err != nil {
		return fmt.Errorf("table %s: column %q: %w", t.name, name, err)
	}
	return nil
}

// validateOptions rejects build options the table cannot evaluate: the
// ValuesPerCacheline override must divide BlockRows (predicate
// composition renormalizes every column's cacheline runs to 64-row
// blocks, which requires a whole number of cachelines per block), and
// MaxBins is restricted to the values core.Build accepts — erroring
// here instead of panicking inside a later rebuild.
func validateOptions(o core.Options) error {
	if vpc := o.ValuesPerCacheline; vpc != 0 && (vpc < 0 || BlockRows%vpc != 0) {
		return fmt.Errorf("ValuesPerCacheline %d must divide %d", vpc, BlockRows)
	}
	switch o.MaxBins {
	case 0, 8, 16, 32, 64:
		return nil
	}
	return fmt.Errorf("MaxBins %d must be 0, 8, 16, 32 or 64", o.MaxBins)
}

// installColumn registers a validated column; callers hold mu.
//
//imprintvet:locks held=mu
func (t *Table) installColumn(name string, c anyColumn, nvals int) {
	c.place(len(t.order))
	t.cols[name] = c
	t.order = append(t.order, name)
	if len(t.order) == 1 {
		t.rows = nvals
	}
	// The store was drained before the layout change; re-anchor it on
	// the new layout and row count.
	t.delta.store.SetCols(t.deltaCols())
	t.delta.store.SetBase(t.rows)
}

// Column materializes the typed values of a column into a freshly
// allocated slice (segments are concatenated), safe to keep. It
// reflects the table at call time; later updates are not visible
// through it.
func Column[V coltype.Value](t *Table, name string) ([]V, error) {
	return columnValues(t, name, localColumn[V])
}

// localColumn is one part's values of a typed column in local-id order:
// its segments, then its buffered rows.
//
//imprintvet:locks held=mu.R
func localColumn[V coltype.Value](t *Table, name string) ([]V, error) {
	cs, err := typedCol[V](t, name)
	if err != nil {
		return nil, err
	}
	out := make([]V, 0, cs.colRows())
	for _, s := range cs.segs {
		out = append(out, s.vals...)
	}
	return cs.deltaValues(out, t.deltaViewLocked()), nil
}

// Index returns the imprints index of a single-segment column, or nil
// if unindexed. Multi-segment columns have one index per segment — use
// SegmentIndex (or IndexStats for aggregates). The returned index is
// the table's live one, outside the table lock: probing it while
// writers are active races — use queries when writers may be running.
func Index[V coltype.Value](t *Table, name string) (*core.Index[V], error) {
	nsegs := t.Segments()
	kid := t.parts()[0] // global segment 0 is part 0's first
	kid.mu.RLock()
	defer kid.mu.RUnlock()
	cs, err := typedCol[V](kid, name)
	if err != nil {
		return nil, err
	}
	switch {
	case nsegs > 1:
		return nil, fmt.Errorf("table %s: column %q has %d segments (use SegmentIndex or IndexStats)",
			t.name, name, nsegs)
	case len(cs.segs) == 0:
		return nil, nil
	}
	return cs.segs[0].ix, nil
}

// SegmentIndex returns the imprints index of one segment of a column,
// or nil when that segment is unindexed.
func SegmentIndex[V coltype.Value](t *Table, name string, seg int) (*core.Index[V], error) {
	kid, lid := t.locate(seg * t.segRows)
	lseg := lid / t.segRows
	kid.mu.RLock()
	defer kid.mu.RUnlock()
	cs, err := typedCol[V](kid, name)
	if err != nil {
		return nil, err
	}
	if lseg < 0 || lseg >= len(cs.segs) {
		return nil, fmt.Errorf("table %s: column %q has no segment %d (of %d)",
			t.name, name, lseg, len(cs.segs))
	}
	return cs.segs[lseg].ix, nil
}

func typedCol[V coltype.Value](t *Table, name string) (*colState[V], error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no column %q", t.name, name)
	}
	cs, ok := c.(*colState[V])
	if !ok {
		return nil, fmt.Errorf("table %s: column %q holds %s, not %s",
			t.name, name, c.colType(), coltype.TypeName[V]())
	}
	return cs, nil
}

// ---- Batch appends (Section 4.1) ----

// Batch stages one append of N rows across all columns. Staged data
// lives inside the batch, so abandoning one never affects the table or
// other batches. A Batch itself is not safe for concurrent use; Commit
// hands it to the table's one write path (commitRows, delta.go).
type Batch struct {
	t    *Table
	rows int // -1 until first column staged
	// staged holds one entry per staged column: its typed values, a []V
	// or []string copy the batch owns — what a commit appends to the
	// delta store and frames into the log as they are (a sharded commit
	// hands windows of one staging to several shards, chunk by chunk).
	staged map[string]any
}

// NewBatch starts an append batch.
func (t *Table) NewBatch() *Batch {
	return &Batch{t: t, rows: -1, staged: map[string]any{}}
}

// Append stages new values for one column of the batch. The values are
// copied, so the caller's slice may be reused afterwards.
func Append[V coltype.Value](b *Batch, name string, vals []V) error {
	kid := b.t.parts()[0] // schemas are identical across parts
	kid.mu.RLock()
	_, err := typedCol[V](kid, name)
	kid.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := b.stage(name, len(vals)); err != nil {
		return err
	}
	b.staged[name] = append([]V(nil), vals...)
	return nil
}

// AppendStrings stages new values for one string column of the batch.
func (b *Batch) AppendStrings(name string, vals []string) error {
	kid := b.t.parts()[0] // schemas are identical across parts
	kid.mu.RLock()
	_, err := strCol(kid, name)
	kid.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := b.stage(name, len(vals)); err != nil {
		return err
	}
	b.staged[name] = append([]string(nil), vals...)
	return nil
}

// stage validates one column's staging against the batch row count.
func (b *Batch) stage(name string, nvals int) error {
	if _, dup := b.staged[name]; dup {
		return fmt.Errorf("table %s: column %q already staged in this batch", b.t.name, name)
	}
	if b.rows == -1 {
		b.rows = nvals
	} else if nvals != b.rows {
		return fmt.Errorf("table %s: batch stages %d rows but column %q got %d",
			b.t.name, b.rows, name, nvals)
	}
	return nil
}

// Commit validates that every column of the table was staged with the
// same number of new rows and commits the batch through the table's one
// write path: the rows are appended to the delta store (after their WAL
// record, if a log is attached) and — under the default, immediate seal
// policy — folded into each column's active tail segment before the
// exclusive lock is released (sealing it and opening fresh segments as
// they fill; already sealed segments, and any compiled plans over them,
// are untouched). After EnableDeltaIngest the append takes the shared
// lock only and the rows stay buffered, visible to every query, until
// they are sealed off the query path.
//
// The batch commits in routed chunks: on a sharded table each chunk
// lands on one shard, within one of its segments; unsharded, the one
// chunk is the whole batch — one commit, one log record — so an error
// leaves the table unchanged. A batch that misses a column is refused
// before any chunk commits; a later chunk can fail only on its shard's
// write-ahead log (the log is fail-stop), and chunks committed before
// it stay committed and durable: the error then means "rows [0, k) are
// in, the rest are not". On error the batch keeps its staging.
func (b *Batch) Commit() error {
	t := b.t
	var err error
	if b.rows > 0 {
		err = t.pinLayout(b.staged)
		for from := 0; err == nil && from < b.rows; {
			kid, c, to := t.route(from, b.rows)
			if err = kid.commitRows(b.staged, from, to); err != nil {
				to = from
			}
			t.routed(c, to-from)
			from = to
		}
		t.unpinLayout()
	}
	if err == nil {
		b.staged, b.rows = map[string]any{}, -1
	}
	return err
}

// ---- anyColumn implementation ----

func (c *colState[V]) colName() string { return c.name }
func (c *colState[V]) colType() string { return coltype.TypeName[V]() }

//imprintvet:locks held=mu.R
func (c *colState[V]) segments() int { return len(c.segs) }

//imprintvet:locks held=mu.R
func (c *colState[V]) colRows() int {
	if len(c.segs) == 0 {
		return 0
	}
	return (len(c.segs)-1)*c.segRows + len(c.segs[len(c.segs)-1].vals)
}

//imprintvet:locks held=mu.R
func (c *colState[V]) sizeBytes() int64 {
	return int64(c.colRows()) * int64(coltype.Width[V]())
}

//imprintvet:locks held=mu.R
func (c *colState[V]) indexBytes() int64 {
	var n int64
	for _, s := range c.segs {
		n += s.indexBytes()
	}
	return n
}

func (c *colState[V]) indexKind() string {
	if c.mode == Imprints {
		return "imprints"
	}
	return "scan"
}

// addIndexStats adds the column's segments to st, summing their
// saturations into st.Saturation (IndexStats divides the sum by the
// indexed segments once every part is in).
//
//imprintvet:locks held=mu.R
func (c *colState[V]) addIndexStats(st *ColumnIndexStats) {
	st.Segments += len(c.segs)
	for _, s := range c.segs {
		st.SizeBytes += s.indexBytes()
		if s.ix != nil {
			st.IndexedSegments++
			st.StoredVectors += s.ix.StoredVectors()
			st.DictEntries += s.ix.DictEntries()
			st.Saturation += s.ix.Saturation()
		}
	}
}

// absorb extends the column with new rows, filling the active tail
// segment and opening fresh segments as it fills. Only the tail's
// index is ever touched.
//
//imprintvet:locks held=mu
func (c *colState[V]) absorb(vals []V) {
	for len(vals) > 0 {
		if len(c.segs) == 0 || len(c.segs[len(c.segs)-1].vals) == c.segRows {
			c.segs = append(c.segs, &segment[V]{})
		}
		tail := c.segs[len(c.segs)-1]
		room := c.segRows - len(tail.vals)
		if room > len(vals) {
			room = len(vals)
		}
		tail.extend(vals[:room], c.mode, c.vpcOpts)
		vals = vals[room:]
	}
}

//imprintvet:locks held=mu.R
func (c *colState[V]) valueAt(r segRef, local int) any { return c.slab(r)[local] }

// maintain applies the Section 4.2 saturation heuristic segment by
// segment: only segments whose own imprint is saturated are rebuilt,
// leaving the rest untouched.
//
//imprintvet:locks held=mu
func (c *colState[V]) maintain(satLimit float64, rebuild bool) int {
	n := 0
	for _, s := range c.segs {
		if s.ix != nil && s.ix.NeedsRebuild(satLimit, 0, 0) {
			n++
			if rebuild {
				s.rebuild(c.mode, c.vpcOpts)
			}
		}
	}
	return n
}

//imprintvet:locks held=mu
func (c *colState[V]) compact(keep []int) {
	out := make([]V, 0, len(keep))
	for _, id := range keep {
		out = append(out, c.segs[id/c.segRows].vals[id%c.segRows])
	}
	c.segs = nil
	c.absorb(out)
}

// ---- Updates and deletes (Section 4.2) ----

// Update changes one value in place and widens the covering segment's
// imprint and summary so queries stay sound (never a false negative).
// Repeated updates saturate that segment's index; Maintain rebuilds it
// — and only it — when they do.
func Update[V coltype.Value](t *Table, name string, id int, v V) error {
	kid, lid := t.locate(id)
	lg, lsn, err := updateLocked(kid, name, lid, v)
	if err != nil || lg == nil {
		return err
	}
	return lg.WaitDurable(lsn)
}

// updateLocked applies the update under the write lock and, with a WAL
// attached, logs it in the same critical section (so log order matches
// apply order); the caller waits for durability after the lock drops.
func updateLocked[V coltype.Value](t *Table, name string, id int, v V) (*wal.Log, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, err := typedCol[V](t, name)
	if err != nil {
		return nil, 0, err
	}
	if id < 0 || id >= t.totalRowsLocked() {
		return nil, 0, fmt.Errorf("table %s: row %d out of range", t.name, id)
	}
	if id >= cs.colRows() {
		// Still buffered: patch the delta vector in place; no segment
		// summary widens, no index saturates.
		store := t.delta.store
		delta.SetNum(store, id-store.Base(), cs.pos, v)
	} else {
		seg, local := cs.segs[id/cs.segRows], id%cs.segRows
		seg.vals[local] = v
		seg.widen(local, v)
	}
	d := t.delta
	if d.wal == nil {
		return nil, 0, nil
	}
	return t.walAppendLocked(encodeWALUpdate(id, cs.pos, d.walTags[cs.pos], []V{v}))
}

// Delete marks a row deleted; it stops appearing in query results.
// Space is reclaimed by Compact.
func (t *Table) Delete(id int) error {
	kid, lid := t.locate(id)
	lg, lsn, err := kid.deleteLocked(lid)
	if err != nil || lg == nil {
		return err
	}
	return lg.WaitDurable(lsn)
}

// deleteLocked marks the row deleted and, with a WAL attached, logs the
// delete in the same critical section.
func (t *Table) deleteLocked(id int) (*wal.Log, int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := t.totalRowsLocked()
	if id < 0 || id >= total {
		return nil, 0, fmt.Errorf("table %s: row %d out of range", t.name, id)
	}
	if t.deleted == nil {
		t.deleted = bitvec.New(total)
	} else if id >= t.deleted.Len() {
		t.growDeletedTo(total)
	}
	if !t.deleted.Get(id) {
		t.deleted.Set(id)
		t.ndel++
	}
	if t.delta.wal == nil {
		return nil, 0, nil
	}
	return t.walAppendLocked(encodeWALDelete(id))
}

// IsDeleted reports whether a row is deleted.
func (t *Table) IsDeleted(id int) bool {
	kid, lid := t.locate(id)
	kid.mu.RLock()
	defer kid.mu.RUnlock()
	return kid.deletedAt(lid)
}

// Compact removes deleted rows, renumbering ids, and rebuilds all
// segments (surviving rows are re-chunked, so all but the last segment
// are full again). It returns the number of rows removed; a table with
// nothing deleted only folds its buffered rows. A sharded table
// renumbers each shard's rows locally (no cross-shard id exchange), so
// global ids change exactly as each shard's local ids do.
func (t *Table) Compact() int {
	t.quiesce()
	defer t.resume()
	kids := t.lockParts()
	defer t.unlockParts()
	ndel := 0
	for _, kid := range kids {
		kid.flushAllLocked()
		ndel += kid.ndel
	}
	if ndel == 0 {
		return 0
	}
	removed := 0
	for _, kid := range kids {
		removed += kid.compactLocked()
	}
	return removed
}

// compactLocked drops the part's deleted rows and rebuilds every
// segment of it; callers hold the write lock.
//
//imprintvet:locks held=mu
func (t *Table) compactLocked() int {
	// Fold buffered rows first so the keep-list covers them and ids
	// renumber consistently across sealed and delta rows.
	t.flushAllLocked()
	pre := t.totalRowsLocked()
	keep := make([]int, 0, t.rows-t.ndel)
	for id := 0; id < t.rows; id++ {
		if !t.deletedAt(id) {
			keep = append(keep, id)
		}
	}
	for _, c := range t.cols {
		c.compact(keep)
	}
	removed := t.ndel
	t.rows = len(keep)
	t.deleted = nil
	t.ndel = 0
	t.delta.store.SetBase(t.rows)
	// Compaction renumbers ids, so later logged updates and deletes only
	// replay correctly if recovery re-runs the same compaction at the
	// same point. The record is logical: replay recomputes the identical
	// keep-list from the replayed delete set. No durability wait (the
	// write lock is held); WAL durability is prefix-ordered, so a later
	// durable record implies this one survived too. An append error means
	// the log has fail-stopped: no later record can be acknowledged, so
	// recovery replays the pre-compaction epoch consistently — nothing to
	// unwind here.
	_, _, _ = t.walAppendLocked(encodeWALCompact(pre, t.rows))
	return removed
}

// MaintenanceReport describes what one Maintain pass did.
type MaintenanceReport struct {
	// Rebuilt lists the columns with at least one saturated segment
	// index rebuilt, sorted by name.
	Rebuilt []string
	// SegmentsRebuilt counts the segment indexes rebuilt across those
	// columns (rebuilds are segment-local; unsaturated segments keep
	// their index untouched).
	SegmentsRebuilt int
	// Compacted reports whether the deleted-row fraction crossed the
	// threshold and the table was compacted (ids renumbered).
	Compacted bool
	// RowsRemoved is the number of rows reclaimed by that compaction.
	RowsRemoved int
	// DeltaRows is the number of rows still buffered in the in-memory
	// delta store after the pass (0 under the immediate seal policy).
	DeltaRows int
	// MergeBacklog counts sealed segments still awaiting a merge
	// rewrite (widened summary or saturated index) after the pass.
	MergeBacklog int
	// SealRetries counts off-lock seal builds discarded because a
	// concurrent mutation invalidated them (lifetime total);
	// SealBackoff is the retry backoff the sealer is currently applying
	// after consecutive conflicts (0 when the last install succeeded).
	SealRetries uint64
	SealBackoff time.Duration
}

// String renders the report for logs.
func (r MaintenanceReport) String() string {
	var parts []string
	if len(r.Rebuilt) > 0 {
		parts = append(parts, fmt.Sprintf("rebuilt %d segment(s) of %v", r.SegmentsRebuilt, r.Rebuilt))
	}
	if r.Compacted {
		parts = append(parts, fmt.Sprintf("compacted (-%d rows)", r.RowsRemoved))
	}
	if r.DeltaRows > 0 {
		parts = append(parts, fmt.Sprintf("%d delta row(s) buffered", r.DeltaRows))
	}
	if r.MergeBacklog > 0 {
		parts = append(parts, fmt.Sprintf("%d segment(s) awaiting merge", r.MergeBacklog))
	}
	if r.SealBackoff > 0 {
		parts = append(parts, fmt.Sprintf("sealer backing off %v after %d retries", r.SealBackoff, r.SealRetries))
	}
	if len(parts) == 0 {
		return "nothing to do"
	}
	return strings.Join(parts, ", ")
}

// defaultSatLimit is the index-saturation fraction past which a
// segment's index is rebuilt: Maintain's default, and the limit the
// merge-compactor always uses.
const defaultSatLimit = 0.5

// MaintainOptions tunes the Maintain policy. The zero value applies
// the defaults: rebuild at 50% index saturation, never compact.
type MaintainOptions struct {
	// SaturationLimit is the update-saturation fraction past which a
	// segment's index is rebuilt (Section 4.2's heuristic). 0 means the
	// default of 0.5; set above 1 to never rebuild.
	SaturationLimit float64
	// DeletedFraction is the deleted-row fraction past which the table
	// is compacted (ids renumbered). 0 means never compact.
	DeletedFraction float64
}

// Maintain applies the rebuild policy: any segment index saturated by
// updates is rebuilt (segment-locally — the rest of the column is left
// alone), and the table is compacted when the deleted-row fraction
// crosses opts.DeletedFraction. The fraction is the whole table's; a
// sharded table then compacts every shard (see Compact).
func (t *Table) Maintain(opts MaintainOptions) MaintenanceReport {
	t.quiesce()
	defer t.resume()
	kids := t.lockParts()
	defer t.unlockParts()
	satLimit := opts.SaturationLimit
	if satLimit == 0 {
		satLimit = defaultSatLimit
	}
	ndel, total := 0, 0
	for _, kid := range kids {
		ndel += kid.ndel
		total += kid.totalRowsLocked()
	}
	delFrac := opts.DeletedFraction
	compacting := delFrac > 0 && total > 0 && float64(ndel)/float64(total) >= delFrac
	rep := MaintenanceReport{Compacted: compacting}
	for _, kid := range kids {
		for _, name := range kid.order {
			// Compaction rebuilds every segment anyway; don't build twice.
			if n := kid.cols[name].maintain(satLimit, !compacting); n > 0 {
				rep.Rebuilt = append(rep.Rebuilt, name)
				rep.SegmentsRebuilt += n
			}
		}
		if compacting {
			rep.RowsRemoved += kid.compactLocked()
		}
		if d := kid.delta; d.buffered.Load() {
			rep.DeltaRows += d.store.Len()
			rep.MergeBacklog += kid.mergeBacklogLocked()
			rep.SealRetries += d.sealRetries.Load()
			rep.SealBackoff = max(rep.SealBackoff, time.Duration(d.backoffNanos.Load()))
			d.kickSeal()
		}
	}
	sort.Strings(rep.Rebuilt)
	rep.Rebuilt = slices.Compact(rep.Rebuilt)
	return rep
}

// ReadRow reconstructs one row as a name -> value map (the tuple
// reconstruction of Section 2: values from different columns with the
// same id belong to the same tuple).
func (t *Table) ReadRow(id int) (map[string]any, error) {
	t, id = t.locate(id)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= t.totalRowsLocked() {
		return nil, fmt.Errorf("table %s: row %d out of range", t.name, id)
	}
	if t.deletedAt(id) {
		return nil, fmt.Errorf("table %s: row %d is deleted", t.name, id)
	}
	row := make(map[string]any, len(t.order))
	r, local := segRef{s: id / t.segRows}, id%t.segRows
	if id >= t.rows {
		view := t.deltaViewLocked()
		r.view, local = &view, id-view.Origin()
	}
	for _, name := range t.order {
		row[name] = t.cols[name].valueAt(r, local)
	}
	return row, nil
}
