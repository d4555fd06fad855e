package table

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/delta"
	"repro/internal/wal"
)

// The write path (delta.go, seal.go, snapshot.go): every table owns an
// in-memory columnar delta store (internal/delta: one typed vector per
// column) from birth, and every batch commit appends its staged typed
// columns to it (commitRows). What differs between tables is only the
// seal policy — when those rows move into columnar segments:
//
//   - immediate (the default): the commit holds the table's write lock
//     across the store append and a flush of the whole store into the
//     columnar tail, so the rows are indexed when the commit returns and
//     no reader ever sees a buffered row;
//   - buffered, manual (EnableDeltaIngest): the commit appends under the
//     read lock and returns; rows stay buffered until SealDelta /
//     FlushDelta / Save / AddColumn / Compact moves them;
//   - buffered, auto (EnableDeltaIngest with AutoSeal): the same, plus a
//     background sealer that cuts full segment-sized slabs off the
//     vectors into immutable segments — building their imprints,
//     summaries and dictionaries off the query path —
//     installing them atomically under the table lock.
//
// Updates and deletes of buffered rows never touch sealed segments.
// Readers evaluate the sealed segments and, through the same block
// walk, kernels and folds, the vectors of the delta watermark they
// captured, so streaming writers never block readers and readers never
// see a half-applied batch. A merge-compactor rewrites segments whose
// summary was widened by updates or whose index saturated, restoring
// exact summaries (and aggregate pushdown) off the write path.
//
// Locks: a buffered commit appends under the table's read lock (the
// store has its own mutex, so writers do not exclude readers);
// everything that patches or drops buffered values — an update of a
// buffered row, a flush (an immediate commit's included), a seal
// install — holds the table's write lock, which is what keeps an
// execution's view stable for as long as it holds the read lock. Column
// vector ci of the store is column t.order[ci]; each column state
// records its position (anyColumn.place), so no hook searches the
// layout by name.

// IngestOptions configures EnableDeltaIngest.
type IngestOptions struct {
	// AutoSeal starts a background sealer goroutine that cuts full
	// segments off the delta after commits and runs the
	// merge-compactor. Without it, sealing is driven manually through
	// SealDelta / FlushDelta (or implicitly by Save, AddColumn,
	// Compact).
	AutoSeal bool
	// MaxSealSegments bounds how many full segments one seal pass
	// builds off-lock before installing (memory bound). 0 means 4.
	MaxSealSegments int
}

// deltaState is the per-table write-path state, created with the table:
// the columnar store, the seal policy, and the sealer bookkeeping and
// counters.
type deltaState struct {
	store *delta.Store

	// buffered is the seal policy: false (the default) seals every
	// commit immediately, under the commit's own write lock; true, set
	// once by EnableDeltaIngest under the write lock, leaves committed
	// rows buffered for SealDelta / FlushDelta / the sealer. A commit
	// reads it before choosing its lock; reading a stale false only makes
	// that one commit flush, which is always sound under the write lock.
	buffered atomic.Bool

	// sealMu serializes seal passes (background and manual); it is
	// never held while waiting on table commits, and t.mu write
	// sections never acquire it, so lock order is always sealMu then
	// t.mu. maxSealSegs is written by EnableDeltaIngest under the
	// write lock before the sealer that reads it starts.
	sealMu      sync.Mutex
	maxSealSegs int

	// kick wakes the background sealer (a kick nobody waits for stays
	// pending in the channel's one slot); stop ends it, and sealer is
	// what Close waits on.
	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	sealer   sync.WaitGroup

	// walMu serializes WAL appends with delta-store appends so the
	// log's record order is exactly the memory order; it nests inside
	// the table locks (mu -> walMu) and is never held while waiting for
	// durability. wal, walTags, recovery and pendingCut are assigned
	// once by EnableWAL under the table write lock and read under at
	// least the read lock afterwards.
	walMu      sync.Mutex
	wal        *wal.Log
	walTags    []byte
	recovery   *RecoveryReport
	pendingCut walCut

	// conflictStreak counts consecutive optimistic seal-install
	// conflicts; backoffNanos is the current retry backoff the streak
	// selected (both reset on the next successful install).
	conflictStreak atomic.Uint32
	backoffNanos   atomic.Int64

	seals       atomic.Uint64
	sealedSegs  atomic.Uint64
	sealedRows  atomic.Uint64
	sealRetries atomic.Uint64
	flushes     atomic.Uint64
	flushedRows atomic.Uint64
	merges      atomic.Uint64
}

// defaultMaxSealSegs is IngestOptions.MaxSealSegments' default.
const defaultMaxSealSegs = 4

func newDeltaState() *deltaState {
	return &deltaState{
		store:       delta.NewStore(0, BlockRows, nil),
		maxSealSegs: defaultMaxSealSegs,
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
}

// kickSeal wakes the background sealer, if one runs, without blocking
// the committer.
func (d *deltaState) kickSeal() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// EnableDeltaIngest moves the table's seal policy from immediate to
// buffered: subsequent batch commits append under the shared lock and
// leave their rows in the in-memory delta store (visible to every query
// through an exact scan unioned with the sealed segments) until they
// are sealed into full immutable segments — by the background worker
// when opts.AutoSeal is set, or by SealDelta / FlushDelta / Save
// otherwise. It selects when the one write path seals, not which path
// runs. Enabling is one-way for the table's lifetime; Close stops the
// background worker.
func (t *Table) EnableDeltaIngest(opts IngestOptions) error {
	for _, kid := range t.parts() {
		kid.mu.Lock()
		err := kid.enableDeltaIngestLocked(opts)
		kid.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// enableDeltaIngestLocked switches one part to the buffered policy;
// callers hold the write lock.
//
//imprintvet:locks held=mu
func (t *Table) enableDeltaIngestLocked(opts IngestOptions) error {
	d := t.delta
	if d.buffered.Load() {
		return fmt.Errorf("table %s: delta ingest already enabled", t.name)
	}
	if opts.MaxSealSegments > 0 {
		d.maxSealSegs = opts.MaxSealSegments
	}
	d.buffered.Store(true)
	if opts.AutoSeal {
		d.sealer.Add(1)
		go t.sealLoop(d)
	}
	return nil
}

// Close stops the background sealer, waiting for an in-flight pass to
// finish, and closes the write-ahead log if one is attached. Buffered
// delta rows stay queryable; flush them explicitly (FlushDelta or Save)
// if they must reach columnar storage. Close is idempotent.
func (t *Table) Close() error {
	var err error
	for _, kid := range t.parts() {
		d := kid.delta
		d.stopOnce.Do(func() { close(d.stop) })
		d.sealer.Wait()
		if lg := kid.walPtr(); lg != nil {
			err = errors.Join(err, lg.Close())
		}
	}
	return err
}

// totalRowsLocked returns sealed plus buffered rows (including
// deleted-but-not-compacted ones); callers hold a lock.
//
//imprintvet:locks held=mu.R
func (t *Table) totalRowsLocked() int {
	return t.rows + t.delta.store.Len()
}

// deltaCols returns one empty delta vector per column, in column
// order; callers hold the write lock.
func (t *Table) deltaCols() []delta.Col {
	cols := make([]delta.Col, len(t.order))
	for ci, name := range t.order {
		cols[ci] = t.cols[name].deltaCol()
	}
	return cols
}

// DeltaRows returns the number of rows currently buffered in the
// delta store (always 0 under the immediate seal policy).
func (t *Table) DeltaRows() int { return sumParts(t, (*Table).deltaRowsLocked) }

//imprintvet:locks held=mu.R
func (t *Table) deltaRowsLocked() int { return t.delta.store.Len() }

// MaxShardDeltaRows returns the deepest per-shard delta backlog (the
// hottest shard; the table's own backlog when unsharded), 0 when nothing
// is buffered: two counter reads per shard — the signal admission control
// polls on every request, where IngestStats would walk every segment.
func (t *Table) MaxShardDeltaRows() int {
	m := 0
	for _, kid := range t.parts() {
		kid.mu.RLock()
		m = max(m, kid.delta.store.Len())
		kid.mu.RUnlock()
	}
	return m
}

// deletedAt is the length-guarded deleted-bitmap probe: delta rows may
// sit beyond the bitmap's tail when no delete grew it that far.
// Callers hold a lock.
//
//imprintvet:locks held=mu.R
func (t *Table) deletedAt(id int) bool {
	return t.deleted != nil && id < t.deleted.Len() && t.deleted.Get(id)
}

// growDeletedTo widens a non-nil deleted bitmap to cover n rows,
// preserving set bits; callers hold the write lock. The invariant it
// maintains: whenever the bitmap exists it covers at least every
// sealed row, so the block walk's LiveMask64 never runs off its end.
//
//imprintvet:locks held=mu
func (t *Table) growDeletedTo(n int) {
	if t.deleted == nil || t.deleted.Len() >= n {
		return
	}
	grown := bitvec.New(n)
	copy(grown.Words(), t.deleted.Words())
	t.deleted = grown
}

// ---- commit / update / flush ----

// commitRows is the one write path: it commits rows [from, to) of a
// staged batch — one routed chunk of it, the whole batch at N = 1 —
// under the part's seal policy. Buffered: validate and append
// under the read lock and leave the rows to the sealer. Immediate: hold
// the write lock across the append and a flush of the store, so the rows
// are indexed (Section 4.1: they extend the tail's imprint, no stored
// vector is touched) before any reader can look. Either way the commit
// is acknowledged only once its log record, if a WAL is attached, is
// durable — waited for outside every lock.
//
//imprintvet:locks acquires=mu
func (t *Table) commitRows(staged map[string]any, from, to int) error {
	d := t.delta
	var (
		lg  *wal.Log
		lsn int64
		err error
	)
	if d.buffered.Load() {
		t.mu.RLock()
		lg, lsn, err = t.commitDeltaLocked(staged, from, to)
		t.mu.RUnlock()
	} else {
		t.mu.Lock()
		if lg, lsn, err = t.commitDeltaLocked(staged, from, to); err == nil {
			t.flushAllLocked()
		}
		t.mu.Unlock()
	}
	if err != nil {
		return err
	}
	d.kickSeal()
	if lg != nil {
		// Acknowledge only once the logged batch is durable (fsync
		// policy decides what that costs).
		err = lg.WaitDurable(lsn)
	}
	return err
}

// stagedVectors is the one batch validation: every column of the layout
// must be staged, and the staged typed vectors come back in column
// order. Callers hold a lock on t (a sharded parent's schema mirror
// stands for its shards' identical layouts).
//
//imprintvet:locks held=mu.R
func (t *Table) stagedVectors(staged map[string]any) ([]any, error) {
	vals := make([]any, len(t.order))
	for ci, name := range t.order {
		v, ok := staged[name]
		if !ok {
			return nil, fmt.Errorf("table %s: batch is missing column %q", t.name, name)
		}
		vals[ci] = v
	}
	return vals, nil
}

// commitDeltaLocked appends rows [from, to) of a staged batch to the
// delta store as they are. Callers hold at least the read lock (appends
// contend only on the store's own mutex, so streaming writers never
// block readers). With a WAL attached the batch is framed into the log
// first, under walMu spanning both appends so log order equals memory
// order; the returned log and LSN let the caller wait for durability
// after releasing the table lock (the log is nil without a WAL). A log
// write error fails the commit before anything becomes visible.
//
//imprintvet:locks held=mu.R
func (t *Table) commitDeltaLocked(staged map[string]any, from, to int) (*wal.Log, int64, error) {
	vals, err := t.stagedVectors(staged)
	if err != nil {
		return nil, 0, err
	}
	d := t.delta
	lg := d.wal
	if lg == nil {
		return nil, 0, d.store.Append(vals, from, to)
	}
	lsn, err := d.logAndBuffer(t, lg, vals, from, to)
	return lg, lsn, err
}

// logAndBuffer appends the batch to the WAL and then to the delta
// store under walMu, so log order is exactly memory order. A log
// append failure (the log is fail-stop) rejects the commit before the
// rows become visible.
func (d *deltaState) logAndBuffer(t *Table, lg *wal.Log, vals []any, from, to int) (int64, error) {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	base := d.store.Base() + d.store.Len()
	lsn, err := lg.Append(encodeWALCommit(d.walTags, base, vals, from, to))
	if err != nil {
		return 0, fmt.Errorf("table %s: wal append: %w", t.name, err)
	}
	return lsn, d.store.Append(vals, from, to)
}

// flushDeltaLocked folds the first n buffered rows into the columnar
// tail, each column by one slice of its vector (indexes extend under
// the lock — the synchronous path used by Save, AddColumn, Compact and
// tail alignment); callers hold the write lock.
//
//imprintvet:locks held=mu
func (t *Table) flushDeltaLocked(n int) {
	d := t.delta
	view := d.store.View()
	view.Rows = n
	for _, name := range t.order {
		t.cols[name].absorbDelta(view)
	}
	t.rows += n
	t.growDeletedTo(t.rows)
	d.store.Truncate(n)
	d.flushes.Add(1)
	d.flushedRows.Add(uint64(n))
}

// flushAllLocked drains the whole delta into columnar storage; callers
// hold the write lock. Returns the rows flushed.
//
//imprintvet:locks held=mu
func (t *Table) flushAllLocked() int {
	n := t.delta.store.Len()
	if n > 0 {
		t.flushDeltaLocked(n)
	}
	return n
}

// FlushDelta drains the delta store completely: full chunks seal into
// immutable segments with their indexes built off-lock, and the
// remainder folds into the columnar tail. Returns the rows moved.
func (t *Table) FlushDelta() int {
	moved := 0
	for _, kid := range t.parts() {
		moved += kid.sealFullChunks(kid.delta)
		kid.mu.Lock()
		moved += kid.flushAllLocked()
		kid.mu.Unlock()
	}
	return moved
}

// SealDelta seals every full segment-sized chunk currently buffered
// (indexes built outside the table lock, installed atomically),
// leaving a partial remainder buffered. Returns the rows sealed.
func (t *Table) SealDelta() int {
	n := 0
	for _, kid := range t.parts() {
		n += kid.sealFullChunks(kid.delta)
	}
	return n
}

// ---- observability ----

// IngestStats reports the health of the LSM-style write path.
type IngestStats struct {
	// Enabled reports whether EnableDeltaIngest was called.
	Enabled bool `json:"enabled"`
	// DeltaRows is the number of rows currently buffered in the
	// in-memory delta store (scanned exactly by every query).
	DeltaRows int `json:"delta_rows"`
	// Seals counts completed seal installs; SealedSegments and
	// SealedRows the segments and rows they moved into columnar
	// storage.
	Seals          uint64 `json:"seals"`
	SealedSegments uint64 `json:"sealed_segments"`
	SealedRows     uint64 `json:"sealed_rows"`
	// SealRetries counts off-lock segment builds discarded because the
	// delta mutated (update, flush) before install.
	SealRetries uint64 `json:"seal_retries"`
	// Flushes counts synchronous folds into the columnar tail (Save,
	// AddColumn, Compact, FlushDelta remainder, tail alignment);
	// FlushedRows the rows they moved.
	Flushes     uint64 `json:"flushes"`
	FlushedRows uint64 `json:"flushed_rows"`
	// Merges counts sealed segments the merge-compactor rewrote
	// (widened summaries restored exact, saturated indexes rebuilt);
	// MergeBacklog the segments currently still awaiting a rewrite.
	Merges       uint64 `json:"merges"`
	MergeBacklog int    `json:"merge_backlog"`
	// WALEnabled reports whether a write-ahead log is attached
	// (EnableWAL); WALError carries the log's sticky fail-stop error,
	// if any — once set, every further commit is refused.
	WALEnabled bool   `json:"wal_enabled,omitempty"`
	WALError   string `json:"wal_error,omitempty"`
	// Recovery is the startup WAL replay report (nil when no replay
	// ran); sharded tables aggregate their shards' reports.
	Recovery *RecoveryReport `json:"recovery,omitempty"`
	// ShardDeltaRows breaks DeltaRows down per shard (one entry per
	// shard, in shard order; a single entry for unsharded tables).
	// Admission control uses the hottest entry as its backpressure
	// signal — one overwhelmed shard sheds load even when the table-wide
	// total looks healthy.
	ShardDeltaRows []int `json:"shard_delta_rows,omitempty"`
}

// MaxShardDeltaRows returns the deepest per-shard delta backlog (the
// hottest shard), 0 when nothing is buffered.
func (s IngestStats) MaxShardDeltaRows() int {
	m := 0
	for _, n := range s.ShardDeltaRows {
		m = max(m, n)
	}
	return m
}

// IngestStats reports delta/seal/merge health. Under the immediate seal
// policy (Enabled false) every commit counts as one flush and DeltaRows
// is always 0.
func (t *Table) IngestStats() IngestStats {
	kids := t.parts()
	st := IngestStats{ShardDeltaRows: make([]int, len(kids))}
	for c, kid := range kids {
		kid.mu.RLock()
		d := kid.delta
		rows := d.store.Len()
		st.Enabled = st.Enabled || d.buffered.Load()
		st.DeltaRows += rows
		st.Seals += d.seals.Load()
		st.SealedSegments += d.sealedSegs.Load()
		st.SealedRows += d.sealedRows.Load()
		st.SealRetries += d.sealRetries.Load()
		st.Flushes += d.flushes.Load()
		st.FlushedRows += d.flushedRows.Load()
		st.Merges += d.merges.Load()
		st.MergeBacklog += kid.mergeBacklogLocked()
		if d.recovery != nil {
			if st.Recovery == nil {
				st.Recovery = &RecoveryReport{}
			}
			st.Recovery.add(d.recovery)
		}
		if d.wal != nil {
			st.WALEnabled = true
			if err := d.wal.Err(); err != nil && st.WALError == "" {
				st.WALError = err.Error()
			}
		}
		st.ShardDeltaRows[c] = rows
		kid.mu.RUnlock()
	}
	return st
}

// mergeBacklogLocked counts sealed segments awaiting a merge rewrite;
// callers hold a lock.
//
//imprintvet:locks held=mu.R
func (t *Table) mergeBacklogLocked() int {
	n := 0
	for _, name := range t.order {
		n += t.cols[name].mergeBacklog(defaultSatLimit)
	}
	return n
}

// ---- per-column delta adapters ----

func (c *colState[V]) place(pos int)       { c.pos = pos }
func (c *colState[V]) deltaCol() delta.Col { return delta.NewNum[V]() }
func (c *strColState) place(pos int)       { c.pos = pos }
func (c *strColState) deltaCol() delta.Col { return delta.NewStr() }

// slab returns the values of the rows r names: a sealed segment's
// value slab, or the column's vector of the delta view.
//
//imprintvet:locks held=mu.R
func (c *colState[V]) slab(r segRef) []V {
	if r.view != nil {
		return delta.NumVec[V](*r.view, c.pos)
	}
	return c.segs[r.s].vals
}

// deltaValues appends view's rows of the column to dst, in id order.
func (c *colState[V]) deltaValues(dst []V, view delta.View) []V {
	if view.Rows == 0 {
		return dst
	}
	return append(dst, delta.NumVec[V](view, c.pos)[view.Lo():]...)
}

//imprintvet:locks held=mu
func (c *colState[V]) absorbDelta(view delta.View) {
	c.absorb(delta.NumVec[V](view, c.pos)[view.Lo():])
}

// deltaValues appends view's rows of the column, decoded, to dst, in id
// order.
func (c *strColState) deltaValues(dst []string, view delta.View) []string {
	if view.Rows == 0 {
		return dst
	}
	codes, syms := view.StrVec(c.pos)
	for _, code := range codes[view.Lo():] {
		dst = append(dst, syms[code])
	}
	return dst
}

//imprintvet:locks held=mu
func (c *strColState) absorbDelta(view delta.View) {
	c.absorbStrings(c.deltaValues(nil, view))
}
