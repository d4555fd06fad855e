package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/coltype"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// Crash-safe ingest (wal.go): with a write-ahead log attached, every
// committed batch, update, delete and compaction is framed into the
// per-table log (internal/wal) before it is acknowledged, under the
// same locks that order it in memory — so the log's record order is
// exactly the memory order. Column imprints never need to be logged:
// the index is a ~1-2% summary rebuilt cheaply from the value slabs,
// so recovery replays raw rows into the delta store — a commit record
// decodes straight into typed column vectors, the form the store takes —
// and rebuilds indexes through the ordinary seal path, ending with the
// table's own seal policy. Checkpoints are piggybacked on image saves:
// WriteFile cuts the log while the drain holds the exclusive lock,
// persists the cut sequence inside the image, and truncates the covered
// segments once the image is durably renamed.
//
// Record formats (all little endian, one record per WAL frame):
//
//	'C' commit:   base uint64, nrows uint32, ncols uint16,
//	              ncols type tags, then per row per column one value
//	'U' update:   id uint64, col uint16, tag uint8, value
//	'D' delete:   id uint64
//	'P' compact:  preRows uint64, postRows uint64
//	'K' checkpoint: rows uint64 (the durable image's row count)
//
// Values are fixed width by tag; strings are uint32 length + bytes.
// Sharded tables keep one log per shard (dir/shard-NNN), written under
// that shard's commit token, so per-shard ordering is total and shards
// never serialize against each other on the log.

// WALOptions configures EnableWAL.
type WALOptions struct {
	// Dir is the log directory (per-shard subdirectories are created
	// under it for sharded tables).
	Dir string
	// Policy selects the durability/throughput trade-off: SyncAlways
	// fsyncs every commit, SyncGroup batches commits into one fsync per
	// GroupWindow, SyncOff never syncs (crash loses the tail).
	Policy wal.SyncPolicy
	// GroupWindow is the max added commit latency under SyncGroup.
	// 0 means the wal package default.
	GroupWindow time.Duration
	// FS overrides the filesystem (fault injection in tests); nil means
	// the real one.
	FS faultfs.FS
}

// RecoveryReport summarizes one WAL replay at startup.
type RecoveryReport struct {
	// Segments and Records count what the log physically held.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// RowsReplayed is the number of committed rows re-applied to the
	// delta store; RowsSkipped were already covered by the loaded image
	// (or superseded by a checkpoint) and skipped idempotently.
	RowsReplayed int `json:"rows_replayed"`
	RowsSkipped  int `json:"rows_skipped"`
	// UpdatesReplayed / DeletesReplayed count re-applied point writes.
	UpdatesReplayed int `json:"updates_replayed"`
	DeletesReplayed int `json:"deletes_replayed"`
	// TornRecords and BytesTruncated report torn-tail repair: a partial
	// final record is physically truncated (once) and counted here.
	TornRecords    int   `json:"torn_records"`
	BytesTruncated int64 `json:"bytes_truncated"`
	// SegmentsRebuilt counts columnar segments sealed from replayed
	// rows — the indexes recovery rebuilt instead of logging them.
	SegmentsRebuilt int `json:"segments_rebuilt"`
}

func (r *RecoveryReport) add(o *RecoveryReport) {
	r.Segments += o.Segments
	r.Records += o.Records
	r.RowsReplayed += o.RowsReplayed
	r.RowsSkipped += o.RowsSkipped
	r.UpdatesReplayed += o.UpdatesReplayed
	r.DeletesReplayed += o.DeletesReplayed
	r.TornRecords += o.TornRecords
	r.BytesTruncated += o.BytesTruncated
	r.SegmentsRebuilt += o.SegmentsRebuilt
}

// String renders the report for startup logs.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("replayed %d record(s) from %d segment(s): %d row(s) recovered, %d skipped, %d update(s), %d delete(s), %d torn record(s) (%d bytes truncated), %d segment(s) rebuilt",
		r.Records, r.Segments, r.RowsReplayed, r.RowsSkipped,
		r.UpdatesReplayed, r.DeletesReplayed, r.TornRecords, r.BytesTruncated, r.SegmentsRebuilt)
}

// EnableWAL attaches a write-ahead log to the table, whatever its seal
// policy: it first replays any existing log in opts.Dir (tolerating a
// torn final record), seals the replayed rows so their indexes are
// rebuilt (all of them under the immediate policy, full segments under
// the buffered one), and then starts logging every commit, update,
// delete and compaction. Call it after loading any persisted image,
// before serving writes. Enabling is one-way; Close flushes and closes
// the log.
func (t *Table) EnableWAL(opts WALOptions) (*RecoveryReport, error) {
	t.quiesce()
	defer t.resume()
	total := &RecoveryReport{}
	for c, kid := range t.parts() {
		rep, err := kid.enableWALPart(opts, t.walDir(opts.Dir, c))
		if err != nil {
			return nil, t.partErr(c, err)
		}
		total.add(rep)
	}
	return total, nil
}

// enableWALPart replays and attaches one part's log.
func (t *Table) enableWALPart(opts WALOptions, dir string) (*RecoveryReport, error) {
	d := t.delta
	if t.walPtr() != nil {
		return nil, fmt.Errorf("table %s: WAL already enabled", t.name)
	}
	tags, err := t.walSchemaTags()
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{}
	stats, err := wal.Replay(opts.FS, dir, func(seq uint64, payload []byte) error {
		if seq < t.walKeepSeq {
			// Superseded by the checkpoint the loaded image recorded:
			// these records describe an epoch the image already covers
			// (possibly with since-renumbered row ids). Skip wholesale.
			if payload[0] == walRecCommit {
				if _, rows, _, err := decodeWALCommit(payload, tags); err == nil {
					rep.RowsSkipped += rows
				}
			}
			return nil
		}
		return t.applyWALRecord(d, payload, tags, rep)
	})
	rep.Segments, rep.Records = stats.Segments, stats.Records
	rep.TornRecords, rep.BytesTruncated = stats.TornRecords, stats.BytesTruncated
	if err != nil {
		return nil, fmt.Errorf("table %s: wal replay: %w", t.name, err)
	}
	// Rebuild indexes for the recovered rows through the ordinary seal
	// path (imprints are never logged; they are cheaper to rebuild),
	// once for the whole log, as the table's seal policy has it: full
	// segments only when commits buffer, every row when they do not.
	if rep.RowsReplayed > 0 {
		before := t.Segments()
		if d.buffered.Load() {
			t.SealDelta()
		} else {
			t.FlushDelta()
		}
		rep.SegmentsRebuilt = t.Segments() - before
	}
	lg, err := wal.Open(dir, wal.Options{
		Policy:      opts.Policy,
		GroupWindow: opts.GroupWindow,
		FS:          opts.FS,
	})
	if err != nil {
		return nil, fmt.Errorf("table %s: wal open: %w", t.name, err)
	}
	t.mu.Lock()
	d.wal = lg
	d.walTags = tags
	d.recovery = rep
	t.fsys = opts.FS
	t.mu.Unlock()
	return rep, nil
}

// walPtr reads the attached log under the read lock (assigned once,
// under the write lock).
func (t *Table) walPtr() *wal.Log {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.delta.wal
}

// walAppendLocked frames payload into the attached log, serialized
// with delta-store appends so log order equals memory order. It
// returns the log to wait durability on (nil when no WAL is attached).
// Callers hold at least the table read lock.
//
//imprintvet:locks held=mu.R
func (t *Table) walAppendLocked(payload []byte) (*wal.Log, int64, error) {
	d := t.delta
	lg := d.wal
	if lg == nil {
		return nil, 0, nil
	}
	d.walMu.Lock()
	lsn, err := lg.Append(payload)
	d.walMu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("table %s: wal append: %w", t.name, err)
	}
	return lg, lsn, nil
}

// walSchemaTags derives the per-column WAL type tags from the current
// layout (commit records carry them, so replay can verify the schema).
func (t *Table) walSchemaTags() ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tags := make([]byte, len(t.order))
	for i, name := range t.order {
		tag, ok := walTagByType[t.cols[name].colType()]
		if !ok {
			return nil, fmt.Errorf("table %s: column %q type %q cannot be logged", t.name, name, t.cols[name].colType())
		}
		tags[i] = tag
	}
	return tags, nil
}

// ---- replay ----

// applyWALRecord re-applies one logged record during recovery (the WAL
// is not attached yet, so nothing re-logs). Replay is idempotent
// against the loaded image: commit rows at or below the current
// watermark are skipped, partial overlaps apply only the missing
// suffix, and a gap means the log and image do not belong together.
func (t *Table) applyWALRecord(d *deltaState, payload []byte, tags []byte, rep *RecoveryReport) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal replay: empty record")
	}
	switch payload[0] {
	case walRecCommit:
		base, rows, vals, err := decodeWALCommit(payload, tags)
		if err != nil {
			return err
		}
		cur := t.Rows()
		switch {
		case base+rows <= cur:
			rep.RowsSkipped += rows
			return nil
		case base > cur:
			return fmt.Errorf("wal replay: commit base %d leaves a gap after row %d", base, cur)
		}
		rep.RowsSkipped += cur - base
		if err := d.store.Append(vals, cur-base, rows); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		rep.RowsReplayed += base + rows - cur
		return nil
	case walRecUpdate:
		id, ci, val, err := decodeWALUpdate(payload, tags)
		if err != nil {
			return err
		}
		if id >= t.Rows() {
			return fmt.Errorf("wal replay: update of row %d beyond table end %d", id, t.Rows())
		}
		if err := walApplyUpdate(t, t.orderName(ci), id, val); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		rep.UpdatesReplayed++
		return nil
	case walRecDelete:
		id, err := decodeWALDelete(payload)
		if err != nil {
			return err
		}
		if id >= t.Rows() {
			return fmt.Errorf("wal replay: delete of row %d beyond table end %d", id, t.Rows())
		}
		if err := t.Delete(id); err != nil {
			return fmt.Errorf("wal replay: %w", err)
		}
		rep.DeletesReplayed++
		return nil
	case walRecCompact:
		pre, post, err := decodeWALCompact(payload)
		if err != nil {
			return err
		}
		if cur := t.Rows(); cur != pre {
			return fmt.Errorf("wal replay: compaction expected %d rows, table has %d", pre, cur)
		}
		t.Compact()
		if cur := t.Rows(); cur != post {
			return fmt.Errorf("wal replay: compaction left %d rows, log says %d", cur, post)
		}
		return nil
	case walRecCheckpoint:
		ckRows, err := decodeWALCheckpoint(payload)
		if err != nil {
			return err
		}
		if cur := t.Rows(); ckRows > cur {
			return fmt.Errorf("wal replay: checkpoint covers %d rows but the loaded image has %d (stale image restored against a newer log)", ckRows, cur)
		}
		return nil
	}
	return fmt.Errorf("wal replay: unknown record type %q", payload[0])
}

// orderName returns the ci-th column name under a short read lock.
func (t *Table) orderName(ci int) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.order[ci]
}

// walApplyUpdate re-applies one decoded update by value type; val is
// the one-cell vector decodeWALUpdate produced.
func walApplyUpdate(t *Table, name string, id int, val any) error {
	switch v := val.(type) {
	case []int8:
		return Update(t, name, id, v[0])
	case []int16:
		return Update(t, name, id, v[0])
	case []int32:
		return Update(t, name, id, v[0])
	case []int64:
		return Update(t, name, id, v[0])
	case []uint8:
		return Update(t, name, id, v[0])
	case []uint16:
		return Update(t, name, id, v[0])
	case []uint32:
		return Update(t, name, id, v[0])
	case []uint64:
		return Update(t, name, id, v[0])
	case []float32:
		return Update(t, name, id, v[0])
	case []float64:
		return Update(t, name, id, v[0])
	case []string:
		return t.UpdateString(name, id, v[0])
	}
	return fmt.Errorf("update of unsupported type %T", val)
}

// ---- record codec ----

const (
	walRecCommit     = byte('C')
	walRecUpdate     = byte('U')
	walRecDelete     = byte('D')
	walRecCompact    = byte('P')
	walRecCheckpoint = byte('K')
)

const (
	walTagInt8 = byte(iota + 1)
	walTagInt16
	walTagInt32
	walTagInt64
	walTagUint8
	walTagUint16
	walTagUint32
	walTagUint64
	walTagFloat32
	walTagFloat64
	walTagString
)

var walTagByType = map[string]byte{
	"int8": walTagInt8, "int16": walTagInt16, "int32": walTagInt32, "int64": walTagInt64,
	"uint8": walTagUint8, "uint16": walTagUint16, "uint32": walTagUint32, "uint64": walTagUint64,
	"float32": walTagFloat32, "float64": walTagFloat64, "string": walTagString,
}

// walCodec is one loggable type's side of the record codec. Values
// travel between the codec and the table as typed vectors — a column of
// a commit, the single cell of an update — held in an any: the []V (or
// []string) the tag names.
type walCodec struct {
	newCol func(n int) any                       // an n-cell vector
	put    func(b []byte, col any, r int) []byte // encode cell r
	get    func(c *walCursor, col any, r int)    // decode into cell r
}

func numWALCodec[V coltype.Value](put func([]byte, V) []byte, get func(*walCursor) V) walCodec {
	return walCodec{
		newCol: func(n int) any { return make([]V, n) },
		put:    func(b []byte, col any, r int) []byte { return put(b, col.([]V)[r]) },
		get:    func(c *walCursor, col any, r int) { col.([]V)[r] = get(c) },
	}
}

// walCodecs is indexed by tag. Tags reach it validated: a record's
// against the table's own (decodeWALCommit, decodeWALUpdate), the
// table's by walSchemaTags.
var walCodecs = [walTagString + 1]walCodec{
	walTagInt8: numWALCodec(
		func(b []byte, v int8) []byte { return append(b, byte(v)) },
		func(c *walCursor) int8 { return int8(c.u8()) }),
	walTagInt16: numWALCodec(
		func(b []byte, v int16) []byte { return binary.LittleEndian.AppendUint16(b, uint16(v)) },
		func(c *walCursor) int16 { return int16(c.u16()) }),
	walTagInt32: numWALCodec(
		func(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) },
		func(c *walCursor) int32 { return int32(c.u32()) }),
	walTagInt64: numWALCodec(
		func(b []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) },
		func(c *walCursor) int64 { return int64(c.u64()) }),
	walTagUint8: numWALCodec(
		func(b []byte, v uint8) []byte { return append(b, v) },
		(*walCursor).u8),
	walTagUint16: numWALCodec(binary.LittleEndian.AppendUint16, (*walCursor).u16),
	walTagUint32: numWALCodec(binary.LittleEndian.AppendUint32, (*walCursor).u32),
	walTagUint64: numWALCodec(binary.LittleEndian.AppendUint64, (*walCursor).u64),
	walTagFloat32: numWALCodec(
		func(b []byte, v float32) []byte { return binary.LittleEndian.AppendUint32(b, math.Float32bits(v)) },
		func(c *walCursor) float32 { return math.Float32frombits(c.u32()) }),
	walTagFloat64: numWALCodec(
		func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) },
		func(c *walCursor) float64 { return math.Float64frombits(c.u64()) }),
	walTagString: {
		newCol: func(n int) any { return make([]string, n) },
		put: func(b []byte, col any, r int) []byte {
			s := col.([]string)[r]
			return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
		},
		get: func(c *walCursor, col any, r int) {
			n := int(c.u32())
			if c.err == nil && n > len(c.b)-c.off {
				c.fail()
				return
			}
			col.([]string)[r] = string(c.take(n))
		},
	},
}

// walCursor is a bounds-checked little-endian reader over one record.
type walCursor struct {
	b   []byte
	off int
	err error
}

func (c *walCursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("wal replay: truncated record")
	}
}

func (c *walCursor) take(n int) []byte {
	if c.err != nil || c.off+n > len(c.b) {
		c.fail()
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

func (c *walCursor) u8() byte {
	p := c.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (c *walCursor) u16() uint16 {
	p := c.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (c *walCursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *walCursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// encodeWALCommit frames rows [from, to) of one committed batch — vals
// holds its typed column vectors, in column order — as the batch's
// shard-local base row followed by every value, row by row.
func encodeWALCommit(tags []byte, base int, vals []any, from, to int) []byte {
	b := make([]byte, 0, 16+len(tags)+(to-from)*len(tags)*8)
	b = append(b, walRecCommit)
	b = binary.LittleEndian.AppendUint64(b, uint64(base))
	b = binary.LittleEndian.AppendUint32(b, uint32(to-from))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tags)))
	b = append(b, tags...)
	for r := from; r < to; r++ {
		for ci, tag := range tags {
			b = walCodecs[tag].put(b, vals[ci], r)
		}
	}
	return b
}

// decodeWALCommit returns the record's base row, row count and typed
// column vectors.
func decodeWALCommit(payload []byte, want []byte) (base, rows int, vals []any, err error) {
	c := &walCursor{b: payload, off: 1}
	base = int(c.u64())
	rows = int(c.u32())
	ncols := int(c.u16())
	if c.err != nil {
		return 0, 0, nil, c.err
	}
	if ncols != len(want) {
		return 0, 0, nil, fmt.Errorf("wal replay: commit carries %d columns, table has %d", ncols, len(want))
	}
	tags := c.take(ncols)
	if !slices.Equal(tags, want) {
		return 0, 0, nil, fmt.Errorf("wal replay: commit column types %v do not match table %v", tags, want)
	}
	if rows < 0 || rows > len(payload) {
		return 0, 0, nil, fmt.Errorf("wal replay: commit claims %d rows in a %d-byte record", rows, len(payload))
	}
	vals = make([]any, ncols)
	for ci, tag := range want {
		vals[ci] = walCodecs[tag].newCol(rows)
	}
	for r := 0; r < rows; r++ {
		for ci, tag := range want {
			walCodecs[tag].get(c, vals[ci], r)
		}
		if c.err != nil {
			return 0, 0, nil, c.err
		}
	}
	if c.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("wal replay: %d trailing bytes after commit record", len(payload)-c.off)
	}
	return base, rows, vals, nil
}

// encodeWALUpdate frames one update; cell is the one-cell vector of the
// new value, of the type tag names.
func encodeWALUpdate(id int, ci int, tag byte, cell any) []byte {
	b := make([]byte, 0, 24)
	b = append(b, walRecUpdate)
	b = binary.LittleEndian.AppendUint64(b, uint64(id))
	b = binary.LittleEndian.AppendUint16(b, uint16(ci))
	b = append(b, tag)
	return walCodecs[tag].put(b, cell, 0)
}

// decodeWALUpdate returns the updated row, column and the new value as a
// one-cell vector.
func decodeWALUpdate(payload []byte, tags []byte) (id, ci int, cell any, err error) {
	c := &walCursor{b: payload, off: 1}
	id = int(c.u64())
	ci = int(c.u16())
	tag := c.u8()
	if c.err != nil {
		return 0, 0, nil, c.err
	}
	if ci >= len(tags) {
		return 0, 0, nil, fmt.Errorf("wal replay: update names column %d, table has %d", ci, len(tags))
	}
	if tag != tags[ci] {
		return 0, 0, nil, fmt.Errorf("wal replay: update tag %d does not match column type tag %d", tag, tags[ci])
	}
	cell = walCodecs[tag].newCol(1)
	walCodecs[tag].get(c, cell, 0)
	if c.err != nil {
		return 0, 0, nil, c.err
	}
	return id, ci, cell, nil
}

func encodeWALDelete(id int) []byte {
	b := make([]byte, 0, 9)
	b = append(b, walRecDelete)
	return binary.LittleEndian.AppendUint64(b, uint64(id))
}

func decodeWALDelete(payload []byte) (int, error) {
	c := &walCursor{b: payload, off: 1}
	id := int(c.u64())
	return id, c.err
}

func encodeWALCompact(pre, post int) []byte {
	b := make([]byte, 0, 17)
	b = append(b, walRecCompact)
	b = binary.LittleEndian.AppendUint64(b, uint64(pre))
	return binary.LittleEndian.AppendUint64(b, uint64(post))
}

func decodeWALCompact(payload []byte) (pre, post int, err error) {
	c := &walCursor{b: payload, off: 1}
	pre, post = int(c.u64()), int(c.u64())
	return pre, post, c.err
}

func encodeWALCheckpoint(rows int) []byte {
	b := make([]byte, 0, 9)
	b = append(b, walRecCheckpoint)
	return binary.LittleEndian.AppendUint64(b, uint64(rows))
}

func decodeWALCheckpoint(payload []byte) (int, error) {
	c := &walCursor{b: payload, off: 1}
	rows := int(c.u64())
	return rows, c.err
}

// ---- checkpoint plumbing (consumed by WriteFile in persist.go) ----

// walCutLocked cuts the attached log while an image drain holds the
// exclusive lock: commits are excluded, so every record at or past the
// returned segment belongs strictly after the image. The cut is stashed
// until the image is durable and walCheckpoint consumes it. Callers
// hold the write lock. No-op without a WAL.
//
//imprintvet:locks held=mu
func (t *Table) walCutLocked() error {
	d := t.delta
	if d.wal == nil {
		return nil
	}
	seq, err := d.wal.Cut()
	if err != nil {
		return fmt.Errorf("table %s: wal cut: %w", t.name, err)
	}
	d.pendingCut = walCut{seq: seq, rows: t.rows, ok: true}
	return nil
}

// walKeepSeqLocked is the cut persisted inside the image being written.
// Without a fresh cut it carries the checkpoint the table itself was
// loaded with forward, so re-persisting never regresses the watermark.
// Callers hold at least the read lock.
//
//imprintvet:locks held=mu.R
func (t *Table) walKeepSeqLocked() uint64 {
	if cut := t.delta.pendingCut; cut.ok {
		return cut.seq
	}
	return t.walKeepSeq
}

// walCheckpoint consumes the pending cut after the image it is baked
// into became durable: it logs a checkpoint record and drops the log
// segments the image supersedes. Safe to call without a WAL (no-op).
func (t *Table) walCheckpoint() error {
	for c, kid := range t.parts() {
		kid.mu.Lock()
		d := kid.delta
		cut, lg := d.pendingCut, d.wal
		d.pendingCut = walCut{}
		kid.mu.Unlock()
		if lg == nil || !cut.ok {
			continue
		}
		if err := lg.TruncateBefore(cut.seq, encodeWALCheckpoint(cut.rows)); err != nil {
			return t.partErr(c, fmt.Errorf("table %s: wal checkpoint: %w", t.name, err))
		}
	}
	return nil
}

// walCut is a pending checkpoint: the first log segment the in-flight
// image does NOT cover, and the image's row count.
type walCut struct {
	seq  uint64
	rows int
	ok   bool
}
