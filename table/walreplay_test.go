package table

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// mkQtyCity builds the empty qty/city schema the WAL tests write to.
func mkQtyCity(t *testing.T, shards int) *Table {
	t.Helper()
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64, Shards: shards})
	if err := AddColumn(tb, "qty", []int64{}, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", []string{}, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// newWALTable builds an empty qty/city table that buffers its commits
// and attaches a WAL under dir on fs. AutoSeal stays off so tests
// control sealing deterministically.
func newWALTable(t *testing.T, fs faultfs.FS, dir string, policy wal.SyncPolicy) (*Table, *RecoveryReport) {
	t.Helper()
	return newWALTableWith(t, fs, dir, policy, 1, sealManual)
}

// newWALTableWith is newWALTable at a shard count and seal policy.
func newWALTableWith(t *testing.T, fs faultfs.FS, dir string, policy wal.SyncPolicy, shards int, seal sealPolicy) (*Table, *RecoveryReport) {
	t.Helper()
	tb := mkQtyCity(t, shards)
	seal.apply(t, tb)
	rep, err := tb.EnableWAL(WALOptions{Dir: dir, Policy: policy, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return tb, rep
}

// commitQC commits one qty/city batch.
func commitQC(tb *Table, qty []int64, city []string) error {
	b := tb.NewBatch()
	if err := Append(b, "qty", qty); err != nil {
		return err
	}
	if err := b.AppendStrings("city", city); err != nil {
		return err
	}
	return b.Commit()
}

// seqRows builds n deterministic rows starting at value base.
func seqRows(base, n int) ([]int64, []string) {
	qty := make([]int64, n)
	city := make([]string, n)
	for i := 0; i < n; i++ {
		qty[i] = int64(base + i)
		city[i] = fmt.Sprintf("c%d", (base+i)%7)
	}
	return qty, city
}

// dumpTable renders the table's complete logical contents (ids, live
// values, tombstones) for equality comparison across recoveries. A
// sharded table's ids have holes once its shards compacted, so it is
// rendered through a query instead: every live row under its id.
func dumpTable(t *testing.T, tb *Table) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "rows=%d live=%d\n", tb.Rows(), tb.LiveRows())
	if tb.shard != nil {
		q := tb.Select("qty", "city")
		for id, row := range q.Rows() {
			fmt.Fprintf(&sb, "%d %s\n", id, row)
		}
		if err := q.Err(); err != nil {
			t.Fatalf("Rows: %v", err)
		}
		return sb.String()
	}
	for id := 0; id < tb.Rows(); id++ {
		if tb.IsDeleted(id) {
			fmt.Fprintf(&sb, "%d D\n", id)
			continue
		}
		row, err := tb.ReadRow(id)
		if err != nil {
			t.Fatalf("ReadRow(%d): %v", id, err)
		}
		fmt.Fprintf(&sb, "%d %v %v\n", id, row["qty"], row["city"])
	}
	return sb.String()
}

// TestWALReplayRoundTrip runs commits, point updates, deletes and a
// compaction through a WAL, crashes, and asserts recovery rebuilds the
// exact pre-crash table and reports what it replayed — at shard counts
// 1 and 2 (one log per shard) under every seal policy: a table that
// never called EnableDeltaIngest logs and recovers like the others, and
// each of its commits is indexed, not buffered, when acknowledged.
func TestWALReplayRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, seal := range sealPolicies {
			t.Run(fmt.Sprintf("shards=%d/policy=%s", shards, seal), func(t *testing.T) {
				walReplayRoundTrip(t, shards, seal)
			})
		}
	}
}

func walReplayRoundTrip(t *testing.T, shards int, seal sealPolicy) {
	mem := faultfs.NewMemFS()
	tb, rep := newWALTableWith(t, mem, "wal", wal.SyncAlways, shards, seal)
	if rep.Records != 0 {
		t.Fatalf("fresh log replayed %d records", rep.Records)
	}

	q, c := seqRows(0, 100)
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	tb.SealDelta() // indexes seal; replay must cross the seal boundary
	if err := Update(tb, "qty", 5, int64(9999)); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateString("city", 12, "Reykjavik"); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(3); err != nil {
		t.Fatal(err)
	}
	q, c = seqRows(100, 50)
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	if err := tb.Delete(120); err != nil {
		t.Fatal(err)
	}
	tb.Compact() // logs 'P'; ids renumber
	q, c = seqRows(150, 10)
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	if seal == sealImmediate && tb.DeltaRows() != 0 {
		t.Errorf("%d rows buffered on a table that never enabled buffering", tb.DeltaRows())
	}
	want := dumpTable(t, tb)

	mem.Crash() // kill -9: only synced state survives

	rec, rep2 := newWALTableWith(t, mem, "wal", wal.SyncAlways, shards, seal)
	if seal == sealImmediate && rec.DeltaRows() != 0 {
		t.Errorf("recovery left %d rows buffered under the immediate policy", rec.DeltaRows())
	}
	if got := dumpTable(t, rec); got != want {
		t.Errorf("recovered table differs from pre-crash table:\n--- want\n%s--- got\n%s", want, got)
	}
	if rep2.RowsReplayed != 160 {
		t.Errorf("RowsReplayed = %d, want 160", rep2.RowsReplayed)
	}
	if rep2.UpdatesReplayed != 2 || rep2.DeletesReplayed != 2 {
		t.Errorf("replayed %d updates / %d deletes, want 2 / 2", rep2.UpdatesReplayed, rep2.DeletesReplayed)
	}
	if rep2.TornRecords != 0 {
		t.Errorf("clean log reported %d torn records", rep2.TornRecords)
	}
	st := rec.IngestStats()
	if !st.WALEnabled || st.Recovery == nil {
		t.Errorf("IngestStats does not surface recovery: %+v", st)
	}
	if st.Recovery.RowsReplayed != rep2.RowsReplayed {
		t.Errorf("IngestStats.Recovery = %+v, want %+v", st.Recovery, rep2)
	}

	// The recovered table keeps serving writes through the same log.
	q, c = seqRows(160, 5)
	if err := commitQC(rec, q, c); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if rec.Rows() != tb.Rows()+5 {
		t.Errorf("rows after post-recovery commit = %d, want %d", rec.Rows(), tb.Rows()+5)
	}
}

// TestWALRecoverySealsReplayedRows asserts recovery pushes replayed
// rows through the ordinary seal path, rebuilding imprint indexes that
// were never logged.
func TestWALRecoverySealsReplayedRows(t *testing.T) {
	mem := faultfs.NewMemFS()
	tb, _ := newWALTable(t, mem, "wal", wal.SyncAlways)
	q, c := seqRows(0, 128) // exactly two seal chunks
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	rec, rep := newWALTable(t, mem, "wal", wal.SyncAlways)
	if rep.RowsReplayed != 128 {
		t.Fatalf("RowsReplayed = %d, want 128", rep.RowsReplayed)
	}
	if rep.SegmentsRebuilt != 2 {
		t.Errorf("SegmentsRebuilt = %d, want 2", rep.SegmentsRebuilt)
	}
	if rec.Segments() != 2 {
		t.Errorf("recovered table has %d sealed segments, want 2", rec.Segments())
	}
	if st, err := rec.IndexStats("qty"); err != nil || st.Segments == 0 {
		t.Errorf("qty index not rebuilt after recovery: %+v, %v", st, err)
	}
}

// TestWALCheckpointTruncates saves an image mid-stream and asserts the
// checkpoint confines replay to post-image records: recovery loads the
// image, replays only the suffix, and arrives at the pre-crash state.
func TestWALCheckpointTruncates(t *testing.T) {
	mem := faultfs.NewMemFS()
	tb, _ := newWALTable(t, mem, "wal", wal.SyncAlways)
	q, c := seqRows(0, 100)
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteFile("orders.ctbl"); err != nil {
		t.Fatal(err)
	}
	q, c = seqRows(100, 30)
	if err := commitQC(tb, q, c); err != nil {
		t.Fatal(err)
	}
	want := dumpTable(t, tb)

	mem.Crash()

	rec, _, err := Open("orders.ctbl", LoadOptions{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Rows() != 100 {
		t.Fatalf("image alone carries %d rows, want 100", rec.Rows())
	}
	if err := rec.EnableDeltaIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := rec.EnableWAL(WALOptions{Dir: "wal", Policy: wal.SyncAlways, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpTable(t, rec); got != want {
		t.Errorf("recovered table differs:\n--- want\n%s--- got\n%s", want, got)
	}
	// The image covers the first 100 rows; the truncated log must not
	// re-deliver them.
	if rep.RowsReplayed != 30 {
		t.Errorf("RowsReplayed = %d, want 30 (the post-checkpoint suffix)", rep.RowsReplayed)
	}
}

// lastWALSegment returns the path of the newest segment under dir.
func lastWALSegment(t *testing.T, fs faultfs.FS, dir string) string {
	t.Helper()
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") {
			segs = append(segs, n)
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no wal segments in %s (entries %v)", dir, names)
	}
	sort.Strings(segs)
	return dir + "/" + segs[len(segs)-1]
}

// TestWALTornTail damages the final record of the log and asserts
// recovery truncates the tear, counts it, loses exactly the torn
// commit, and that the tear cannot come back on the next recovery.
func TestWALTornTail(t *testing.T) {
	mem := faultfs.NewMemFS()
	tb, _ := newWALTable(t, mem, "wal", wal.SyncAlways)
	for i := 0; i < 3; i++ {
		q, c := seqRows(i*10, 10)
		if err := commitQC(tb, q, c); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()

	// Shear a few bytes off the last frame, as a torn sector would.
	seg := lastWALSegment(t, mem, "wal")
	size, err := mem.Size(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Truncate(seg, size-3); err != nil {
		t.Fatal(err)
	}

	rec, rep := newWALTable(t, mem, "wal", wal.SyncAlways)
	if rep.TornRecords != 1 {
		t.Errorf("TornRecords = %d, want 1", rep.TornRecords)
	}
	if rep.BytesTruncated == 0 {
		t.Error("BytesTruncated = 0, want > 0")
	}
	if rec.Rows() != 20 {
		t.Errorf("recovered %d rows, want 20 (the torn commit is lost)", rec.Rows())
	}
	if rep.RowsReplayed != 20 {
		t.Errorf("RowsReplayed = %d, want 20", rep.RowsReplayed)
	}

	// The tear was physically truncated; a second recovery sees a clean
	// log with identical contents.
	mem.Crash()
	rec2, rep2 := newWALTable(t, mem, "wal", wal.SyncAlways)
	if rep2.TornRecords != 0 {
		t.Errorf("second recovery reports %d torn records, want 0", rep2.TornRecords)
	}
	if got, want := dumpTable(t, rec2), dumpTable(t, rec); got != want {
		t.Errorf("second recovery differs from first:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestWALGroupAndOffPolicies exercises the two non-always policies end
// to end: both must recover everything that was explicitly synced.
func TestWALGroupAndOffPolicies(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncGroup, wal.SyncOff} {
		mem := faultfs.NewMemFS()
		tb, _ := newWALTable(t, mem, "wal", policy)
		q, c := seqRows(0, 40)
		if err := commitQC(tb, q, c); err != nil {
			t.Fatal(err)
		}
		// Force the tail durable regardless of policy, then crash.
		if lg := tb.walPtr(); lg == nil {
			t.Fatal("no wal attached")
		} else if err := lg.Sync(); err != nil {
			t.Fatal(err)
		}
		want := dumpTable(t, tb)
		mem.Crash()
		rec, _ := newWALTable(t, mem, "wal", policy)
		if got := dumpTable(t, rec); got != want {
			t.Errorf("policy %v: recovered table differs:\n--- want\n%s--- got\n%s", policy, want, got)
		}
	}
}

// FuzzWALReplay feeds arbitrary bytes to the replay path as a segment
// file: recovery may reject or truncate, but must never panic.
func FuzzWALReplay(f *testing.F) {
	// Seed with a real segment produced by a real workload.
	mem := faultfs.NewMemFS()
	tb := NewWithOptions("orders", TableOptions{SegmentRows: 64})
	if err := AddColumn(tb, "qty", []int64{}, Imprints, core.Options{}); err != nil {
		f.Fatal(err)
	}
	if err := tb.AddStringColumn("city", []string{}, Imprints, core.Options{}); err != nil {
		f.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
		f.Fatal(err)
	}
	if _, err := tb.EnableWAL(WALOptions{Dir: "wal", Policy: wal.SyncAlways, FS: mem}); err != nil {
		f.Fatal(err)
	}
	q, c := seqRows(0, 10)
	if err := commitQC(tb, q, c); err != nil {
		f.Fatal(err)
	}
	if err := tb.Delete(2); err != nil {
		f.Fatal(err)
	}
	names, err := mem.ReadDir("wal")
	if err != nil || len(names) == 0 {
		f.Fatalf("no wal segment for seed: %v", err)
	}
	fh, err := mem.Open("wal/" + names[0])
	if err != nil {
		f.Fatal(err)
	}
	seed, err := io.ReadAll(fh)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	f.Add(seed[:len(seed)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := faultfs.NewMemFS()
		if err := mem.MkdirAll("wal"); err != nil {
			t.Fatal(err)
		}
		fh, err := mem.Create("wal/wal-00000001.log")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fh.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fh.Sync(); err != nil {
			t.Fatal(err)
		}
		fh.Close()
		if err := mem.SyncDir("wal"); err != nil {
			t.Fatal(err)
		}
		rb := NewWithOptions("orders", TableOptions{SegmentRows: 64})
		if err := AddColumn(rb, "qty", []int64{}, Imprints, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := rb.AddStringColumn("city", []string{}, Imprints, core.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := rb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		// Errors are fine (damaged history must be refused); panics and
		// hangs are the bug class under test.
		_, _ = rb.EnableWAL(WALOptions{Dir: "wal", Policy: wal.SyncAlways, FS: mem})
	})
}
