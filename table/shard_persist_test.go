package table

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// shardTableEqual compares two tables row for row through the public
// surface (ids, both columns, deletion state).
func shardTableEqual(t *testing.T, tag string, a, b *Table) {
	t.Helper()
	aIDs, _, err := a.Select().IDs()
	if err != nil {
		t.Fatal(err)
	}
	bIDs, _, err := b.Select().IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(aIDs) != len(bIDs) {
		t.Fatalf("%s: %d ids vs %d", tag, len(aIDs), len(bIDs))
	}
	for i := range aIDs {
		if aIDs[i] != bIDs[i] {
			t.Fatalf("%s: ids[%d] = %d vs %d", tag, i, aIDs[i], bIDs[i])
		}
	}
	for _, id := range aIDs {
		ra, err := a.ReadRow(int(id))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ReadRow(int(id))
		if err != nil {
			t.Fatal(err)
		}
		if ra["qty"] != rb["qty"] || ra["city"] != rb["city"] {
			t.Fatalf("%s: row %d %v vs %v", tag, id, ra, rb)
		}
	}
}

func TestShardPersistRoundTrip(t *testing.T) {
	for _, shards := range []int{2, 4} {
		tb := seedSharded(t, shards, 128, 700)
		if err := Update(tb, "qty", 42, int64(-1)); err != nil {
			t.Fatal(err)
		}
		if err := tb.Delete(600); err != nil {
			t.Fatal(err)
		}
		// Shard-local compaction leaves a hole in the global id space;
		// the envelope must carry it faithfully.
		if removed := tb.Compact(); removed != 1 {
			t.Fatalf("shards=%d: Compact removed %d", shards, removed)
		}
		var buf bytes.Buffer
		if err := tb.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.shard == nil || got.shard.nshards != shards {
			t.Fatalf("shards=%d: loaded table is not sharded (%v)", shards, got.shard)
		}
		if got.Rows() != tb.Rows() || got.LiveRows() != tb.LiveRows() {
			t.Fatalf("shards=%d: rows %d/%d vs %d/%d",
				shards, got.Rows(), got.LiveRows(), tb.Rows(), tb.LiveRows())
		}
		shardTableEqual(t, "round-trip", tb, got)
		// The image is deterministic: writing the loaded table again
		// reproduces it byte for byte.
		var again bytes.Buffer
		if err := got.Write(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("shards=%d: rewrite differs (%d vs %d bytes)", shards, buf.Len(), again.Len())
		}
	}
}

// TestShardPersistUnshardedImage pins that the reader tells the two
// layouts apart: an unsharded image loads unsharded, and its data reads
// back identically.
func TestShardPersistUnshardedImage(t *testing.T) {
	un := New("orders")
	if err := AddColumn(un, "qty", []int64{}, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := un.AddStringColumn("city", []string{}, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	commitRows(t, un, 0, 300)
	var buf bytes.Buffer
	if err := un.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.shard != nil {
		t.Fatal("unsharded image loaded sharded")
	}
	shardTableEqual(t, "unsharded-image", un, got)
}

func TestShardPersistCorruptEnvelope(t *testing.T) {
	tb := seedSharded(t, 2, 128, 300)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncations anywhere in the envelope must fail cleanly, never
	// panic or hand back a half-loaded table.
	for _, cut := range []int{0, len(raw) / 4, len(raw) / 2, len(raw) - 3} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}
}

// TestShardPersistSaveUnderIngest pins the drain: Write on a sharded
// ingesting table flushes every shard's buffered delta rows, the image
// contains them all, and the source table keeps serving afterwards.
func TestShardPersistSaveUnderIngest(t *testing.T) {
	tb := seedSharded(t, 4, 128, 0)
	if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	commitRows(t, tb, 0, 500) // buffered across all four shards
	if tb.DeltaRows() == 0 {
		t.Fatal("setup: no buffered delta rows")
	}
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if tb.DeltaRows() != 0 {
		t.Fatalf("Write left %d buffered rows", tb.DeltaRows())
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 500 {
		t.Fatalf("image holds %d rows, want 500", got.Rows())
	}
	shardTableEqual(t, "save-under-ingest", tb, got)
	// The source keeps ingesting after the save.
	commitRows(t, tb, 500, 100)
	n, _, err := tb.Select().Count()
	if err != nil || n != 600 {
		t.Fatalf("post-save count = %d (%v)", n, err)
	}
}
