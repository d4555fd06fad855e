package table

import (
	"fmt"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// Crash-point oracle: run a fixed ingest workload against a fault
// injector, kill the filesystem at every single injection point, and
// prove recovery always lands on a serial prefix of the workload that
// covers at least the acknowledged operations — no torn state, no lost
// acks, no resurrections. The oracle runs once per seal policy
// (immediate, manual, auto — the log does not care when rows are
// sealed, and a table that never called EnableDeltaIngest must recover
// like the others). Unsharded only: a sharded commit is one log record
// per chunk, so a crash between chunks recovers part of a batch — see
// Batch.Commit; TestWALReplayRoundTrip covers sharded recovery.

// crashOp is one workload step. durable means a nil error is a
// durability acknowledgement: a commit, update or delete returns only
// after its record is synced, so recovery must preserve it. Compact
// and seal are maintenance: compaction is logged without a durability
// wait (prefix-ordering covers it) and sealing is not logged at all,
// so neither advances the acknowledged frontier.
type crashOp struct {
	name    string
	durable bool
	run     func(*Table) error
}

func crashOps() []crashOp {
	return []crashOp{
		{"commit-0-30", true, func(tb *Table) error { q, c := seqRows(0, 30); return commitQC(tb, q, c) }},
		{"commit-30-40", true, func(tb *Table) error { q, c := seqRows(30, 40); return commitQC(tb, q, c) }},
		{"update-qty-5", true, func(tb *Table) error { return Update(tb, "qty", 5, int64(1111)) }},
		{"update-city-12", true, func(tb *Table) error { return tb.UpdateString("city", 12, "Xanadu") }},
		{"delete-3", true, func(tb *Table) error { return tb.Delete(3) }},
		{"seal", false, func(tb *Table) error { tb.SealDelta(); return nil }},
		{"commit-70-30", true, func(tb *Table) error { q, c := seqRows(70, 30); return commitQC(tb, q, c) }},
		{"delete-80", true, func(tb *Table) error { return tb.Delete(80) }},
		{"compact", false, func(tb *Table) error { tb.Compact(); return nil }},
		{"commit-100-20", true, func(tb *Table) error { q, c := seqRows(100, 20); return commitQC(tb, q, c) }},
		{"delete-50", true, func(tb *Table) error { return tb.Delete(50) }},
	}
}

// sealPolicy is the axis the write-path oracles widen over: when the one
// write path moves committed rows into columnar segments.
type sealPolicy string

const (
	sealImmediate sealPolicy = "immediate" // EnableDeltaIngest never called
	sealManual    sealPolicy = "manual"    // EnableDeltaIngest(IngestOptions{})
	sealAuto      sealPolicy = "auto"      // EnableDeltaIngest(IngestOptions{AutoSeal: true})
)

var sealPolicies = []sealPolicy{sealImmediate, sealManual, sealAuto}

// apply puts tb under the policy; the table is closed with the test.
func (p sealPolicy) apply(t *testing.T, tb *Table) {
	t.Helper()
	if p != sealImmediate {
		if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: p == sealAuto}); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { tb.Close() })
}

// mkCrashSchema builds the workload's empty qty/city schema under the
// given seal policy, no WAL attached yet.
func mkCrashSchema(t *testing.T, policy sealPolicy) *Table {
	t.Helper()
	tb := mkQtyCity(t, 1)
	policy.apply(t, tb)
	return tb
}

// runCrashWorkload attaches a WAL through fs and applies ops until the
// first failure (fail-stop), returning the acknowledged frontier: the
// number of leading ops whose durability the caller was promised. Under
// the immediate policy an acknowledged commit is also an indexed one.
func runCrashWorkload(t *testing.T, fs faultfs.FS, ops []crashOp, policy sealPolicy) int {
	t.Helper()
	tb := mkCrashSchema(t, policy)
	if _, err := tb.EnableWAL(WALOptions{Dir: "wal", Policy: wal.SyncAlways, FS: fs}); err != nil {
		return 0
	}
	acked := 0
	for i, op := range ops {
		if err := op.run(tb); err != nil {
			return acked
		}
		if op.durable {
			acked = i + 1
		}
		if policy == sealImmediate && tb.DeltaRows() != 0 {
			t.Fatalf("op %s left %d rows buffered on a table that never enabled buffering", op.name, tb.DeltaRows())
		}
	}
	return acked
}

// TestCrashPointOracle is the exhaustive crash test: for every
// injection point k and both failure modes, the workload is killed at
// its k-th filesystem mutation, the machine "crashes" (volatile state
// discarded), and the recovered table must equal the serial replay of
// some workload prefix no shorter than the acknowledged one.
func TestCrashPointOracle(t *testing.T) {
	for _, policy := range sealPolicies {
		t.Run(fmt.Sprintf("policy=%s", policy), func(t *testing.T) { crashPointOracle(t, policy) })
	}
}

func crashPointOracle(t *testing.T, policy sealPolicy) {
	ops := crashOps()

	// Serial oracle: the table contents after every prefix of the
	// workload, computed WAL-free.
	states := make([]string, len(ops)+1)
	shadow := mkCrashSchema(t, policy)
	states[0] = dumpTable(t, shadow)
	for i, op := range ops {
		if err := op.run(shadow); err != nil {
			t.Fatalf("shadow op %s: %v", op.name, err)
		}
		states[i+1] = dumpTable(t, shadow)
	}

	// Unarmed pass: everything must succeed, and it tells us how many
	// injection points the workload has.
	mem := faultfs.NewMemFS()
	inj := faultfs.NewInjector(mem)
	if acked := runCrashWorkload(t, inj, ops, policy); acked != len(ops) {
		t.Fatalf("unarmed workload acked %d/%d ops", acked, len(ops))
	}
	n := inj.Ops()
	if n < 10 {
		t.Fatalf("workload crossed only %d injection points; the oracle is not covering the write path", n)
	}

	for _, mode := range []faultfs.Mode{faultfs.FailError, faultfs.FailTorn} {
		for k := 1; k <= n; k++ {
			mem := faultfs.NewMemFS()
			inj := faultfs.NewInjector(mem)
			inj.Arm(k, mode)
			acked := runCrashWorkload(t, inj, ops, policy)
			if acked == len(ops) {
				t.Fatalf("mode %d k=%d: armed workload acked every op without failing", mode, k)
			}
			mem.Crash()
			inj.Arm(0, mode) // disarm for recovery

			rec := mkCrashSchema(t, policy)
			rep, err := rec.EnableWAL(WALOptions{Dir: "wal", Policy: wal.SyncAlways, FS: inj})
			if err != nil {
				t.Fatalf("mode %d k=%d: recovery failed after %d acked ops: %v\ndurable:\n%s",
					mode, k, acked, err, mem.DumpDurable())
			}
			if policy == sealImmediate && rec.DeltaRows() != 0 {
				t.Fatalf("mode %d k=%d: recovery left %d rows buffered under the immediate policy", mode, k, rec.DeltaRows())
			}
			got := dumpTable(t, rec)
			match := -1
			for m := acked; m <= len(ops); m++ {
				if states[m] == got {
					match = m
					break
				}
			}
			if match < 0 {
				// Diagnose: is it a state before the acknowledged frontier
				// (lost ack) or no prefix at all (torn state)?
				for m := 0; m < acked; m++ {
					if states[m] == got {
						t.Fatalf("mode %d k=%d: LOST ACK: recovered state is prefix %d but %d ops were acknowledged (recovery %s)",
							mode, k, m, acked, rep)
					}
				}
				t.Fatalf("mode %d k=%d: TORN STATE: recovered table matches no serial prefix (acked %d, recovery %s)\ngot:\n%s",
					mode, k, acked, rep, got)
			}
		}
	}
}
