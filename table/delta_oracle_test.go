package table

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Snapshot-isolation oracle for the LSM-style write path: one writer
// streams randomized atomic mutations (batch appends, updates, string
// updates, deletes) while the background sealer concurrently moves
// rows from the delta store into sealed segments and reader goroutines
// probe the table with single-call aggregates, ungrouped and grouped
// by turns. Every probe is one
// snapshot (one read-lock acquisition), so its result must equal the
// table's state after exactly k writer operations, for some k between
// the operations known applied before the probe and those possibly
// started by its end. Any torn batch, half-installed seal, or
// delta/segment double-count produces a tuple matching no version.
// Afterwards the same operation log replays serially into a fresh
// table and both images must serialize byte-identically.

// oraSummary is the exact state fingerprint probed by readers:
// count/sum/min/max over the live rows of the int64 column.
type oraSummary struct {
	count, sum, min, max int64
}

// oraOp is one recorded writer operation, replayable serially.
type oraOp struct {
	kind byte // 'a' append, 'u' update, 's' string update, 'd' delete
	id   int
	val  int64
	str  string
	rows []int64
	strs []string
}

// oraApply applies one operation to a table; mutations are atomic with
// respect to concurrent readers.
func oraApply(tb *Table, op oraOp) error {
	switch op.kind {
	case 'a':
		b := tb.NewBatch()
		if err := Append(b, "a", op.rows); err != nil {
			return err
		}
		if err := b.AppendStrings("s", op.strs); err != nil {
			return err
		}
		return b.Commit()
	case 'u':
		return Update(tb, "a", op.id, op.val)
	case 's':
		return tb.UpdateString("s", op.id, op.str)
	default:
		return tb.Delete(op.id)
	}
}

// oraMirror is the writer's serial model of the table.
type oraMirror struct {
	vals    []int64
	deleted []bool
}

func (m *oraMirror) apply(op oraOp) {
	switch op.kind {
	case 'a':
		m.vals = append(m.vals, op.rows...)
		m.deleted = append(m.deleted, make([]bool, len(op.rows))...)
	case 'u':
		m.vals[op.id] = op.val
	case 'd':
		m.deleted[op.id] = true
	}
}

func (m *oraMirror) summary() oraSummary {
	var s oraSummary
	first := true
	for i, v := range m.vals {
		if m.deleted[i] {
			continue
		}
		s.count++
		s.sum += v
		if first || v < s.min {
			s.min = v
		}
		if first || v > s.max {
			s.max = v
		}
		first = false
	}
	return s
}

func oraGen(rng *rand.Rand, total int) oraOp {
	switch r := rng.IntN(100); {
	case r < 50:
		n := 16 + rng.IntN(48)
		rows := make([]int64, n)
		strs := make([]string, n)
		for i := range rows {
			rows[i] = rng.Int64N(1_000_000)
			strs[i] = oraCities[rng.IntN(len(oraCities))]
		}
		return oraOp{kind: 'a', rows: rows, strs: strs}
	case r < 70:
		return oraOp{kind: 'u', id: rng.IntN(total), val: rng.Int64N(1_000_000)}
	case r < 80:
		return oraOp{kind: 's', id: rng.IntN(total), str: oraCities[rng.IntN(len(oraCities))]}
	default:
		return oraOp{kind: 'd', id: rng.IntN(total)}
	}
}

func mkLSMOracleTable(t *testing.T, vals []int64, strs []string, ingest bool) *Table {
	t.Helper()
	tb := NewWithOptions("oracle", TableOptions{SegmentRows: 128})
	if err := AddColumn(tb, "a", vals, Imprints, core.Options{Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 12}); err != nil {
		t.Fatal(err)
	}
	if ingest {
		if err := tb.EnableDeltaIngest(IngestOptions{AutoSeal: true}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// oraProbe takes the fingerprint with one ungrouped aggregate call.
func oraProbe(tb *Table, par int) (oraSummary, error) {
	res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).
		Aggregate(CountAll(), Sum("a"), Min("a"), Max("a"))
	if err != nil {
		return oraSummary{}, err
	}
	return oraSummary{count: res.At(0).Int, sum: res.At(1).Int, min: res.At(2).Int, max: res.At(3).Int}, nil
}

// oraGroupedProbe takes the same fingerprint through one grouped call
// (still one snapshot): the per-city groups — sealed slots plus delta
// partials — must add up to exactly one version too.
func oraGroupedProbe(tb *Table, par int) (oraSummary, error) {
	res, _, err := tb.Select().Options(SelectOptions{Parallelism: par}).
		GroupBy("s").Aggregate(CountAll(), Sum("a"), Min("a"), Max("a"))
	if err != nil {
		return oraSummary{}, err
	}
	var s oraSummary
	for i, g := range res.Groups {
		s.count += g.Aggs[0].Int
		s.sum += g.Aggs[1].Int
		if i == 0 || g.Aggs[2].Int < s.min {
			s.min = g.Aggs[2].Int
		}
		if i == 0 || g.Aggs[3].Int > s.max {
			s.max = g.Aggs[3].Int
		}
	}
	return s, nil
}

func TestDeltaSnapshotIsolationOracle(t *testing.T) {
	ops := 320
	if raceEnabled {
		ops = 120
	}
	for _, par := range []int{1, 2, 8} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			const n0 = 1024
			rng := rand.New(rand.NewPCG(0x04ac1e, uint64(par)))
			vals := make([]int64, n0)
			strs := make([]string, n0)
			for i := range vals {
				vals[i] = rng.Int64N(1_000_000)
				strs[i] = oraCities[rng.IntN(len(oraCities))]
			}
			dt := mkLSMOracleTable(t, vals, strs, true)

			// versions[k] is the exact summary after k operations; it is
			// written before hiV publishes k, and readers only index
			// versions up to a published hiV, so the slots they read are
			// complete. applied publishes k only after the table mutation
			// finished, bounding a probe's version from below.
			mirror := &oraMirror{vals: append([]int64(nil), vals...), deleted: make([]bool, n0)}
			versions := make([]oraSummary, ops+1)
			versions[0] = mirror.summary()
			opLog := make([]oraOp, 0, ops)
			var hiV, applied atomic.Int64
			done := make(chan struct{})

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for k := 1; k <= ops; k++ {
					op := oraGen(rng, len(mirror.vals))
					mirror.apply(op)
					versions[k] = mirror.summary()
					opLog = append(opLog, op)
					hiV.Store(int64(k))
					if err := oraApply(dt, op); err != nil {
						t.Errorf("writer op %d: %v", k, err)
						return
					}
					applied.Store(int64(k))
				}
			}()

			const readers = 3
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					probes := 0
					for {
						select {
						case <-done:
							if probes >= 25 {
								return
							}
						default:
						}
						probes++
						lo := applied.Load()
						var got oraSummary
						var err error
						if probes%2 == 0 {
							got, err = oraProbe(dt, par)
						} else {
							got, err = oraGroupedProbe(dt, par)
						}
						hi := hiV.Load()
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						ok := false
						for v := lo; v <= hi; v++ {
							if versions[v] == got {
								ok = true
								break
							}
						}
						if !ok {
							t.Errorf("reader %d: snapshot %+v matches no version in [%d,%d] — torn read",
								r, got, lo, hi)
							return
						}
					}
				}(r)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Serial replay: the same operations against a plain columnar
			// table must land on the same final state, byte-identical
			// after both images fold their deletes.
			sr := mkLSMOracleTable(t, vals, strs, false)
			for k, op := range opLog {
				if err := oraApply(sr, op); err != nil {
					t.Fatalf("replay op %d: %v", k, err)
				}
			}
			if err := dt.Close(); err != nil {
				t.Fatal(err)
			}
			if g, w := dt.Compact(), sr.Compact(); g != w {
				t.Fatalf("Compact removed %d rows, serial replay %d", g, w)
			}
			var live, serial bytes.Buffer
			if err := dt.Write(&live); err != nil {
				t.Fatal(err)
			}
			if err := sr.Write(&serial); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), serial.Bytes()) {
				t.Fatalf("concurrent image (%d bytes) differs from serial replay (%d bytes)",
					live.Len(), serial.Len())
			}
		})
	}
}
