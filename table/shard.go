package table

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/coltype"
)

// Sharded storage (the query side lives in exec.go, which executes any
// table as N parts — a sharded table's shards, or the unsharded table
// itself at N = 1): TableOptions.Shards > 1 splits a table into N child
// shards, each a complete single-shard Table with its own RWMutex,
// segment lists, delta store + background sealer, and generation
// counters. Batch commits, point updates, seal installs and
// merge-compaction on different shards proceed fully concurrently — a
// seal install takes only the owning shard's write lock, so readers and
// writers on every other shard are never blocked by it. The parent
// Table carries no column storage of its own: its lock guards only the
// schema mirror (t.order), which changes solely under AddColumn / load.
//
// Global row ids interleave the shards' segments round-robin: global
// segment g lives on shard g%N as that shard's local segment g/N, so
// global id = ((lid/S)*N + c)*S + lid%S for shard c, local id lid,
// and S = SegmentRows. Serial commits fill global segments in order,
// producing exactly the ids an unsharded table would assign — which is
// what lets the oracle pin sharded results byte-identical at every
// shard count. Concurrent commits may leave transient holes in the
// global id space (shards fill at independent rates), and independent
// sealers leave one shard's rows buffered while a neighbour's later
// segments are sealed; the execution frame enumerates global segments
// arithmetically, skips the holes, and merges sealed and buffered rows
// in global-segment order.
//
// Commit routing is lock-free with respect to the shards themselves:
// a committer try-locks the per-shard commit tokens, picks the
// acquired shard whose next free global id is lowest, and appends a
// chunk bounded by that shard's segment boundary. Shard fill levels
// are tracked in per-shard atomic counters so routing never touches a
// shard's RWMutex (which a seal install may hold).
//
// The package-wide lock order (checked by imprintvet's locksafe):
// a sealer's sealMu orders before its table's mu; the parent table's
// mu orders before the commit tokens; the tokens order before any kid
// shard's mu ("kid" is the class of a child Table's mu as seen from
// the parent); the WAL serialization mutex walMu nests inside every
// table lock (commit: mu.R -> walMu; update/delete: mu -> walMu) and
// is never held while waiting for durability; a leaf plan's cacheMu
// nests innermost (taken under an execution's read lock, never
// holding anything else).
//
//imprintvet:lockorder sealMu,mu,tokens,kid,walMu,cacheMu
type shardState struct {
	nshards int
	segRows int
	kids    []*Table
	// tokens serialize commits per shard; they order after the parent
	// lock and before any kid lock (commit: parent.RLock -> token ->
	// kid lock inside kid.Commit; admin: parent.Lock -> all tokens ->
	// kid locks inside kid calls).
	tokens []sync.Mutex
	// rows tracks each shard's total local rows (sealed + delta),
	// updated under the shard's token after a successful commit and
	// refreshed under all tokens after compaction/load. Routing and
	// Rows() read it without any lock.
	rows []atomic.Int64
}

func newShardState(segRows, nshards int) *shardState {
	return &shardState{
		nshards: nshards,
		segRows: segRows,
		tokens:  make([]sync.Mutex, nshards),
		rows:    make([]atomic.Int64, nshards),
	}
}

// gidOf maps a shard's local row id to the global id space: local
// segment lid/S of shard c is global segment (lid/S)*N + c.
func (sh *shardState) gidOf(c, lid int) int {
	return globalID(c, lid, sh.nshards, sh.segRows)
}

// globalID is the round-robin segment interleave; with one shard it is
// the identity, which is how an unsharded table executes as the frame's
// single part.
func globalID(c, lid, nshards, segRows int) int {
	return ((lid/segRows)*nshards+c)*segRows + lid%segRows
}

// decode maps a global row id to its owning shard and local id.
// Negative ids route to shard 0 unchanged so the kid's range check
// reports them.
func (sh *shardState) decode(gid int) (c, lid int) {
	if gid < 0 {
		return 0, gid
	}
	s := sh.segRows
	gseg := gid / s
	return gseg % sh.nshards, (gseg/sh.nshards)*s + gid%s
}

// totalRows sums the per-shard row counters (sealed + buffered).
func (sh *shardState) totalRows() int {
	n := 0
	for c := range sh.rows {
		n += int(sh.rows[c].Load())
	}
	return n
}

// lockTokens acquires every commit token in shard order (admin
// operations quiesce commits this way); unlockTokens releases them.
//
//imprintvet:locks returns-held=tokens
func (sh *shardState) lockTokens() {
	for c := range sh.tokens {
		sh.tokens[c].Lock()
	}
}

//imprintvet:locks releases=tokens
func (sh *shardState) unlockTokens() {
	for c := len(sh.tokens) - 1; c >= 0; c-- {
		sh.tokens[c].Unlock()
	}
}

// refreshRowsLocked re-seeds the routing counters from the kids'
// actual row counts; callers hold every commit token.
//
//imprintvet:locks held=tokens
func (sh *shardState) refreshRowsLocked() {
	for c, kid := range sh.kids {
		sh.rows[c].Store(int64(kid.Rows()))
	}
}

// shardRLock read-locks every kid in ascending shard order (query
// executions hold all of them for the duration of the merge, exactly
// as an unsharded execution holds its one table lock).
//
//imprintvet:locks returns-held=kid.R
func (t *Table) shardRLock() {
	for _, kid := range t.shard.kids {
		kid.mu.RLock()
	}
}

//imprintvet:locks releases=kid.R
func (t *Table) shardRUnlock() {
	kids := t.shard.kids
	for i := len(kids) - 1; i >= 0; i-- {
		kids[i].mu.RUnlock()
	}
}

// ---- commit routing ----

// route picks the shard the next commit chunk lands on and returns
// with that shard's token held. It try-locks every free token and
// keeps the acquired shard whose next free global id is lowest — so
// a lone writer fills global segments in exactly unsharded order,
// while concurrent writers spread across whatever shards are free.
//
//imprintvet:locks returns-held=tokens
func (sh *shardState) route() int {
	best := -1
	bestGid := 0
	for c := range sh.tokens {
		if !sh.tokens[c].TryLock() {
			continue
		}
		gid := sh.gidOf(c, int(sh.rows[c].Load()))
		if best < 0 || gid < bestGid {
			if best >= 0 {
				sh.tokens[best].Unlock()
			}
			best, bestGid = c, gid
		} else {
			sh.tokens[c].Unlock()
		}
	}
	if best >= 0 {
		return best
	}
	// Every token is busy: block on the shard that currently looks
	// least filled. The peek is racy, but that only affects placement
	// quality, never correctness.
	best, bestGid = 0, sh.gidOf(0, int(sh.rows[0].Load()))
	for c := 1; c < sh.nshards; c++ {
		if gid := sh.gidOf(c, int(sh.rows[c].Load())); gid < bestGid {
			best, bestGid = c, gid
		}
	}
	sh.tokens[best].Lock()
	return best
}

// commitSharded routes rows [0, rows) of a staged batch across the
// shards in segment-bounded chunks, each committed through its shard's
// own write path (commitRows) under that shard's seal policy. Rows land
// contiguously within each chunk; a chunk never spans a shard's segment
// boundary, so every chunk maps to one run of global ids. The parent
// read lock keeps the schema stable; it is never write-held by seals, so
// commits on one shard proceed while another shard's sealer installs.
// A batch that misses a column is refused before any chunk is routed.
// A chunk can otherwise only fail on its shard's write-ahead log (the
// log is fail-stop); chunks committed before it stay committed — and
// durable — so the error then means "rows [0, k) are in, the rest are
// not", not "nothing was applied".
func (t *Table) commitSharded(staged map[string]any, rows int) error {
	sh := t.shard
	t.mu.RLock()
	defer t.mu.RUnlock()
	if _, err := t.stagedVectors(staged); err != nil {
		return err
	}
	for from := 0; from < rows; {
		c := sh.route()
		lrows := int(sh.rows[c].Load())
		n := min(rows-from, t.segRows-lrows%t.segRows)
		if err := sh.commitChunk(c, staged, from, from+n); err != nil {
			sh.tokens[c].Unlock()
			return err
		}
		sh.rows[c].Add(int64(n))
		sh.tokens[c].Unlock()
		from += n
	}
	return nil
}

// commitChunk commits rows [from, to) of the staged batch on shard c
// through that shard's write path; callers hold shard c's token.
//
//imprintvet:locks held=tokens acquires=kid
func (sh *shardState) commitChunk(c int, staged map[string]any, from, to int) error {
	return sh.kids[c].commitRows(staged, from, to)
}

// ---- columns ----

// shardDenseSplit partitions a dense global value slice into per-shard
// local slices following the round-robin segment interleave.
func shardDenseSplit[T any](vals []T, segRows, nshards int) [][]T {
	parts := make([][]T, nshards)
	for g := 0; g*segRows < len(vals); g++ {
		lo := g * segRows
		hi := min(lo+segRows, len(vals))
		parts[g%nshards] = append(parts[g%nshards], vals[lo:hi]...)
	}
	return parts
}

// denseKidRows is the local row count shard c holds when total global
// rows are packed densely (no holes): the sum of its owned global
// segments' fills.
func denseKidRows(total, segRows, nshards, c int) int {
	rows := 0
	for g := c; g*segRows < total; g += nshards {
		rows += min(total-g*segRows, segRows)
	}
	return rows
}

// checkShardDense validates a new column definition against the
// sharded layout; callers hold the parent write lock and all tokens.
// Splitting a flat value slice across shards is only well defined when
// the global id space is packed (serial commits, or a fresh/compacted
// table) — concurrent commits can leave holes that no flat slice can
// address.
func (t *Table) checkShardDense(name string, nvals int) error {
	sh := t.shard
	for _, have := range t.order {
		if have == name {
			return fmt.Errorf("table %s: column %q already exists", t.name, name)
		}
	}
	total := 0
	for _, kid := range sh.kids {
		total += kid.Rows()
	}
	if len(t.order) == 0 {
		// First column: the kids are empty and the install seeds each
		// with its dense split — nothing to validate yet.
		return nil
	}
	if nvals != total {
		return fmt.Errorf("table %s: column %q has %d rows, table has %d",
			t.name, name, nvals, total)
	}
	for c, kid := range sh.kids {
		if want := denseKidRows(total, t.segRows, sh.nshards, c); kid.Rows() != want {
			return &ShardDenseError{Table: t.name, Column: name, Shard: c, Have: kid.Rows(), Want: want}
		}
	}
	return nil
}

// addColumnSharded splits the dense global values across the shards
// and installs the column on each; callers own nothing (it locks the
// parent and quiesces commits itself).
func addColumnSharded[V any](t *Table, name string, vals []V, install func(kid *Table, part []V) error) error {
	sh := t.shard
	t.mu.Lock()
	defer t.mu.Unlock()
	sh.lockTokens()
	defer sh.unlockTokens()
	if len(sh.kids) > 0 {
		// The kid check would also catch this, but only after earlier
		// kids applied the change; refuse up front so no shard diverges.
		if sh.kids[0].walPtr() != nil {
			return fmt.Errorf("table %s: schema changes are not supported with a write-ahead log attached", t.name)
		}
	}
	if err := t.checkShardDense(name, len(vals)); err != nil {
		return err
	}
	parts := shardDenseSplit(vals, t.segRows, sh.nshards)
	for c, kid := range sh.kids {
		if err := install(kid, parts[c]); err != nil {
			// The checks a kid install runs are identical across kids and
			// checkShardDense pre-validated counts, so a failure here hits
			// the first kid before anything was applied anywhere.
			return err
		}
	}
	t.order = append(t.order, name)
	sh.refreshRowsLocked()
	return nil
}

// shardColumn materializes a typed column of a sharded table in
// ascending global-id order (sealed segments and buffered delta rows
// of every shard, merged by id).
func shardColumn[V coltype.Value](t *Table, name string) ([]V, error) {
	sh := t.shard
	t.shardRLock()
	defer t.shardRUnlock()
	type ent struct {
		gid int
		v   V
	}
	var out []ent
	for c, kid := range sh.kids {
		cs, err := typedCol[V](kid, name)
		if err != nil {
			return nil, err
		}
		lid := 0
		for _, s := range cs.segs {
			for _, v := range s.vals {
				out = append(out, ent{sh.gidOf(c, lid), v})
				lid++
			}
		}
		view := kid.deltaViewLocked()
		for i, v := range cs.deltaValues(nil, view) {
			out = append(out, ent{sh.gidOf(c, view.Base+i), v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gid < out[j].gid })
	vals := make([]V, len(out))
	for i, e := range out {
		vals[i] = e.v
	}
	return vals, nil
}

// shardStringColumn is shardColumn for dictionary-encoded columns.
func (t *Table) shardStringColumn(name string) ([]string, error) {
	sh := t.shard
	t.shardRLock()
	defer t.shardRUnlock()
	type ent struct {
		gid int
		v   string
	}
	var out []ent
	for c, kid := range sh.kids {
		cs, err := strCol(kid, name)
		if err != nil {
			return nil, err
		}
		for lid, v := range cs.decodeAll() {
			out = append(out, ent{sh.gidOf(c, lid), v})
		}
		view := kid.deltaViewLocked()
		for i, v := range cs.deltaValues(nil, view) {
			out = append(out, ent{sh.gidOf(c, view.Base+i), v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gid < out[j].gid })
	vals := make([]string, len(out))
	for i, e := range out {
		vals[i] = e.v
	}
	return vals, nil
}

// ---- administration ----

// shardIndexStats merges one column's index stats across shards
// (saturation re-weighted by indexed segment counts).
func (t *Table) shardIndexStats(name string) (ColumnIndexStats, error) {
	var st ColumnIndexStats
	var sat float64
	for _, kid := range t.shard.kids {
		ks, err := kid.IndexStats(name)
		if err != nil {
			return ColumnIndexStats{}, err
		}
		st.Segments += ks.Segments
		st.IndexedSegments += ks.IndexedSegments
		st.StoredVectors += ks.StoredVectors
		st.DictEntries += ks.DictEntries
		st.SizeBytes += ks.SizeBytes
		sat += ks.Saturation * float64(ks.IndexedSegments)
	}
	if st.IndexedSegments > 0 {
		st.Saturation = sat / float64(st.IndexedSegments)
	}
	return st, nil
}

// shardCompact compacts every shard with commits quiesced. Each shard
// renumbers its surviving rows locally (no cross-shard id exchange, no
// global stop-the-world beyond the commit tokens), so global ids
// change exactly as each shard's local ids do.
func (t *Table) shardCompact() int {
	sh := t.shard
	t.mu.Lock()
	defer t.mu.Unlock()
	sh.lockTokens()
	defer sh.unlockTokens()
	removed := 0
	for _, kid := range sh.kids {
		removed += kid.Compact()
	}
	sh.refreshRowsLocked()
	return removed
}

// shardMaintain runs the maintenance pass shard by shard and merges
// the reports; commits are quiesced so a triggered compaction cannot
// race the routing counters.
func (t *Table) shardMaintain(opts MaintainOptions) MaintenanceReport {
	sh := t.shard
	sh.lockTokens()
	defer sh.unlockTokens()
	var rep MaintenanceReport
	seen := map[string]bool{}
	for _, kid := range sh.kids {
		kr := kid.Maintain(opts)
		for _, name := range kr.Rebuilt {
			if !seen[name] {
				seen[name] = true
				rep.Rebuilt = append(rep.Rebuilt, name)
			}
		}
		rep.SegmentsRebuilt += kr.SegmentsRebuilt
		rep.Compacted = rep.Compacted || kr.Compacted
		rep.RowsRemoved += kr.RowsRemoved
		rep.DeltaRows += kr.DeltaRows
		rep.MergeBacklog += kr.MergeBacklog
		rep.SealRetries += kr.SealRetries
		rep.SealBackoff = max(rep.SealBackoff, kr.SealBackoff)
	}
	sort.Strings(rep.Rebuilt)
	sh.refreshRowsLocked()
	return rep
}

// ---- ingest control ----

func (t *Table) shardIngestStats() IngestStats {
	var st IngestStats
	perShard := make([]int, len(t.shard.kids))
	for c, kid := range t.shard.kids {
		ks := kid.IngestStats()
		st.Enabled = st.Enabled || ks.Enabled
		st.DeltaRows += ks.DeltaRows
		st.Seals += ks.Seals
		st.SealedSegments += ks.SealedSegments
		st.SealedRows += ks.SealedRows
		st.SealRetries += ks.SealRetries
		st.Flushes += ks.Flushes
		st.FlushedRows += ks.FlushedRows
		st.Merges += ks.Merges
		st.MergeBacklog += ks.MergeBacklog
		st.WALEnabled = st.WALEnabled || ks.WALEnabled
		if st.WALError == "" {
			st.WALError = ks.WALError
		}
		if ks.Recovery != nil {
			if st.Recovery == nil {
				st.Recovery = &RecoveryReport{}
			}
			st.Recovery.add(ks.Recovery)
		}
		perShard[c] = ks.DeltaRows
	}
	st.ShardDeltaRows = perShard
	return st
}
