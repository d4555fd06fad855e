package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Sharded storage: TableOptions.Shards > 1 splits a table into N child
// shards, each a complete single-shard Table with its own RWMutex,
// segment lists, delta store + background sealer, and generation
// counters. Batch commits, point updates, seal installs and
// merge-compaction on different shards proceed fully concurrently — a
// seal install takes only the owning shard's write lock, so readers and
// writers on every other shard are never blocked by it. The parent
// Table carries no column storage of its own: its lock guards only the
// schema mirror (t.order), which changes solely under AddColumn / load.
//
// Every operation has one body, written once over the table's parts: a
// sharded table's shards, or the unsharded table itself at N = 1. The
// resolvers below are the only place the two shapes differ: parts and
// locate (the identity at N = 1) name what a body runs on; rlockParts
// and lockParts take every part's lock; quiesce stops a sharded table's
// commits for the admin operations that change every part's layout or
// row numbering, and takes nothing at N = 1, where the part's own lock
// is the table's lock; pinLayout, route and routed cut a batch into
// routed chunks — one chunk, the whole batch, at N = 1. Each body takes
// its part's own lock and merges what the parts report (sums, maxima,
// per-part entries); reads run through the execution frame (exec.go),
// which fans out over the same parts.
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
// mu orders before the commit tokens; the tokens order before any
// part's mu ("kid" is the class of a part's mu as seen from the table
// — a shard's, or at N = 1 the table's own, which no body then takes
// twice); the WAL serialization mutex walMu nests inside every table
// lock (commit: mu.R -> walMu; update/delete: mu -> walMu) and is never
// held while waiting for durability; a leaf plan's cacheMu nests
// innermost (taken under an execution's read lock, never holding
// anything else).
//
//imprintvet:lockorder sealMu,mu,tokens,kid,walMu,cacheMu
type shardState struct {
	nshards int
	segRows int
	kids    []*Table
	// tokens serialize commits per shard; they order after the parent
	// lock and before any kid lock (commit: parent.RLock -> token ->
	// kid lock inside kid.commitRows; admin: parent.Lock -> all tokens
	// -> kid locks).
	tokens []sync.Mutex
	// rows tracks each shard's total local rows (sealed + delta),
	// updated under the shard's token after a successful commit and
	// refreshed under all tokens after compaction/load. Routing reads it
	// without any lock.
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

// ---- resolvers ----

// initParts sets up what parts resolves: the table itself, and with
// n > 1 that many empty shards.
func (t *Table) initParts(n int) {
	t.self[0] = t
	if n > 1 {
		t.shard = newShardState(t.segRows, n)
		for c := 0; c < n; c++ {
			t.shard.kids = append(t.shard.kids, NewWithOptions(t.name, TableOptions{SegmentRows: t.segRows}))
		}
	}
}

// parts returns what every operation runs its one body over: a sharded
// table's shards, or the table itself (held in t.self, so resolving
// allocates nothing at N = 1).
func (t *Table) parts() []*Table {
	if sh := t.shard; sh != nil {
		return sh.kids
	}
	return t.self[:]
}

// locate maps a global row id to the part holding it and the part's
// local id for it — the table and the id itself at N = 1.
func (t *Table) locate(id int) (*Table, int) {
	if sh := t.shard; sh != nil {
		c, lid := sh.decode(id)
		return sh.kids[c], lid
	}
	return t, id
}

// walDir names part c's log directory: dir itself at N = 1, one
// subdirectory per shard otherwise.
func (t *Table) walDir(dir string, c int) string {
	if t.shard == nil {
		return dir
	}
	return fmt.Sprintf("%s/shard-%03d", dir, c)
}

// partErr names the shard a part's error came from; at N = 1 the
// error is the table's own.
func (t *Table) partErr(c int, err error) error {
	if t.shard == nil {
		return err
	}
	return fmt.Errorf("shard %d: %w", c, err)
}

// rlockParts read-locks everything a read holds for its duration — the
// table's own lock exactly once, plus every shard's lock in ascending
// order when sharded (sync.RWMutex is not reentrant: a second RLock
// behind a queued writer deadlocks) — and returns the parts.
//
//imprintvet:locks returns-held=mu.R,kid.R
func (t *Table) rlockParts() []*Table {
	t.mu.RLock()
	if sh := t.shard; sh != nil {
		for _, kid := range sh.kids {
			kid.mu.RLock()
		}
	}
	return t.parts()
}

//imprintvet:locks releases=kid.R,mu.R
func (t *Table) runlockParts() {
	if sh := t.shard; sh != nil {
		for c := len(sh.kids) - 1; c >= 0; c-- {
			sh.kids[c].mu.RUnlock()
		}
	}
	t.mu.RUnlock()
}

// lockParts write-locks every part in ascending order and returns them;
// an admin body that must see all parts at one instant takes it after
// quiesce.
//
//imprintvet:locks returns-held=kid
func (t *Table) lockParts() []*Table {
	kids := t.parts()
	for _, kid := range kids {
		kid.mu.Lock()
	}
	return kids
}

//imprintvet:locks releases=kid
func (t *Table) unlockParts() {
	kids := t.parts()
	for c := len(kids) - 1; c >= 0; c-- {
		kids[c].mu.Unlock()
	}
}

// quiesce stops a sharded table's commits for an operation that changes
// every part's layout or row numbering (Compact, Maintain, AddColumn,
// AddStringColumn, EnableWAL): the parent's write lock, then every
// commit token. At N = 1 it takes nothing: the part's own lock is the
// table's lock, which the body takes itself.
//
//imprintvet:locks returns-held=mu,tokens
func (t *Table) quiesce() {
	if sh := t.shard; sh != nil {
		t.mu.Lock()
		sh.lockTokens()
	}
}

// resume ends quiesce. It first re-seeds what the parent mirrors from
// its shards — the routing counters and the schema — which only the
// quiesced operations change.
//
//imprintvet:locks held=tokens releases=tokens,mu
func (t *Table) resume() {
	if sh := t.shard; sh != nil {
		sh.refreshRowsLocked()
		t.order = append([]string(nil), sh.kids[0].order...)
		sh.unlockTokens()
		t.mu.Unlock()
	}
}

// ---- commit routing ----

// pinLayout holds a sharded table's layout across one batch's chunks:
// the parent's read lock, so no schema change lands between two
// chunks, and the batch is checked against the layout before any chunk
// commits. At N = 1 it takes nothing: the one chunk's commit checks the
// batch under the part's own lock.
//
//imprintvet:locks returns-held=mu.R
func (t *Table) pinLayout(staged map[string]any) error {
	if t.shard == nil {
		return nil
	}
	t.mu.RLock()
	_, err := t.stagedVectors(staged)
	return err
}

//imprintvet:locks releases=mu.R
func (t *Table) unpinLayout() {
	if t.shard != nil {
		t.mu.RUnlock()
	}
}

// route picks the part the next chunk of a batch's rows [from, rows)
// lands on and returns it with its index and the chunk's end. A chunk
// never spans a shard's segment boundary, so it maps to one run of
// global ids; the shard's token is held until routed. At N = 1 the
// route is the whole batch, with no token.
//
//imprintvet:locks returns-held=tokens
func (t *Table) route(from, rows int) (*Table, int, int) {
	sh := t.shard
	if sh == nil {
		return t, 0, rows
	}
	c := sh.route()
	lrows := int(sh.rows[c].Load())
	return sh.kids[c], c, from + min(rows-from, t.segRows-lrows%t.segRows)
}

// routed ends the chunk route started on part c: the shard's routing
// counter advances by the n rows it committed and its token is
// released.
//
//imprintvet:locks releases=tokens
func (t *Table) routed(c, n int) {
	if sh := t.shard; sh != nil {
		sh.rows[c].Add(int64(n))
		sh.tokens[c].Unlock()
	}
}

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

// ---- columns ----

// shardDenseSplit partitions a dense global value slice into per-part
// local slices following the round-robin segment interleave (the slice
// itself at N = 1).
func shardDenseSplit[T any](vals []T, segRows, nparts int) [][]T {
	if nparts == 1 {
		return [][]T{vals}
	}
	parts := make([][]T, nparts)
	for g := 0; g*segRows < len(vals); g++ {
		lo := g * segRows
		hi := min(lo+segRows, len(vals))
		parts[g%nparts] = append(parts[g%nparts], vals[lo:hi]...)
	}
	return parts
}

// denseKidRows is the local row count part c holds when total global
// rows are packed densely (no holes): the sum of its owned global
// segments' fills.
func denseKidRows(total, segRows, nparts, c int) int {
	rows := 0
	for g := c; g*segRows < total; g += nparts {
		rows += min(total-g*segRows, segRows)
	}
	return rows
}

// columnValues materializes one column in ascending global-id order.
// local returns a part's values in local-id order (sealed, then
// buffered) under the part's read lock; global segment g is local
// segment g/N of part g%N, so the walk copies segment-sized runs
// round-robin and skips the holes concurrent commits may leave.
func columnValues[V any](t *Table, name string, local func(kid *Table, name string) ([]V, error)) ([]V, error) {
	kids := t.rlockParts()
	defer t.runlockParts()
	vals := make([][]V, len(kids))
	total := 0
	for c, kid := range kids {
		v, err := local(kid, name)
		if err != nil {
			return nil, err
		}
		vals[c], total = v, total+len(v)
	}
	out := make([]V, 0, total)
	for g := 0; len(out) < total; g++ {
		v, lo := vals[g%len(kids)], g/len(kids)*t.segRows
		if lo < len(v) {
			out = append(out, v[lo:min(lo+t.segRows, len(v))]...)
		}
	}
	return out, nil
}

// addColumn is the one body of AddColumn and AddStringColumn: with
// commits quiesced and every part write-locked it validates the column
// against the whole table, then flushes each part and installs the
// part's share of the values, built by build. A failed check changes
// nothing anywhere.
func addColumn[V any](t *Table, name string, vals []V, mode IndexMode, opts core.Options, build func(part []V) anyColumn) error {
	t.quiesce()
	defer t.resume()
	kids := t.lockParts()
	defer t.unlockParts()
	total := 0
	for _, kid := range kids {
		// Logged commit records carry the column layout they were framed
		// under; replaying them against another would be unsound. Detach
		// (Close) and re-enable after the change instead.
		if kid.delta.wal != nil {
			return fmt.Errorf("table %s: schema changes are not supported with a write-ahead log attached", t.name)
		}
		total += kid.totalRowsLocked()
	}
	if err := kids[0].checkNewColumn(name, len(vals), total, mode, opts); err != nil {
		return err
	}
	if len(kids[0].order) > 0 {
		// Splitting a flat value slice across shards is only well defined
		// when the global id space is packed (serial commits, or a fresh
		// or compacted table) — concurrent commits can leave holes that
		// no flat slice can address.
		for c, kid := range kids {
			if have, want := kid.totalRowsLocked(), denseKidRows(total, t.segRows, len(kids), c); have != want {
				return &ShardDenseError{Table: t.name, Column: name, Shard: c, Have: have, Want: want}
			}
		}
	}
	for c, part := range shardDenseSplit(vals, t.segRows, len(kids)) {
		// Layout changes flush first: the delta's row shape must match
		// the column order, and the new column's values must cover
		// buffered rows too.
		kids[c].flushAllLocked()
		kids[c].installColumn(name, build(part), len(part))
	}
	return nil
}
