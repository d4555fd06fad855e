package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestAppendEqualsBulkBuild(t *testing.T) {
	full := clusteredCol(10000, 1)
	for _, split := range []int{1, 7, 8, 4096, 9999} {
		// Build over the prefix, then append the rest.
		incr := Build(full[:split], Options{Seed: 3})
		incr.Append(full)
		bulk := Build(full, Options{Seed: 3})
		// Histograms differ (sampled from different prefixes), so compare
		// dictionary/vectors only when sampling saw the same data; what
		// MUST agree regardless is query results.
		rng := rand.New(rand.NewPCG(1, 2))
		for q := 0; q < 20; q++ {
			low := int64(rng.IntN(1000000))
			high := low + int64(rng.IntN(100000))
			got, _ := incr.RangeIDs(low, high, nil)
			want, _ := bulk.RangeIDs(low, high, nil)
			equalIDs(t, got, want, "append-vs-bulk")
		}
		if incr.Len() != bulk.Len() || incr.Cachelines() != bulk.Cachelines() {
			t.Fatalf("split %d: geometry mismatch", split)
		}
	}
}

func TestAppendSameHistogramIsIdentical(t *testing.T) {
	// When the histogram is shared, incremental append must produce a
	// bit-identical index to the bulk build.
	full := clusteredCol(20000, 2)
	bulk := Build(full, Options{Seed: 9})
	incr := BuildWithHistogram(full[:777], bulk.Histogram(), Options{Seed: 9})
	incr.Append(full[:12345])
	incr.Append(full)
	equalIndexes(t, incr, bulk, "append-shared-hist")
}

func TestAppendManySmallBatches(t *testing.T) {
	full := randomCol(3000, 500, 3)
	bulk := Build(full, Options{Seed: 4})
	incr := BuildWithHistogram(full[:1], bulk.Histogram(), Options{Seed: 4})
	for i := 1; i < len(full); i += 13 {
		end := i + 13
		if end > len(full) {
			end = len(full)
		}
		incr.Append(full[:end])
	}
	equalIndexes(t, incr, bulk, "small-batches")
}

func TestAppendShorterPanics(t *testing.T) {
	ix := Build(randomCol(100, 10, 5), Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Append(make([]int64, 50))
}

func TestAppendNeverTouchesExistingVectors(t *testing.T) {
	// Section 4.1's key claim. Snapshot the stored vectors, append, and
	// verify the prefix is unchanged.
	full := clusteredCol(20000, 7)
	ix := Build(full[:10000], Options{Seed: 5})
	before := make([]uint64, ix.StoredVectors())
	for i := range before {
		before[i] = ix.vecs.get(i)
	}
	dictBefore := append([]DictEntry(nil), ix.dict...)
	ix.Append(full)
	for i, v := range before {
		if ix.vecs.get(i) != v {
			t.Fatalf("stored vector %d changed after append", i)
		}
	}
	// All dictionary entries except possibly the last are untouched.
	for i := 0; i < len(dictBefore)-1; i++ {
		if ix.dict[i] != dictBefore[i] {
			t.Fatalf("dict entry %d changed after append", i)
		}
	}
}

func TestMarkUpdatedKeepsQueriesSound(t *testing.T) {
	col := randomCol(4000, 100000, 11)
	ix := Build(col, Options{Seed: 11})
	rng := rand.New(rand.NewPCG(6, 6))
	// Simulate in-place updates: change values, mark the imprint.
	for u := 0; u < 200; u++ {
		id := rng.IntN(len(col))
		nv := int64(rng.IntN(100000))
		col[id] = nv
		ix.MarkUpdated(id, nv)
	}
	for q := 0; q < 40; q++ {
		low := int64(rng.IntN(90000))
		high := low + int64(rng.IntN(10000))
		got, _ := ix.RangeIDs(low, high, nil)
		equalIDs(t, got, scanIDs(col, low, high), "after updates")
	}
	if ix.ExtraBits() == 0 {
		t.Error("no extra bits recorded despite 200 updates")
	}
}

func TestMarkUpdatedPendingTail(t *testing.T) {
	col := randomCol(1003, 1000, 13)
	ix := Build(col, Options{Seed: 13})
	// Update a value in the trailing partial cacheline.
	col[1002] = 999999 // outside the sampled domain: overflow bin
	ix.MarkUpdated(1002, 999999)
	got, _ := ix.RangeIDs(999998, 1000000, nil)
	equalIDs(t, got, []uint32{1002}, "pending update")
}

func TestMarkUpdatedOutOfRangePanics(t *testing.T) {
	ix := Build(randomCol(100, 10, 1), Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.MarkUpdated(100, 5)
}

func TestSaturationMonotone(t *testing.T) {
	col := clusteredCol(8000, 17)
	ix := Build(col, Options{Seed: 17})
	s0 := ix.Saturation()
	if s0 <= 0 || s0 >= 1 {
		t.Fatalf("initial saturation %v out of (0,1)", s0)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	prev := s0
	for round := 0; round < 5; round++ {
		for u := 0; u < 300; u++ {
			id := rng.IntN(len(col))
			ix.MarkUpdated(id, int64(rng.IntN(1000000)))
		}
		s := ix.Saturation()
		if s < prev {
			t.Fatalf("saturation decreased: %v -> %v", prev, s)
		}
		prev = s
	}
	if prev <= s0 {
		t.Errorf("saturation did not grow: %v -> %v", s0, prev)
	}
}

func TestNeedsRebuild(t *testing.T) {
	// Sorted data yields sparse imprints (1-2 bits each), so spraying
	// random update marks visibly saturates them.
	col := sortedCol(8000)
	ix := Build(col, Options{Seed: 1})
	if ix.NeedsRebuild(0.5, 0, 0.1) {
		t.Error("fresh index should not need rebuild")
	}
	// Delta-driven trigger.
	if !ix.NeedsRebuild(0.5, 800, 0.1) {
		t.Error("10% delta should trigger rebuild")
	}
	// Saturation-driven trigger: spray updates across all bins.
	rng := rand.New(rand.NewPCG(9, 9))
	for u := 0; u < 4000; u++ {
		ix.MarkUpdated(rng.IntN(len(col)), col[rng.IntN(len(col))])
	}
	if !ix.NeedsRebuild(0.3, 0, 0) {
		t.Errorf("saturation %v with %d extra bits should trigger rebuild",
			ix.Saturation(), ix.ExtraBits())
	}
	fresh := ix.Rebuild()
	if fresh.ExtraBits() != 0 {
		t.Error("rebuilt index carries extra bits")
	}
	if fresh.Saturation() >= ix.Saturation() {
		t.Errorf("rebuild did not reduce saturation: %v -> %v",
			ix.Saturation(), fresh.Saturation())
	}
}

// An index no update ever marked never needs a saturation rebuild, at
// any limit — however dense its imprints are by construction — and
// NeedsRebuild must say so from the ExtraBits counter alone: the
// background merge pass asks every segment of every column on every
// commit. One mark that adds a bit is what arms the heuristic.
func TestNeedsRebuildUntouchedIndex(t *testing.T) {
	limits := []float64{1e-9, 0.01, 0.3, 0.5, 0.99, 1}
	// A 3-value column saturates nothing but sets a large share of the
	// few bins it has; random data sets many bins per vector.
	for name, col := range map[string][]int64{
		"dense":     randomCol(6000, 1_000_000, 5),
		"clustered": clusteredCol(6000, 6),
		"three":     randomCol(6000, 3, 7),
	} {
		fresh := Build(col[:4000], Options{Seed: 2})
		grown := Build(col[:1000], Options{Seed: 2})
		for end := 1500; end <= len(col); end += 500 {
			grown.Append(col[:end])
		}
		for which, ix := range map[string]*Index[int64]{"fresh": fresh, "appended-to": grown} {
			if ix.ExtraBits() != 0 {
				t.Fatalf("%s %s: %d extra bits without an update", name, which, ix.ExtraBits())
			}
			for _, limit := range limits {
				if ix.NeedsRebuild(limit, 0, 0) {
					t.Errorf("%s %s: NeedsRebuild(%v) with saturation %v and no update", name, which, limit, ix.Saturation())
				}
			}
		}
		// Re-marking a value already covered adds no bit and arms nothing.
		grown.MarkUpdated(10, col[10])
		if grown.ExtraBits() != 0 || grown.NeedsRebuild(1e-9, 0, 0) {
			t.Errorf("%s: a no-op mark armed the heuristic (%d extra bits)", name, grown.ExtraBits())
		}
	}
	// The first added bit does, once saturation is past the limit.
	col := sortedCol(4000)
	ix := Build(col, Options{Seed: 3})
	ix.MarkUpdated(0, col[len(col)-1])
	if ix.ExtraBits() != 1 {
		t.Fatalf("ExtraBits = %d after one widening mark", ix.ExtraBits())
	}
	if sat := ix.Saturation(); !ix.NeedsRebuild(sat, 0, 0) || ix.NeedsRebuild(sat+0.01, 0, 0) {
		t.Errorf("one extra bit at saturation %v: limit %v -> %v, limit %v -> %v", sat,
			sat, ix.NeedsRebuild(sat, 0, 0), sat+0.01, ix.NeedsRebuild(sat+0.01, 0, 0))
	}
}

// Property: appending in two arbitrary chunks equals bulk building, for
// query purposes, when the histogram is shared.
func TestQuickAppendEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xadd))
		n := 16 + rng.IntN(2000)
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(rng.IntN(5000))
		}
		cut := 1 + rng.IntN(n-1)
		bulk := Build(col, Options{Seed: seed})
		incr := BuildWithHistogram(col[:cut], bulk.Histogram(), Options{Seed: seed})
		incr.Append(col)
		if incr.n != bulk.n || incr.committed != bulk.committed ||
			incr.pendingVec != bulk.pendingVec || incr.pendingCount != bulk.pendingCount {
			return false
		}
		if len(incr.dict) != len(bulk.dict) || incr.vecs.n != bulk.vecs.n {
			return false
		}
		for i := range incr.dict {
			if incr.dict[i] != bulk.dict[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
