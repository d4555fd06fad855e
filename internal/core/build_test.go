package core

import "testing"

func TestBuildEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]int64{}, Options{})
}

func TestBuildGeometry(t *testing.T) {
	col := randomCol(1000, 100, 1)
	ix := Build(col, Options{Seed: 1})
	if ix.Len() != 1000 {
		t.Errorf("Len = %d", ix.Len())
	}
	if ix.ValuesPerCacheline() != 8 { // int64: 64/8
		t.Errorf("ValuesPerCacheline = %d", ix.ValuesPerCacheline())
	}
	if ix.Cachelines() != 125 { // 1000/8, exact
		t.Errorf("Cachelines = %d", ix.Cachelines())
	}
	if _, cnt := ix.PendingVector(); cnt != 0 {
		t.Errorf("pending count = %d, want 0", cnt)
	}
}

func TestBuildPartialTail(t *testing.T) {
	col := randomCol(1003, 100, 2) // 125 full cachelines + 3 values
	ix := Build(col, Options{Seed: 1})
	if ix.Cachelines() != 126 {
		t.Errorf("Cachelines = %d, want 126", ix.Cachelines())
	}
	vec, cnt := ix.PendingVector()
	if cnt != 3 {
		t.Errorf("pending count = %d, want 3", cnt)
	}
	if vec == 0 {
		t.Error("pending vector empty despite 3 values")
	}
}

// Dictionary invariant: counts cover exactly the committed cachelines and
// the stored vector count matches what the entries imply.
func TestDictInvariants(t *testing.T) {
	cols := map[string][]int64{
		"sorted":    sortedCol(4096),
		"random":    randomCol(4096, 1000000, 3),
		"clustered": clusteredCol(4096, 4),
		"skewed":    skewedCol(4096, 5),
		"constant":  constantCol(4096),
		"tiny":      randomCol(5, 3, 6),
		"oneline":   randomCol(8, 100, 7),
	}
	for name, col := range cols {
		ix := Build(col, Options{Seed: 1})
		var covered, stored uint64
		for _, e := range ix.dict {
			if e.Count() == 0 {
				t.Errorf("%s: zero-count dictionary entry", name)
			}
			covered += uint64(e.Count())
			if e.Repeat() {
				stored++
			} else {
				stored += uint64(e.Count())
			}
		}
		if covered != uint64(ix.committed) {
			t.Errorf("%s: dict covers %d cachelines, committed %d", name, covered, ix.committed)
		}
		if stored != uint64(ix.StoredVectors()) {
			t.Errorf("%s: dict implies %d vectors, stored %d", name, stored, ix.StoredVectors())
		}
		wantCommitted := len(col) / ix.vpc
		if ix.committed != wantCommitted {
			t.Errorf("%s: committed %d, want %d", name, ix.committed, wantCommitted)
		}
	}
}

// The imprint of each cacheline must be exactly the OR of its values'
// bin bits (non-dense property of Section 2.2: one bit per occupied bin).
func TestImprintBitsMatchValues(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		col := clusteredCol(2048, seed)
		ix := Build(col, Options{Seed: seed})
		vpc := ix.vpc
		ix.decompress(func(cl int, vec uint64) bool {
			var want uint64
			for i := cl * vpc; i < (cl+1)*vpc; i++ {
				want |= 1 << uint(ix.hist.Bin(col[i]))
			}
			if vec != want {
				t.Fatalf("seed %d cacheline %d: vec %#x, want %#x", seed, cl, vec, want)
			}
			return true
		})
	}
}

func TestConstantColumnFullyCompresses(t *testing.T) {
	col := constantCol(80000) // 10000 cachelines, all identical imprints
	ix := Build(col, Options{Seed: 1})
	if got := ix.StoredVectors(); got != 1 {
		t.Errorf("StoredVectors = %d, want 1", got)
	}
	if got := ix.DictEntries(); got != 1 {
		t.Errorf("DictEntries = %d, want 1", got)
	}
	if r := ix.CompressionRatio(); r > 0.001 {
		t.Errorf("CompressionRatio = %v, want ~0", r)
	}
}

func TestSortedCompressesBetterThanRandom(t *testing.T) {
	n := 100000
	sorted := Build(sortedCol(n), Options{Seed: 1})
	random := Build(randomCol(n, 1<<40, 2), Options{Seed: 1})
	if sorted.CompressionRatio() >= random.CompressionRatio() {
		t.Errorf("sorted ratio %v >= random ratio %v",
			sorted.CompressionRatio(), random.CompressionRatio())
	}
	if sorted.SizeBytes() >= random.SizeBytes() {
		t.Errorf("sorted size %d >= random size %d", sorted.SizeBytes(), random.SizeBytes())
	}
}

func TestLowCardinalityNarrowVectors(t *testing.T) {
	col := randomCol(10000, 5, 3) // 5 distinct values -> 8 bins -> 1-byte vectors
	ix := Build(col, Options{Seed: 1})
	if ix.Bins() != 8 {
		t.Fatalf("Bins = %d, want 8", ix.Bins())
	}
	if ix.vecs.width != 8 {
		t.Fatalf("vector width = %d bits, want 8", ix.vecs.width)
	}
	// A 64-bin imprint over the same data would be 8x larger in vectors.
	wide := Build(col, Options{Seed: 1, SampleSize: 4}) // tiny sample can't see all values
	_ = wide
}

func TestMaxBinsClamp(t *testing.T) {
	col := randomCol(10000, 1000000, 4)
	ix := Build(col, Options{Seed: 1, MaxBins: 16})
	if ix.Bins() != 16 {
		t.Fatalf("Bins = %d, want 16", ix.Bins())
	}
	// Queries remain correct under the clamp.
	got, _ := ix.RangeIDs(1000, 500000, nil)
	equalIDs(t, got, scanIDs(col, 1000, 500000), "clamped")
}

func TestOptionValuesPerCacheline(t *testing.T) {
	col := randomCol(1024, 100, 5)
	ix := Build(col, Options{Seed: 1, ValuesPerCacheline: 32})
	if ix.ValuesPerCacheline() != 32 {
		t.Fatalf("vpc = %d", ix.ValuesPerCacheline())
	}
	if ix.Cachelines() != 32 {
		t.Fatalf("Cachelines = %d, want 32", ix.Cachelines())
	}
	got, _ := ix.RangeIDs(10, 50, nil)
	equalIDs(t, got, scanIDs(col, 10, 50), "vpc32")
}

func TestVecstoreWidths(t *testing.T) {
	for _, w := range []int{8, 16, 32, 64} {
		s := newVecstore(w)
		vals := []uint64{1, 0x7f, 0xff}
		if w == 64 {
			vals = append(vals, 1<<63)
		}
		for _, v := range vals {
			s.append(v & s.mask)
		}
		for i, v := range vals {
			if got := s.get(i); got != v&s.mask {
				t.Errorf("width %d: get(%d) = %#x, want %#x", w, i, got, v&s.mask)
			}
		}
		if s.len() != len(vals) {
			t.Errorf("width %d: len = %d", w, s.len())
		}
	}
}

func TestVecstoreSetAndOverflowPanic(t *testing.T) {
	s := newVecstore(8)
	s.append(0x0f)
	s.append(0xf0)
	s.set(0, 0xaa)
	if s.get(0) != 0xaa || s.get(1) != 0xf0 {
		t.Errorf("set corrupted neighbors: %#x %#x", s.get(0), s.get(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	s.append(0x100)
}

func TestVecstorePacking(t *testing.T) {
	s := newVecstore(8)
	for i := 0; i < 16; i++ {
		s.append(uint64(i + 1))
	}
	// 16 8-bit vectors must occupy exactly 2 words.
	if got := s.sizeBytes(); got != 16 {
		t.Errorf("sizeBytes = %d, want 16", got)
	}
}

func TestDictEntryEncoding(t *testing.T) {
	e := makeEntry(12345, true)
	if e.Count() != 12345 || !e.Repeat() {
		t.Errorf("entry roundtrip failed: %v", e)
	}
	e = makeEntry(MaxCount, false)
	if e.Count() != MaxCount || e.Repeat() {
		t.Errorf("max count roundtrip failed: %v", e)
	}
	if e.String() != "16777215×distinct" {
		t.Errorf("String = %q", e.String())
	}
	if makeEntry(3, true).String() != "3×repeat" {
		t.Errorf("repeat String = %q", makeEntry(3, true).String())
	}
}

func TestMakeEntryOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	makeEntry(MaxCount+1, false)
}

// The paper's Figure 2 walkthrough: 7 distinct vectors, then 13 identical
// cachelines, then 3 distinct vectors -> dictionary (7,distinct),
// (13,repeat), (3,distinct) with 11 stored vectors.
func TestFigure2Walkthrough(t *testing.T) {
	ix := &Index[int64]{vecs: newVecstore(16), vpc: 8}
	for i := 0; i < 7; i++ {
		ix.commit(uint64(0x100 + i)) // 7 distinct
	}
	for i := 0; i < 13; i++ {
		ix.commit(0x2aaa) // 13 identical
	}
	for i := 0; i < 3; i++ {
		ix.commit(uint64(0x300 + i)) // 3 distinct
	}
	if len(ix.dict) != 3 {
		t.Fatalf("dict entries = %d, want 3 (%v)", len(ix.dict), ix.dict)
	}
	if ix.dict[0] != makeEntry(7, false) {
		t.Errorf("dict[0] = %v, want 7×distinct", ix.dict[0])
	}
	if ix.dict[1] != makeEntry(13, true) {
		t.Errorf("dict[1] = %v, want 13×repeat", ix.dict[1])
	}
	if ix.dict[2] != makeEntry(3, false) {
		t.Errorf("dict[2] = %v, want 3×distinct", ix.dict[2])
	}
	if ix.StoredVectors() != 11 {
		t.Errorf("stored vectors = %d, want 11", ix.StoredVectors())
	}
	if ix.committed != 23 {
		t.Errorf("committed = %d, want 23", ix.committed)
	}
}

func TestDecompressRoundTrip(t *testing.T) {
	col := clusteredCol(4096, 9)
	ix := Build(col, Options{Seed: 9})
	// Reconstruct per-cacheline vectors directly from values.
	var want []uint64
	vpc := ix.vpc
	for cl := 0; cl < ix.committed; cl++ {
		var v uint64
		for i := cl * vpc; i < (cl+1)*vpc; i++ {
			v |= 1 << uint(ix.hist.Bin(col[i]))
		}
		want = append(want, v)
	}
	var got []uint64
	ix.decompress(func(_ int, vec uint64) bool {
		got = append(got, vec)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("decompress yielded %d vectors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vector %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestDecompressEarlyStop(t *testing.T) {
	col := randomCol(800, 1000, 10)
	ix := Build(col, Options{Seed: 10})
	n := 0
	ix.decompress(func(_ int, _ uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d vectors", n)
	}
}

func TestBuildDeterministic(t *testing.T) {
	col := clusteredCol(10000, 11)
	a := Build(col, Options{Seed: 42})
	b := Build(col, Options{Seed: 42})
	equalIndexes(t, a, b, "deterministic")
}

func TestCompressionRatioEmptyishIndex(t *testing.T) {
	// Fewer values than one cacheline: everything pending, ratio defined.
	ix := Build([]int64{1, 2, 3}, Options{Seed: 1})
	if got := ix.CompressionRatio(); got != 1 {
		t.Errorf("CompressionRatio = %v, want 1", got)
	}
	if ix.Cachelines() != 1 {
		t.Errorf("Cachelines = %d, want 1", ix.Cachelines())
	}
}
