package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/coltype"
)

// repeatHeavyCol is a column whose imprint compresses: long constant
// stretches (one stored vector each) broken by short noisy ones.
func repeatHeavyCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x5e9))
	col := make([]int64, n)
	for i := 0; i < n; {
		run := 64 + rng.IntN(4096)
		v := rng.Int64N(1_000_000)
		noisy := rng.IntN(4) == 0
		for end := min(n, i+run); i < end; i++ {
			col[i] = v
			if noisy {
				col[i] = rng.Int64N(1_000_000)
			}
		}
	}
	return col
}

// TestRunsIntoUnitOne pins the paper's cacheline probe as the unit-1
// case of the shared walk: every cacheline whose rows hold a qualifying
// value is a candidate, exact runs hold only qualifying values, and the
// three cacheline counters partition the column.
func TestRunsIntoUnitOne(t *testing.T) {
	for name, col := range map[string][]int64{
		"uniform":     randomCol(10_003, 1_000_000, 1),
		"clustered":   clusteredCol(10_003, 2),
		"repeatHeavy": repeatHeavyCol(10_003, 3),
	} {
		ix := Build(col, Options{Seed: 9})
		vpc := ix.ValuesPerCacheline()
		low, high := int64(200_000), int64(400_000)
		runs, st := ix.RangeCachelines(low, high)
		covered := map[int]bool{}
		for _, r := range runs {
			for cl := int(r.Start); cl < int(r.Start+r.Count); cl++ {
				covered[cl] = r.Exact
			}
		}
		for id, v := range col {
			exact, cand := covered[id/vpc]
			if hit := v >= low && v < high; hit && !cand {
				t.Fatalf("%s: row %d qualifies but cacheline %d is no candidate", name, id, id/vpc)
			} else if !hit && exact {
				t.Fatalf("%s: row %d fails but cacheline %d is exact", name, id, id/vpc)
			}
		}
		if got := st.CachelinesExact + st.CachelinesScanned; got != TotalCachelines(runs) {
			t.Errorf("%s: %d candidate cachelines counted, runs cover %d", name, got, TotalCachelines(runs))
		}
		if got := st.CachelinesExact + st.CachelinesScanned + st.CachelinesSkipped; got != uint64(ix.Cachelines()) {
			t.Errorf("%s: counters cover %d cachelines of %d", name, got, ix.Cachelines())
		}
	}
}

// TestResidualShare pins the access-path sample on the shapes it must
// tell apart: scattered values leave every block to the residual check
// once the predicate spans a few bins, clustered and compressible
// columns do not, and the share is a pure function of its inputs.
func TestResidualShare(t *testing.T) {
	uniform := Build(randomCol(1<<16, 1_000_000, 4), Options{Seed: 1})
	clustered := Build(sortedCol(1<<16), Options{Seed: 2})
	mostlyConstant := make([]int64, 1<<16)
	noise := randomCol(1<<10, 1_000_000, 5)
	copy(mostlyConstant[len(mostlyConstant)-len(noise):], noise)
	compressed := Build(mostlyConstant, Options{Seed: 3})

	if got := uniform.ResidualShare(uniform.RangeMasks(450_000, 550_000), 8); got < 0.99 {
		t.Errorf("uniform 10%% range: residual %.3f, want ~1 (every block holds a qualifying and a failing value)", got)
	}
	if got := uniform.ResidualShare(uniform.PointMasks(123_456), 8); got < 0.4 || got > 0.85 {
		t.Errorf("uniform point: residual %.3f, want ~0.63 (a 64-row block misses one of 64 bins with p = 0.37)", got)
	}
	if got := clustered.ResidualShare(clustered.RangeMasks(30_000, 90_000), 8); got > 0.1 {
		t.Errorf("sorted 30%% range: residual %.3f, want ~0 (blocks are skipped or exact but for two borders)", got)
	}
	// All but the first sampled window sit in the noisy tail, yet the tail
	// is 1/64 of the column: the compression ratio scales the share down.
	if got := compressed.ResidualShare(compressed.RangeMasks(100_000, 900_000), 8); got > 0.05 {
		t.Errorf("mostly-constant column: residual %.3f, want <= 1/64-ish", got)
	}
	m := uniform.RangeMasks(1, 999_999)
	if a, b := uniform.ResidualShare(m, 8), uniform.ResidualShare(m, 8); a != b {
		t.Errorf("sample is not deterministic: %v then %v", a, b)
	}
	tiny := Build([]int64{1, 2, 3}, Options{})
	if got := tiny.ResidualShare(tiny.RangeMasks(0, 10), 8); got != 0 {
		t.Errorf("index with no stored vector: residual %v, want 0", got)
	}
}

// TestVecstoreBulkReads holds the loops that read vectors in bulk —
// verdicts (the probe) and union (the sample) — to get, at every stored
// width: ragged calls at offsets that straddle backing words, and full
// 64-vector calls (the word-at-a-time loops) at every offset, aligned to
// a backing word or not, for a mask with inner bins and for one with
// none (equality: the exactness bitmap is skipped).
func TestVecstoreBulkReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 16))
	for _, width := range []int{8, 16, 32, 64} {
		vs := newVecstore(width)
		inner := rng.Uint64() & rng.Uint64() & vs.mask
		for i := 0; i < 300; i++ {
			vec := rng.Uint64() & rng.Uint64() & vs.mask // sparse-ish vectors
			if i%3 == 0 {
				vec &= inner // some exact ones at every width
			}
			vs.append(vec)
		}
		masks := [][2]uint64{
			{rng.Uint64() & vs.mask, inner},
			{rng.Uint64() & vs.mask, 0},
			{1 << uint(rng.IntN(width)), 0}, // one bin: a point
		}
		check := func(i, n int, mask, inner uint64) {
			t.Helper()
			var or, hit, exact uint64
			for j := 0; j < n; j++ {
				vec := vs.get(i + j)
				or |= vec
				if vec&mask != 0 {
					hit |= 1 << uint(j)
					if vec&^inner == 0 {
						exact |= 1 << uint(j)
					}
				}
			}
			if got := vs.union(i, n); got != or {
				t.Fatalf("width %d: union(%d, %d) = %#x, want %#x", width, i, n, got, or)
			}
			if gh, gx := vs.verdicts(i, n, mask, inner); gh != hit || gx != exact {
				t.Fatalf("width %d mask %#x inner %#x: verdicts(%d, %d) = %#x, %#x, want %#x, %#x",
					width, mask, inner, i, n, gh, gx, hit, exact)
			}
		}
		for _, m := range masks {
			for trial := 0; trial < 200; trial++ {
				n := 1 + rng.IntN(64)
				check(rng.IntN(vs.len()-n+1), n, m[0], m[1])
			}
			for i := 0; i+64 <= vs.len(); i++ {
				check(i, 64, m[0], m[1])
			}
		}
	}
}

// TestUnitVerdictsMatchPerUnitLoop holds unitVerdicts' shift-and-mask
// folding to the loop that tests each unit's f bits in turn, for every
// unit the probe accepts and every unit count a word of verdicts holds,
// on random bitmaps (bits past the n units included: they must not leak
// into the last unit).
func TestUnitVerdictsMatchPerUnitLoop(t *testing.T) {
	perUnit := func(vhit, vexact uint64, f, n uint) (hit, exact uint64) {
		all := uint64(1)<<f - 1
		for i := uint(0); i < n; i++ {
			if vhit>>(i*f)&all != 0 {
				hit |= 1 << i
			}
			if vexact>>(i*f)&all == all {
				exact |= 1 << i
			}
		}
		return hit, exact
	}
	rng := rand.New(rand.NewPCG(27, 1))
	for _, f := range []uint{1, 2, 4, 8, 16, 32, 64} {
		for n := uint(0); n <= 64/f; n++ {
			for trial := 0; trial < 300; trial++ {
				vhit := rng.Uint64()
				switch trial % 3 {
				case 1:
					vhit &= rng.Uint64() & rng.Uint64() // sparse
				case 2:
					vhit |= rng.Uint64() | rng.Uint64() // dense
				}
				vexact := vhit &^ (rng.Uint64() & rng.Uint64() & rng.Uint64())
				gh, gx := unitVerdicts(vhit, vexact, f, n)
				wh, wx := perUnit(vhit, vexact, f, n)
				if gh != wh || gx != wx {
					t.Fatalf("f=%d n=%d on %#x, %#x: got %#x, %#x, want %#x, %#x", f, n, vhit, vexact, gh, gx, wh, wx)
				}
			}
		}
	}
}

// regionalCol is a column whose values arrive in runs drawing from 4 of
// 64 values, as a regional string column's codes do: most cachelines
// hold all 4, so the dictionary alternates short repeats with short
// stretches of distinct vectors.
func regionalCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x4e6))
	col := make([]int64, n)
	for i := 0; i < n; {
		region := rng.Int64N(16) * 4
		for end := min(n, i+256+rng.IntN(1792)); i < end; i++ {
			col[i] = (region + rng.Int64N(4)) * 15_625 // 64 values spread over [0, 1e6)
		}
	}
	return col
}

// walkCol is a reflected random walk over [0, 1e6), shaped like the
// serving benchmark's price column: neighbouring cachelines mostly share
// bins, so the dictionary interleaves short repeats with short stretches
// of distinct vectors, and a band's verdict changes far less often than
// its entries do.
func walkCol(n int, seed uint64) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x3a1))
	col := make([]int64, n)
	v := int64(500_000)
	for i := range col {
		v += rng.Int64N(4001) - 2000
		if v < 0 {
			v = -v
		}
		if v >= 1_000_000 {
			v = 2*999_999 - v
		}
		col[i] = v
	}
	return col
}

// benchProbeCols are the 64K-row int64 segments the probe is timed on:
// incompressible (one long distinct entry — the fused verdict loop),
// repeat-heavy (the dictionary's run arithmetic), regional and walk
// (short entries between repeats: the skip between verdict changes).
func benchProbeCols() map[string][]int64 {
	return map[string][]int64{
		"uncompressed": randomCol(1<<16, 1_000_000, 7),
		"repeatHeavy":  repeatHeavyCol(1<<16, 8),
		"regional":     regionalCol(1<<16, 9),
		"walk":         walkCol(1<<16, 10),
	}
}

// referenceRuns is RunsInto spelled out without the dictionary walk:
// one verdict per cacheline, read from decompress plus the pending
// vector, folded unit by unit, with runs merged only among themselves.
func referenceRuns[V coltype.Value](ix *Index[V], dst []CandidateRun, m Masks, unit int) ([]CandidateRun, QueryStats) {
	var hit, exact []bool
	ix.decompress(func(_ int, vec uint64) bool {
		hit = append(hit, vec&m.Mask != 0)
		exact = append(exact, vec&m.Mask != 0 && vec&^m.Inner == 0)
		return true
	})
	if vec, count := ix.PendingVector(); count > 0 {
		hit = append(hit, vec&m.Mask != 0)
		exact = append(exact, false) // a partial cacheline is never exact
	}
	var st QueryStats
	for i := range hit {
		switch {
		case exact[i]:
			st.CachelinesExact++
		case hit[i]:
			st.CachelinesScanned++
		default:
			st.CachelinesSkipped++
		}
	}
	st.Probes = uint64(ix.StoredVectors())
	if _, count := ix.PendingVector(); count > 0 {
		st.Probes++
	}
	base := len(dst)
	for u := 0; u*unit < len(hit); u++ {
		uHit, uExact := false, true
		for cl := u * unit; cl < min(len(hit), (u+1)*unit); cl++ {
			uHit = uHit || hit[cl]
			uExact = uExact && exact[cl]
		}
		if !uHit {
			continue
		}
		if n := len(dst); n > base && dst[n-1].Exact == uExact && dst[n-1].Start+dst[n-1].Count == uint32(u) {
			dst[n-1].Count++
			continue
		}
		dst = append(dst, CandidateRun{Start: uint32(u), Count: 1, Exact: uExact})
	}
	return dst, st
}

// referenceHits is RunsInto's per-cacheline hit bitmap spelled out: one
// bit per decompressed vector, then the pending vector's.
func referenceHits[V coltype.Value](ix *Index[V], m Masks) []uint64 {
	hits := make([]uint64, ix.HitWords())
	cl := 0
	set := func(vec uint64) {
		if vec&m.Mask != 0 {
			hits[cl/64] |= 1 << uint(cl%64)
		}
		cl++
	}
	ix.decompress(func(_ int, vec uint64) bool { set(vec); return true })
	if vec, count := ix.PendingVector(); count > 0 {
		set(vec)
	}
	return hits
}

// checkRunsInto holds RunsInto at unit to referenceRuns, twice: into an
// empty dst, and after a caller's run that is adjacent to the first
// run and as exact, which must be left as it is. The first walk also
// writes the per-cacheline hits, into a buffer longer than HitWords and
// full of stale bits: the walk's words must equal referenceHits, and
// the words past them stay as they were; the runs and stats must not
// depend on whether hits were asked for.
func checkRunsInto[V coltype.Value](t *testing.T, ix *Index[V], m Masks, unit int, ctx string) {
	t.Helper()
	want, wantSt := referenceRuns(ix, nil, m, unit)
	buf := slices.Repeat([]uint64{0xdeadbeefcafef00d}, ix.HitWords()+1)
	got, gotSt := ix.RunsInto(nil, m, unit, buf)
	if gotSt != wantSt {
		t.Fatalf("%s unit %d mask %#x inner %#x: stats %+v, want %+v", ctx, unit, m.Mask, m.Inner, gotSt, wantSt)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s unit %d mask %#x inner %#x: runs\n%+v\nwant\n%+v", ctx, unit, m.Mask, m.Inner, got, want)
	}
	if wantHits := referenceHits(ix, m); !slices.Equal(buf[:len(wantHits)], wantHits) || buf[len(wantHits)] != 0xdeadbeefcafef00d {
		t.Fatalf("%s unit %d mask %#x inner %#x: hits\n%x\nwant\n%x", ctx, unit, m.Mask, m.Inner, buf, wantHits)
	}
	if noHits, noHitsSt := ix.RunsInto(nil, m, unit, nil); noHitsSt != gotSt || !slices.Equal(noHits, got) {
		t.Fatalf("%s unit %d mask %#x inner %#x: runs without hits differ", ctx, unit, m.Mask, m.Inner)
	}
	if len(want) == 0 {
		return
	}
	prefix := []CandidateRun{{Start: 0, Count: want[0].Start, Exact: want[0].Exact}}
	want, _ = referenceRuns(ix, slices.Clone(prefix), m, unit)
	got, _ = ix.RunsInto(slices.Clone(prefix), m, unit, nil)
	if !slices.Equal(got, want) || got[0] != prefix[0] {
		t.Fatalf("%s unit %d mask %#x inner %#x: after an adjacent caller run\n%+v\nwant\n%+v", ctx, unit, m.Mask, m.Inner, got, want)
	}
}

// TestRunsIntoMatchesReference holds the probe to referenceRuns — not
// to itself at another unit — on every dictionary shape the walk
// distinguishes: one long distinct entry (uniform), rare jumps in a
// clustered walk, long repeats with noisy stretches, short regional
// entries and a reflected random walk; at every stored vector width,
// a custom values-per-cacheline, column lengths ending in a partial
// cacheline inside a partial unit, every unit, and masks from range,
// point, IN and raw random bits (everything, nothing, inner bins
// outside the mask).
func TestRunsIntoMatchesReference(t *testing.T) {
	shapes := map[string]func(n int, seed uint64) []int64{
		"uniform":     func(n int, seed uint64) []int64 { return randomCol(n, 1_000_000, seed) },
		"clustered":   clusteredCol,
		"repeatHeavy": repeatHeavyCol,
		"regional":    regionalCol,
		"walk":        walkCol,
	}
	units := []int{1, 2, 4, 8, 16, 32, 64}
	for shape, gen := range shapes {
		for _, bins := range []int{8, 16, 32, 64} {
			for _, vpc := range []int{0, 4, 16, 32, 64} {
				for _, n := range []int{1, 7, 9_000, 40_963} { // 40,963 is prime: a partial cacheline in a partial unit
					rng := rand.New(rand.NewPCG(uint64(bins*n), uint64(vpc)))
					ix := Build(gen(n, uint64(n+bins)), Options{Seed: 5, MaxBins: bins, ValuesPerCacheline: vpc})
					ctx := fmt.Sprintf("%s bins=%d vpc=%d n=%d", shape, bins, ix.ValuesPerCacheline(), n)
					col := ix.Column()
					masks := []Masks{{}, {Mask: ^uint64(0), Inner: ^uint64(0)}, {Mask: ^uint64(0)}}
					for trial := 0; trial < 6; trial++ {
						lo := rng.Int64N(1_000_000)
						x := col[rng.IntN(len(col))]
						masks = append(masks,
							ix.RangeMasks(lo, lo+rng.Int64N(400_000)),
							ix.AtLeastMasks(lo),
							ix.LessThanMasks(lo),
							ix.PointMasks(x),
							ix.InSetMasks([]int64{x, lo, col[rng.IntN(len(col))]}),
							Masks{Mask: rng.Uint64(), Inner: rng.Uint64()})
					}
					for _, m := range masks {
						for _, unit := range units {
							checkRunsInto(t, ix, m, unit, ctx)
						}
					}
				}
			}
		}
	}
}

// TestRunsIntoAllocs pins the probe at zero allocations into a reused
// dst, on the shapes that take the skip between verdict changes and
// the fused loop, at the cacheline and the block unit, with and
// without the per-cacheline hit bitmap.
func TestRunsIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, name := range []string{"walk", "uncompressed"} {
		ix := Build(benchProbeCols()[name], Options{Seed: 11})
		m := ix.RangeMasks(450_000, 550_000)
		hits := make([]uint64, ix.HitWords())
		for _, unit := range []int{1, 8} {
			for _, h := range [][]uint64{nil, hits} {
				runs, _ := ix.RunsInto(nil, m, unit, h)
				if allocs := testing.AllocsPerRun(20, func() { runs, _ = ix.RunsInto(runs[:0], m, unit, h) }); allocs != 0 {
					t.Errorf("%s unit %d, hits %t: %.1f allocations per probe, want 0", name, unit, h != nil, allocs)
				}
			}
		}
	}
}

// BenchmarkBlockProbe times one probe of a 64K-row segment at the
// paper's cacheline unit and at the table executor's 64-row block
// (8 int64 cachelines), for a range mask and for a point mask — the
// shape of equality on an incompressible column: one bin, no inner bin,
// every stored vector tested and none exact.
func BenchmarkBlockProbe(b *testing.B) {
	for name, col := range benchProbeCols() {
		ix := Build(col, Options{Seed: 11})
		for _, mask := range []struct {
			name string
			m    Masks
		}{
			{"range", ix.RangeMasks(450_000, 550_000)},
			{"point", ix.PointMasks(123_456)},
		} {
			for _, unit := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%s/unit%d", name, mask.name, unit), func(b *testing.B) {
					var runs []CandidateRun
					for i := 0; i < b.N; i++ {
						runs, _ = ix.RunsInto(runs[:0], mask.m, unit, nil)
					}
					perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
					b.ReportMetric(perOp/float64(ix.StoredVectors()), "ns/vector")
					b.ReportMetric(perOp/float64(ix.DictEntries()), "ns/entry")
				})
			}
		}
	}
}

// BenchmarkAccessPathSample times one access-path sample, mask
// construction included — what a probing leaf pays per segment on top
// of its histogram estimate.
func BenchmarkAccessPathSample(b *testing.B) {
	for name, col := range benchProbeCols() {
		ix := Build(col, Options{Seed: 11})
		b.Run(name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += ix.ResidualShare(ix.RangeMasks(450_000, 550_000), 8)
			}
			if sum < 0 {
				b.Fatal("negative share")
			}
		})
	}
}
