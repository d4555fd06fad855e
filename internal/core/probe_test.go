package core

import (
	"fmt"
	"math/rand/v2"
	"testing"
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

// benchProbeCols are the 64K-row int64 segments the probe is timed on:
// incompressible (one distinct vector per cacheline — the verdict
// bitmaps), repeat-heavy (the dictionary's run arithmetic) and regional
// (short entries: the per-vector walk between repeats).
func benchProbeCols() map[string][]int64 {
	return map[string][]int64{
		"uncompressed": randomCol(1<<16, 1_000_000, 7),
		"repeatHeavy":  repeatHeavyCol(1<<16, 8),
		"regional":     regionalCol(1<<16, 9),
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
						runs, _ = ix.RunsInto(runs[:0], mask.m, unit)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ix.StoredVectors()), "ns/vector")
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
