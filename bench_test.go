package imprints

// Ablations over the design choices, plus Section 4.1's append, the
// table predicate engine and serialization, under `go test -bench`. The
// paper's tables and figures are measured by the experiment harness
// (cmd/imprintbench -exp table1,fig3,...,fig11), gated by its paper
// counts test, not here.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/table"
)

// Shared fixtures, built once.
var fixtures struct {
	once      sync.Once
	clustered []int64                // 1M-row random walk (the "secondary data" regime)
	random    []int64                // 1M-row uniform (the high-entropy regime)
	queries   []harness.Query[int64] // 10% ranges over clustered
}

func fx() *struct {
	once      sync.Once
	clustered []int64
	random    []int64
	queries   []harness.Query[int64]
} {
	fixtures.once.Do(func() {
		const n = 1 << 20
		rng := rand.New(rand.NewPCG(42, 42))
		fixtures.clustered = make([]int64, n)
		v := int64(1 << 30)
		for i := range fixtures.clustered {
			v += int64(rng.IntN(2001)) - 1000
			fixtures.clustered[i] = v
		}
		fixtures.random = make([]int64, n)
		for i := range fixtures.random {
			fixtures.random[i] = rng.Int64N(1 << 40)
		}
		fixtures.queries = harness.Ranges(fixtures.clustered, []float64{0.1}, 4, 7)
	})
	return &fixtures
}

// BenchmarkAblationBinning contrasts Algorithm 2's dedup binning with
// the prose variant that counts duplicate sample values: comparisons
// per query on a skewed column show the false-positive difference.
func BenchmarkAblationBinning(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 11))
	col := make([]int64, 1<<19)
	for i := range col {
		if rng.IntN(2) == 0 {
			col[i] = 5_000_000
		} else {
			col[i] = rng.Int64N(10_000_000)
		}
	}
	for name, dup := range map[string]bool{"dedup": false, "dupcount": true} {
		b.Run(name, func(b *testing.B) {
			ix := core.Build(col, core.Options{Seed: 1, CountDuplicates: dup})
			qs := harness.Ranges(col, []float64{0.2}, 4, 3)
			res := make([]uint32, 0, len(col))
			var st core.QueryStats
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				res, st = ix.RangeIDs(q.Low, q.High, res[:0])
			}
			b.ReportMetric(float64(st.Comparisons)/float64(len(col)), "cmps/row")
		})
	}
}

// BenchmarkAblationGranularity sweeps the values-per-imprint-vector
// knob (Section 2.3: the engine's access granularity determines it).
func BenchmarkAblationGranularity(b *testing.B) {
	f := fx()
	col := f.clustered
	qs := f.queries
	for _, vpc := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("vpc%d", vpc), func(b *testing.B) {
			ix := core.Build(col, core.Options{Seed: 1, ValuesPerCacheline: vpc})
			res := make([]uint32, 0, len(col))
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				res, _ = ix.RangeIDs(q.Low, q.High, res[:0])
			}
			b.ReportMetric(float64(ix.SizeBytes())*8/float64(len(col)), "idxbits/val")
		})
	}
}

// BenchmarkAblationTwoLevel contrasts the flat index with the two-level
// organization on a selective query.
func BenchmarkAblationTwoLevel(b *testing.B) {
	f := fx()
	col := f.clustered
	base := core.Build(col, core.Options{Seed: 1})
	tl := core.NewTwoLevel(base, 64)
	qs := harness.Ranges(col, []float64{0.01}, 4, 13)
	res := make([]uint32, 0, len(col))
	b.Run("flat", func(b *testing.B) {
		var st core.QueryStats
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			res, st = base.RangeIDs(q.Low, q.High, res[:0])
		}
		b.ReportMetric(float64(st.Probes), "probes")
	})
	b.Run("twolevel", func(b *testing.B) {
		var st core.QueryStats
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			res, st = tl.RangeIDs(q.Low, q.High, res[:0])
		}
		b.ReportMetric(float64(st.Probes), "probes")
	})
}

// BenchmarkAblationLateMaterialization contrasts evaluating a two-column
// conjunction naively (materialize both, intersect) with the candidate
// cacheline merge-join of Section 3.
func BenchmarkAblationLateMaterialization(b *testing.B) {
	f := fx()
	a := f.clustered
	c := f.random
	ixA := core.Build(a, core.Options{Seed: 1})
	ixC := core.Build(c, core.Options{Seed: 2})
	qa := harness.Ranges(a, []float64{0.1}, 1, 3)[0]
	qc := harness.Ranges(c, []float64{0.1}, 1, 3)[0]
	b.Run("naive", func(b *testing.B) {
		r1 := make([]uint32, 0, len(a))
		r2 := make([]uint32, 0, len(a))
		for i := 0; i < b.N; i++ {
			r1, _ = ixA.RangeIDs(qa.Low, qa.High, r1[:0])
			r2, _ = ixC.RangeIDs(qc.Low, qc.High, r2[:0])
			intersectSorted(r1, r2)
		}
	})
	b.Run("late", func(b *testing.B) {
		res := make([]uint32, 0, len(a))
		for i := 0; i < b.N; i++ {
			res, _ = core.EvaluateAnd(res[:0],
				core.NewRangeConjunct(ixA, qa.Low, qa.High),
				core.NewRangeConjunct(ixC, qc.Low, qc.High))
		}
	})
}

func intersectSorted(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// BenchmarkSection4Append contrasts appending a batch to an existing
// imprint (Section 4.1: no old vector is touched) against rebuilding
// the whole index — the cost the paper says appends avoid.
func BenchmarkSection4Append(b *testing.B) {
	f := fx()
	base := f.clustered[:len(f.clustered)-65536]
	full := f.clustered
	// Each append iteration needs a fresh index; restoring it from a
	// serialized image keeps the (untimed) per-iteration setup cheap.
	var img bytes.Buffer
	if err := core.Build(base, core.Options{Seed: 1}).Write(&img); err != nil {
		b.Fatal(err)
	}
	raw := img.Bytes()
	b.Run("append64k", func(b *testing.B) {
		b.SetBytes(65536 * 8)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix, err := core.ReadIndex[int64](bytes.NewReader(raw), base)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			ix.Append(full)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		b.SetBytes(65536 * 8)
		for i := 0; i < b.N; i++ {
			core.Build(full, core.Options{Seed: 1})
		}
	})
}

// BenchmarkTableSelect measures the relation-level predicate engine on
// a three-column conjunction.
func BenchmarkTableSelect(b *testing.B) {
	f := fx()
	n := 1 << 19
	qty := f.clustered[:n]
	price := f.random[:n]
	status := make([]uint8, n)
	for i := range status {
		status[i] = uint8(i % 5)
	}
	tb := table.New("bench")
	if err := table.AddColumn(tb, "qty", qty, table.Imprints, core.Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	if err := table.AddColumn(tb, "price", price, table.Imprints, core.Options{Seed: 2}); err != nil {
		b.Fatal(err)
	}
	if err := table.AddColumn(tb, "status", status, table.NoIndex, core.Options{}); err != nil {
		b.Fatal(err)
	}
	q := harness.Ranges(qty, []float64{0.05}, 1, 3)[0]
	p := harness.Ranges(price, []float64{0.2}, 1, 4)[0]
	pred := table.And(
		table.Range[int64]("qty", q.Low, q.High),
		table.Range[int64]("price", p.Low, p.High),
		table.Equals[uint8]("status", 2),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tb.Select().Where(pred).IDs(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialization measures Write+Read round-trip throughput.
func BenchmarkSerialization(b *testing.B) {
	f := fx()
	ix := core.Build(f.clustered, core.Options{Seed: 1})
	var buf writeCounter
	for i := 0; i < b.N; i++ {
		buf.reset()
		if err := ix.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.n), "bytes")
}

type writeCounter struct{ n int64 }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }
func (w *writeCounter) reset()                      { w.n = 0 }
