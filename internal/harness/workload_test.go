package harness

import (
	"math/rand/v2"
	"testing"
)

func TestDefaultSelectivities(t *testing.T) {
	s := DefaultSelectivities()
	if len(s) != 10 {
		t.Fatalf("len = %d, want 10", len(s))
	}
	if s[0] >= 0.1 {
		t.Errorf("first step %v not < 0.1", s[0])
	}
	if s[9] <= 0.9 {
		t.Errorf("last step %v not > 0.9", s[9])
	}
	for i := 1; i < len(s); i++ {
		if d := s[i] - s[i-1]; d < 0.099 || d > 0.101 {
			t.Errorf("step %d delta %v, want 0.1", i, d)
		}
	}
}

func TestRangesAchieveTargets(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	col := make([]int64, 50000)
	for i := range col {
		col[i] = int64(rng.IntN(1 << 30))
	}
	qs := Ranges(col, DefaultSelectivities(), 3, 7)
	if len(qs) != 30 {
		t.Fatalf("generated %d queries, want 30", len(qs))
	}
	for _, q := range qs {
		if q.High < q.Low {
			t.Fatalf("inverted range %v..%v", q.Low, q.High)
		}
		if diff := q.Achieved - q.Target; diff < -0.05 || diff > 0.05 {
			t.Errorf("target %.2f achieved %.3f", q.Target, q.Achieved)
		}
		// Cross-check Achieved against a real scan.
		count := 0
		for _, v := range col {
			if v >= q.Low && v < q.High {
				count++
			}
		}
		got := float64(count) / float64(len(col))
		if got != q.Achieved {
			t.Fatalf("Achieved %v but scan says %v", q.Achieved, got)
		}
	}
}

func TestRangesSkewedColumn(t *testing.T) {
	// 90% of values identical: when both borders land inside the
	// duplicate run the generator must widen the range instead of
	// emitting an empty [v, v). Exact selectivity targeting is
	// impossible when a single value holds most of the mass, but the
	// queries must never be degenerate.
	rng := rand.New(rand.NewPCG(2, 2))
	col := make([]int32, 20000)
	for i := range col {
		if rng.IntN(10) == 0 {
			col[i] = int32(rng.IntN(1000000))
		} else {
			col[i] = 500000
		}
	}
	qs := Ranges(col, []float64{0.25, 0.75}, 5, 3)
	for _, q := range qs {
		if q.Achieved <= 0 {
			t.Errorf("skewed: target %.2f produced an empty range [%d,%d)",
				q.Target, q.Low, q.High)
		}
	}
}

func TestRangesConstantColumn(t *testing.T) {
	col := make([]int64, 1000)
	for i := range col {
		col[i] = 7
	}
	qs := Ranges(col, []float64{0.5}, 3, 5)
	for _, q := range qs {
		if q.Achieved != 1 {
			t.Errorf("constant column: achieved %v, want 1 (whole run)", q.Achieved)
		}
	}
}

func TestRangesMaxValueRun(t *testing.T) {
	// Duplicate run at the float maximum: bumpUp must push the upper
	// border past it.
	col := make([]float64, 100)
	for i := range col {
		col[i] = 123.5
	}
	qs := Ranges(col, []float64{0.9}, 2, 6)
	for _, q := range qs {
		if q.Achieved != 1 {
			t.Errorf("max-run: achieved %v, want 1", q.Achieved)
		}
	}
}

func TestRangesFloatColumn(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	col := make([]float64, 30000)
	for i := range col {
		col[i] = rng.Float64()
	}
	qs := Ranges(col, []float64{0.5}, 10, 11)
	for _, q := range qs {
		if diff := q.Achieved - q.Target; diff < -0.03 || diff > 0.03 {
			t.Errorf("float: target %.2f achieved %.3f", q.Target, q.Achieved)
		}
	}
}

func TestRangesDeterministic(t *testing.T) {
	col := make([]int64, 1000)
	rng := rand.New(rand.NewPCG(4, 4))
	for i := range col {
		col[i] = int64(rng.IntN(100000))
	}
	a := Ranges(col, []float64{0.3}, 5, 9)
	b := Ranges(col, []float64{0.3}, 5, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs between runs", i)
		}
	}
}

func TestRangesTinyColumn(t *testing.T) {
	col := []int64{5}
	qs := Ranges(col, []float64{0.5, 0.95}, 2, 1)
	if len(qs) != 4 {
		t.Fatalf("generated %d queries", len(qs))
	}
	// Must not panic; ranges may be empty but never inverted.
	for _, q := range qs {
		if q.High < q.Low {
			t.Fatal("inverted range on tiny column")
		}
	}
}

func TestRangesEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ranges([]int64{}, []float64{0.5}, 1, 1)
}

func TestSelectivityClamping(t *testing.T) {
	col := make([]int64, 100)
	for i := range col {
		col[i] = int64(i)
	}
	qs := Ranges(col, []float64{-0.5, 1.5}, 1, 1)
	if len(qs) != 2 {
		t.Fatalf("generated %d queries", len(qs))
	}
	if qs[0].Achieved > 0.05 {
		t.Errorf("clamped-to-0 query achieved %v", qs[0].Achieved)
	}
	if qs[1].Achieved < 0.9 {
		t.Errorf("clamped-to-1 query achieved %v", qs[1].Achieved)
	}
}
