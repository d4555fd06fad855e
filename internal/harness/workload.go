package harness

// The range-query workload with controlled selectivity, reproducing the
// evaluation protocol of Section 6.3: "For each column, ten different
// range queries with varying selectivity are created. The selectivity
// starts from less than 0.1 and increases each time by 0.1, until it
// surpasses 0.9."

import (
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/coltype"
)

// Query is one half-open range query [Low, High) with its selectivity
// bookkeeping.
type Query[V coltype.Value] struct {
	Low, High V
	// Target is the selectivity the generator aimed for.
	Target float64
	// Achieved is the exact fraction of column rows in [Low, High).
	Achieved float64
}

// DefaultSelectivities are the ten paper steps: just under 0.1 up to just
// over 0.9.
func DefaultSelectivities() []float64 {
	s := make([]float64, 10)
	for i := range s {
		s[i] = 0.05 + 0.1*float64(i)
	}
	return s
}

// Ranges generates perSel queries per selectivity step. Query borders are
// drawn from the column's own value distribution (via a sorted copy), so
// the achieved selectivity tracks the target even under heavy skew.
func Ranges[V coltype.Value](col []V, selectivities []float64, perSel int, seed uint64) []Query[V] {
	if len(col) == 0 {
		panic("harness: empty column")
	}
	sorted := make([]V, len(col))
	copy(sorted, col)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))

	n := len(sorted)
	var out []Query[V]
	for _, sel := range selectivities {
		if sel < 0 {
			sel = 0
		}
		if sel > 1 {
			sel = 1
		}
		k := int(sel * float64(n))
		if k >= n {
			k = n - 1
		}
		for q := 0; q < perSel; q++ {
			start := 0
			if n-k > 0 {
				start = rng.IntN(n - k)
			}
			low := sorted[start]
			high := sorted[start+k] // exclusive end value
			if high < low {
				low, high = high, low
			}
			if high == low {
				// Both borders landed inside one duplicate run; the
				// half-open range would be empty. Extend to the next
				// distinct value so the run itself qualifies.
				j := sort.Search(n, func(i int) bool { return sorted[i] > low })
				if j < n {
					high = sorted[j]
				} else {
					high = bumpUp(low)
				}
			}
			out = append(out, Query[V]{
				Low:      low,
				High:     high,
				Target:   sel,
				Achieved: achieved(sorted, low, high),
			})
		}
	}
	return out
}

// achieved computes |{v : low <= v < high}| / n over the sorted copy.
func achieved[V coltype.Value](sorted []V, low, high V) float64 {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= low })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= high })
	return float64(hi-lo) / float64(len(sorted))
}

// bumpUp returns the smallest representable value above v (or v itself at
// the top of the domain). It lets a half-open range include a run of the
// column's maximum value.
func bumpUp[V coltype.Value](v V) V {
	if v == coltype.MaxOf[V]() {
		return v
	}
	if coltype.IsFloat[V]() {
		if coltype.Width[V]() == 4 {
			f := math.Nextafter32(float32(v), float32(math.Inf(1)))
			return V(f)
		}
		f := math.Nextafter(float64(v), math.Inf(1))
		return V(f)
	}
	return v + 1
}
