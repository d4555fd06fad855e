// Package histogram implements the sampling-based binning of the column
// imprints paper (Algorithm 2, "binning()") together with the
// cache-conscious bin lookup ("get_bin()", Section 2.5).
//
// A histogram divides the value domain of a column into at most 64 ranges
// ("bins"). Only the right borders of the bins are stored. The first bin
// always covers (-inf, b[0]) — everything below the smallest sampled
// value — and the last bin is open-ended upward, so both act as overflow
// bins for values outside the sampled active domain (Section 4.1).
//
// Bin ranges are inclusive on the left and exclusive on the right: with
// b[3] = 10 and b[4] = 13, values in [10, 13) fall into bin 4 and value 13
// falls into bin 5, exactly as the paper's running example.
package histogram

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/coltype"
)

// DefaultSampleSize is the number of values sampled from a column to
// approximate its histogram ("not more than 2048 in our implementation",
// Section 2.4).
const DefaultSampleSize = 2048

// MaxBins is the largest number of bins (and therefore imprint-vector
// bits) supported: one bit per bin, at most one 64-bit word per vector.
const MaxBins = 64

// Histogram holds the bin borders for one column. Borders is always fully
// populated: unused trailing entries are padded with the maximum value of
// the domain so that the branch-free search in Bin stays correct.
type Histogram[V coltype.Value] struct {
	// Borders[i] is the exclusive upper border of bin i. Borders are
	// non-decreasing; entries at index >= Bins-1 equal MaxOf[V] (+Inf
	// when the sample held it).
	Borders [MaxBins]V
	// Bins is the number of usable bins: 8, 16, 32 or 64, following the
	// rounding rule of Algorithm 2.
	Bins int
	// SampledUnique records how many unique values the construction
	// sample contained (diagnostics: < 64 means the per-value mapping of
	// low-cardinality columns is in effect).
	SampledUnique int
}

// Options configures histogram construction.
type Options struct {
	// SampleSize is the number of uniformly sampled values used to derive
	// the borders. Zero means DefaultSampleSize.
	SampleSize int
	// Seed makes sampling deterministic. Two builds of the same column
	// with the same seed produce identical histograms.
	Seed uint64
	// CountDuplicates selects the equi-height variant described in the
	// prose of Section 2.4: bin borders are drawn from the sorted sample
	// *including* duplicate values, so frequent values get narrower bins.
	// The default (false) follows the pseudocode of Algorithm 2, which
	// eliminates duplicates before dividing the domain. The ablation
	// bench BenchmarkAblationBinning compares the two.
	CountDuplicates bool
}

// Build samples col and constructs its histogram per Algorithm 2.
// It panics if col is empty: an imprint over an empty column is
// meaningless and the paper's construction requires at least one value.
func Build[V coltype.Value](col []V, opts Options) *Histogram[V] {
	if len(col) == 0 {
		panic("histogram: empty column")
	}
	size := opts.SampleSize
	if size <= 0 {
		size = DefaultSampleSize
	}
	sample := make([]V, 0, size)
	if len(col) <= size {
		sample = append(sample, col...)
	} else {
		rng := rand.New(rand.NewPCG(opts.Seed, 0x1d9))
		for i := 0; i < size; i++ {
			sample = append(sample, col[rng.IntN(len(col))])
		}
	}
	return FromSample(sample, opts.CountDuplicates)
}

// FromSample builds a histogram from an explicit sample. The sample is
// modified (filtered and sorted) in place. Float NaNs are dropped from
// it: a NaN orders against nothing, so sorting it in scrambles the
// borders, and Bin sends it to bin 0 without one.
func FromSample[V coltype.Value](sample []V, countDuplicates bool) *Histogram[V] {
	if len(sample) == 0 {
		panic("histogram: empty sample")
	}
	sample = slices.DeleteFunc(sample, func(v V) bool { return v != v })
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })

	// Duplicate elimination. Deduping into a fresh slice keeps the sorted
	// sample intact for the CountDuplicates variant below.
	unique := make([]V, 0, len(sample))
	for _, v := range sample {
		if len(unique) == 0 || v != unique[len(unique)-1] {
			unique = append(unique, v)
		}
	}

	h := &Histogram[V]{SampledUnique: len(unique)}
	// Padding borders sit at the top of the domain: MaxOf[V], or +Inf
	// when the sample holds it, so that the borders stay ascending.
	maxV := coltype.MaxOf[V]()
	if n := len(unique); n > 0 && unique[n-1] > maxV {
		maxV = unique[n-1]
	}

	if len(unique) < MaxBins {
		// Low cardinality: one unique value per bin border. Bin 0 holds
		// everything below the smallest sampled value; value unique[i]
		// falls into bin i+1.
		copy(h.Borders[:], unique)
		switch {
		case len(unique) < 8:
			h.Bins = 8
		case len(unique) < 16:
			h.Bins = 16
		case len(unique) < 32:
			h.Bins = 32
		default:
			h.Bins = 64
		}
		for i := len(unique); i < MaxBins; i++ {
			h.Borders[i] = maxV
		}
		return h
	}

	// High cardinality: divide into 62 ranges of (approximately) equal
	// sample mass. ystep is kept as float64 to guarantee an even spread
	// (Section 2.5's discussion of the 1.2-step example).
	src := unique
	if countDuplicates {
		src = sample
	}
	h.Bins = MaxBins
	ystep := float64(len(src)) / 62.0
	y := 0.0
	for i := 0; i < MaxBins-1; i++ {
		idx := int(y)
		if idx >= len(src) {
			idx = len(src) - 1
		}
		h.Borders[i] = src[idx]
		y += ystep
	}
	h.Borders[MaxBins-1] = maxV
	// CountDuplicates can introduce repeated borders; that only makes
	// some bins empty, which is harmless for correctness.
	return h
}

// Bin returns the bin index of v in [0, h.Bins). It implements the
// cache-conscious binary search of Section 2.5 as a branch-free six-level
// descent over the fully padded 64-entry border array (the Go compiler
// turns the data-dependent ifs into conditional moves, serving the same
// purpose as the paper's unrolled if-chains without else branches).
//
// Bin is equivalent to "the number of borders <= v", clamped to Bins-1:
// bin 0 is (-inf, b[0]), bin i is [b[i-1], b[i]), the last bin is
// open-ended. Floating point NaN maps to bin 0.
func (h *Histogram[V]) Bin(v V) int {
	b := &h.Borders
	i := 0
	if v >= b[i+32] {
		i += 32
	}
	if v >= b[i+16] {
		i += 16
	}
	if v >= b[i+8] {
		i += 8
	}
	if v >= b[i+4] {
		i += 4
	}
	if v >= b[i+2] {
		i += 2
	}
	if v >= b[i+1] {
		i++
	}
	if v >= b[0] {
		i++
	}
	if i >= h.Bins {
		i = h.Bins - 1
	}
	return i
}

// binLinear is the obviously-correct reference implementation of Bin,
// kept for tests and documentation.
func (h *Histogram[V]) binLinear(v V) int {
	n := 0
	for i := 0; i < MaxBins; i++ {
		if h.Borders[i] <= v {
			n++
		}
	}
	if n >= h.Bins {
		n = h.Bins - 1
	}
	return n
}

// BinBounds returns the half-open interval [lo, hi) covered by bin i.
// loUnbounded is true for bin 0 (the interval extends to -inf) and
// hiUnbounded is true for the last bin (extends to +inf); in those cases
// the corresponding bound value is meaningless.
func (h *Histogram[V]) BinBounds(i int) (lo, hi V, loUnbounded, hiUnbounded bool) {
	if i < 0 || i >= h.Bins {
		panic(fmt.Sprintf("histogram: bin %d out of range [0,%d)", i, h.Bins))
	}
	if i == 0 {
		loUnbounded = true
	} else {
		lo = h.Borders[i-1]
	}
	if i == h.Bins-1 {
		hiUnbounded = true
	} else {
		hi = h.Borders[i]
	}
	return lo, hi, loUnbounded, hiUnbounded
}

// VectorBytes returns the storage width in bytes of one imprint vector
// built over this histogram: Bins/8, i.e. 1, 2, 4 or 8.
func (h *Histogram[V]) VectorBytes() int { return h.Bins / 8 }

// Equal reports whether two histograms describe identical binnings.
func (h *Histogram[V]) Equal(o *Histogram[V]) bool {
	if h.Bins != o.Bins {
		return false
	}
	return h.Borders == o.Borders
}
