package core

import (
	"sync"

	"repro/internal/coltype"
	"repro/internal/histogram"
)

// BuildParallel constructs the same index as Build but distributes the
// expensive per-value binning across `workers` goroutines (the paper's
// Section 7: "Column imprints can be extended to exploit multi-core
// platforms during the construction phase"). Each worker compresses a
// cacheline-aligned slice of the column against the shared histogram;
// the per-part compressed streams are then replayed, in order, into a
// master dictionary, which stitches runs across part boundaries so the
// result is bit-identical to the sequential build.
func BuildParallel[V coltype.Value](col []V, opts Options, workers int) *Index[V] {
	if len(col) == 0 {
		panic("core: cannot build an imprint over an empty column")
	}
	hist := histogram.Build(col, histogram.Options{
		SampleSize:      opts.SampleSize,
		Seed:            opts.Seed,
		CountDuplicates: opts.CountDuplicates,
	})
	clampBins(hist, opts.MaxBins)
	master := newWithHistogram(col, hist, opts)

	ncl := len(col) / master.vpc
	if workers <= 1 || ncl < workers*4 {
		master.extend(col)
		return master
	}

	// Partition at cacheline boundaries; the last part also absorbs the
	// partial tail.
	parts := make([]*Index[V], workers)
	per := ncl / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		start := w * per * master.vpc
		end := (w + 1) * per * master.vpc
		if w == workers-1 {
			end = len(col)
		}
		wg.Add(1)
		go func(w, start, end int) {
			defer wg.Done()
			sub := newWithHistogram(col[start:end], hist, opts)
			sub.extend(col[start:end])
			parts[w] = sub
		}(w, start, end)
	}
	wg.Wait()

	// Replay the per-part compressed streams into the master dictionary.
	for _, part := range parts {
		iVec := 0
		for _, e := range part.dict {
			if e.Repeat() {
				master.commitRun(part.vecs.get(iVec), int(e.Count()))
				iVec++
				continue
			}
			for end := iVec + int(e.Count()); iVec < end; iVec++ {
				master.commit(part.vecs.get(iVec))
			}
		}
	}
	last := parts[workers-1]
	master.pendingVec, master.pendingCount = last.pendingVec, last.pendingCount
	master.n = len(col)
	return master
}
