// Package harness orchestrates the paper's experimental evaluation
// (Section 6): it builds imprints, zonemaps and WAH bitmaps over every
// column of the five (synthetic) datasets, runs the selectivity-sweep
// query workload against all of them plus a sequential scan, and renders
// each table and figure of the paper as text. TestPaperCounts pins the
// integer outputs of these runs (sizes, probes, comparisons, cacheline
// tallies; no wall times) to testdata/paper-counts.json.
package harness

import (
	"fmt"
	"time"

	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/wah"
	"repro/internal/zonemap"
)

// Config controls the evaluation scale.
type Config struct {
	// Scale is the dataset scale factor (see dataset.Config).
	Scale float64
	// Seed drives dataset generation, sampling and workloads.
	Seed uint64
	// QueriesPerSelectivity is the number of queries generated per
	// selectivity step per column (default 3).
	QueriesPerSelectivity int
	// MaxColumnsPerDataset bounds per-dataset work in query experiments
	// (0 = all columns).
	MaxColumnsPerDataset int
}

func (c Config) queriesPerSel() int {
	if c.QueriesPerSelectivity <= 0 {
		return 3
	}
	return c.QueriesPerSelectivity
}

// IndexBuild records construction cost and footprint of one index over
// one column.
type IndexBuild struct {
	SizeBytes int64
	BuildTime time.Duration
}

// QueryMeasurement is one range query evaluated by all four methods.
type QueryMeasurement struct {
	Dataset, Column string
	Rows            int
	Selectivity     float64 // achieved
	ResultCount     int

	ScanNs, ImpNs, ZmNs, WahNs int64

	ImpProbes, ImpComparisons uint64
	ZmProbes, ZmComparisons   uint64
	WahProbes, WahComparisons uint64
}

// ColumnRun is the full measurement record of one column.
type ColumnRun struct {
	Dataset, Column, TypeName string
	WidthBytes, Rows          int
	ColBytes                  int64
	Entropy                   float64

	Imprints, Zonemap, WAH IndexBuild

	// The imprint's geometry: histogram bins and the distinct values
	// its sample held, cachelines and values per cacheline, dictionary
	// entries, stored vectors, and stored vectors per cacheline.
	Bins, SampledUnique            int
	Cachelines, ValuesPerCacheline int
	DictEntries, StoredVectors     int
	Compression                    float64

	Queries []QueryMeasurement

	// FingerprintHead holds the first lines of the imprint print
	// (Figure 3) when requested.
	FingerprintHead string
}

// measure builds the three indexes over one typed column, computes its
// entropy, and optionally runs the query workload.
func measure[V coltype.Value](dsName string, col *column.Column[V], cfg Config, withQueries bool, fingerprintLines int) *ColumnRun {
	vals := col.Values()
	run := &ColumnRun{
		Dataset:    dsName,
		Column:     col.Name(),
		TypeName:   col.TypeName(),
		WidthBytes: col.WidthBytes(),
		Rows:       col.Len(),
		ColBytes:   col.SizeBytes(),
	}

	t0 := time.Now()
	imp := core.Build(vals, core.Options{Seed: cfg.Seed})
	run.Imprints = IndexBuild{SizeBytes: imp.SizeBytes(), BuildTime: time.Since(t0)}

	t0 = time.Now()
	zm := zonemap.Build(vals, zonemap.Options{})
	run.Zonemap = IndexBuild{SizeBytes: zm.SizeBytes(), BuildTime: time.Since(t0)}

	t0 = time.Now()
	wb := wah.BuildWithHistogram(vals, imp.Histogram())
	run.WAH = IndexBuild{SizeBytes: wb.SizeBytes(), BuildTime: time.Since(t0)}

	run.Bins, run.SampledUnique = imp.Bins(), imp.Histogram().SampledUnique
	run.Cachelines, run.ValuesPerCacheline = imp.Cachelines(), imp.ValuesPerCacheline()
	run.DictEntries, run.StoredVectors = imp.DictEntries(), imp.StoredVectors()
	run.Compression = imp.CompressionRatio()
	run.Entropy = imp.Entropy()
	if fingerprintLines > 0 {
		run.FingerprintHead = imp.Fingerprint(fingerprintLines)
	}

	if withQueries {
		queries := Ranges(vals, DefaultSelectivities(), cfg.queriesPerSel(), cfg.Seed+uint64(len(vals)))
		res := make([]uint32, 0, len(vals))
		for _, q := range queries {
			m := QueryMeasurement{
				Dataset:     dsName,
				Column:      col.Name(),
				Rows:        col.Len(),
				Selectivity: q.Achieved,
			}

			t0 = time.Now()
			ids, _ := scan.RangeIDs(vals, q.Low, q.High, res[:0])
			m.ScanNs = time.Since(t0).Nanoseconds()
			m.ResultCount = len(ids)

			t0 = time.Now()
			_, ist := imp.RangeIDs(q.Low, q.High, res[:0])
			m.ImpNs = time.Since(t0).Nanoseconds()
			m.ImpProbes, m.ImpComparisons = ist.Probes, ist.Comparisons

			t0 = time.Now()
			_, zst := zm.RangeIDs(q.Low, q.High, res[:0])
			m.ZmNs = time.Since(t0).Nanoseconds()
			m.ZmProbes, m.ZmComparisons = zst.Probes, zst.Comparisons

			t0 = time.Now()
			_, wst := wb.RangeIDs(q.Low, q.High, res[:0])
			m.WahNs = time.Since(t0).Nanoseconds()
			m.WahProbes, m.WahComparisons = wst.Probes, wst.Comparisons

			run.Queries = append(run.Queries, m)
		}
	}
	return run
}

// MeasureColumn dispatches a type-erased column to the generic measure.
func MeasureColumn(dsName string, c column.Any, cfg Config, withQueries bool, fingerprintLines int) *ColumnRun {
	switch col := c.(type) {
	case *column.Column[int8]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[int16]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[int32]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[int64]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[uint8]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[uint16]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[uint32]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[uint64]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[float32]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	case *column.Column[float64]:
		return measure(dsName, col, cfg, withQueries, fingerprintLines)
	}
	panic(fmt.Sprintf("harness: unsupported column type %T", c))
}

// MeasureAll runs MeasureColumn over every column of every dataset.
// Results are grouped per dataset in generation order.
func MeasureAll(cfg Config, withQueries bool) []*ColumnRun {
	var runs []*ColumnRun
	for _, ds := range dataset.All(dataset.Config{Scale: cfg.Scale, Seed: cfg.Seed}) {
		cols := ds.Columns
		if cfg.MaxColumnsPerDataset > 0 && len(cols) > cfg.MaxColumnsPerDataset {
			cols = cols[:cfg.MaxColumnsPerDataset]
		}
		for _, c := range cols {
			runs = append(runs, MeasureColumn(ds.Name, c, cfg, withQueries, 0))
		}
	}
	return runs
}
