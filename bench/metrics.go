package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric: its unit, which way is better, and — for
// end-to-end metrics — the share of the baseline's median by which it
// may worsen before -compare calls it worse. BENCHMARK.json repeats the
// driver-facing subset of this table; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	// ingestOnly metrics exist on mixed-ingest alone, so they cannot be
	// in BENCHMARK.json's end_to_end list (the driver wants every
	// listed metric from every workload); -compare still gates them.
	ingestOnly bool
	// reported metrics are printed and compared but gate nothing: their
	// run-to-run spread is too close to the largest bound allowed.
	reported bool
}

// driverFacing reports whether BENCHMARK.json lists the metric.
func (d metricDef) driverFacing() bool { return !d.ingestOnly && !d.reported }

var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p99_ms", unit: "ms", better: "lower", bound: 0.25, reported: true},
	{name: "index_pct", unit: "%", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ingest_rows_per_s", unit: "rows/s", better: "higher", bound: 0.25, ingestOnly: true},
	{name: "recovery_rows_per_s", unit: "rows/s", better: "higher", bound: 0.25, ingestOnly: true},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, timed or traced.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // latencies behind p50_ms and p99_ms
	Metrics   map[string]metric `json:"metrics"`
	// Info carries reported-not-gated numbers of a timed run
	// (failed_share, the imprintd process figures, loadgen.cpu_share).
	Info   map[string]metric `json:"info,omitempty"`
	Errors []string          `json:"errors,omitempty"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// driverLine is the one-line JSON object the benchmark contract wants
// last on standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minP99Samples is the fewest latencies a p99 is reported from: with
// 1,000 there are ten beyond it.
const minP99Samples = 1000

// percentile returns the q-quantile (nearest rank) of lat in
// milliseconds. A p99 over fewer than minP99Samples latencies is
// refused: the run was too short to support it.
func percentile(lat []time.Duration, q float64) (float64, error) {
	if len(lat) == 0 {
		return 0, fmt.Errorf("no latency samples")
	}
	if q >= 0.99 && len(lat) < minP99Samples {
		return 0, fmt.Errorf("run too short: p99 needs %d samples, got %d", minP99Samples, len(lat))
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(rank, 0)]) / float64(time.Millisecond), nil
}

// median of a float sample (mean of the middle two for even sizes).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// medianUs is the median of a duration sample in microseconds.
func medianUs(v []time.Duration) float64 {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d) / float64(time.Microsecond)
	}
	return median(f)
}

// perLayer lists every metric of the traced run; bound is unused (layer
// metrics are read, not gated).
var perLayer = []metricDef{
	{name: "net.self_us", unit: "us", better: "lower"},
	{name: "server.self_us", unit: "us", better: "lower"},
	{name: "server.insert_self_us", unit: "us", better: "lower"},
	{name: "server.response_bytes", unit: "B", better: "lower"},
	{name: "server.stmt_cache_hit_share", unit: "ratio", better: "higher"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "sql.self_us", unit: "us", better: "lower"},
	{name: "sql.compile_us", unit: "us", better: "lower"},
	{name: "table.self_us", unit: "us", better: "lower"},
	{name: "table.comparisons_per_row", unit: "count", better: "lower"},
	{name: "table.blocks_vectorized", unit: "count", better: "higher"},
	{name: "table.fast_counted_share", unit: "ratio", better: "higher"},
	{name: "table.summary_agg_share", unit: "ratio", better: "higher"},
	{name: "core.probe_us", unit: "us", better: "lower"},
	{name: "core.cachelines_skipped_share", unit: "ratio", better: "higher"},
	{name: "core.false_positive_share", unit: "ratio", better: "lower"},
	{name: "core.index_pct", unit: "%", better: "lower"},
	{name: "table.commit_us", unit: "us", better: "lower"},
	{name: "wal.append_us", unit: "us", better: "lower"},
	{name: "wal.fsync_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_row", unit: "B", better: "lower"},
	{name: "table.delta_rows_scanned", unit: "rows", better: "lower"},
	{name: "table.seal_lag_rows", unit: "rows", better: "lower"},
	{name: "table.seal_us_per_krow", unit: "us", better: "lower"},
	{name: "table.seal_retries", unit: "count", better: "lower"},
	{name: "table.replay_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "table.open_s", unit: "s", better: "lower"},
	{name: "baseline.imprints_us", unit: "us", better: "lower"},
	{name: "baseline.zonemap_probe_us", unit: "us", better: "lower"},
	{name: "baseline.wah_probe_us", unit: "us", better: "lower"},
	{name: "baseline.scan_us", unit: "us", better: "lower"},
	{name: "baseline.zonemap_index_pct", unit: "%", better: "lower"},
	{name: "baseline.wah_index_pct", unit: "%", better: "lower"},
	{name: "proc.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "loadgen.cpu_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
