package server

import (
	"sync/atomic"
	"time"

	"repro/table"
)

// latency histogram bucket upper bounds; the last bucket is unbounded.
var bucketBounds = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// BucketLabels names the histogram buckets in ServerStats JSON.
var BucketLabels = []string{"<=0.1ms", "<=1ms", "<=10ms", "<=100ms", "<=1s", ">1s"}

// histogram is a fixed-bucket latency histogram with atomic counters.
type histogram struct {
	counts [6]atomic.Uint64
	total  atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	h.total.Add(1)
	for i, b := range bucketBounds {
		if d <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(bucketBounds)].Add(1)
}

// EndpointStats is one endpoint's request count and latency histogram.
type EndpointStats struct {
	Count   uint64   `json:"count"`
	Buckets []uint64 `json:"latency_buckets"` // aligned with BucketLabels
}

// CacheStats is the prepared-statement cache's counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
}

// ServerStats is the GET /stats snapshot: cumulative counters since
// the server started, plus the served table's write-path health (delta
// rows buffered, seal, flush and merge progress, WAL and recovery).
type ServerStats struct {
	Served       uint64                     `json:"queries_served"`
	Errors       uint64                     `json:"query_errors"`
	Rejected     uint64                     `json:"rejected"`
	Canceled     uint64                     `json:"canceled"`
	InsertedRows uint64                     `json:"rows_inserted"`
	Cache        CacheStats                 `json:"statement_cache"`
	Ingest       table.IngestStats          `json:"ingest"`
	Degraded     bool                       `json:"degraded"`
	Quarantined  []table.QuarantinedSegment `json:"quarantined,omitempty"`
	BucketLabels []string                   `json:"latency_bucket_labels"`
	Endpoints    map[string]EndpointStats   `json:"endpoints"`
}

// serverCounters aggregates the live atomic counters behind /stats.
type serverCounters struct {
	served   atomic.Uint64 // successful /query executions
	errors   atomic.Uint64 // failed /query and /insert executions
	rejected atomic.Uint64 // admission-control 429s
	canceled atomic.Uint64 // executions ended by deadline or disconnect
	inserted atomic.Uint64 // rows committed via /insert
	query    histogram
	insert   histogram
	explain  histogram
	stats    histogram
	healthz  histogram
}

func (c *serverCounters) endpoint(path string) *histogram {
	switch path {
	case "/query":
		return &c.query
	case "/insert":
		return &c.insert
	case "/explain":
		return &c.explain
	case "/stats":
		return &c.stats
	default:
		return &c.healthz
	}
}

// snapshot materializes the counters into a ServerStats value.
func (c *serverCounters) snapshot(cache *stmtCache) ServerStats {
	hits, misses, evictions, size, capacity := cache.counters()
	st := ServerStats{
		Served:       c.served.Load(),
		Errors:       c.errors.Load(),
		Rejected:     c.rejected.Load(),
		Canceled:     c.canceled.Load(),
		InsertedRows: c.inserted.Load(),
		Cache: CacheStats{
			Hits: hits, Misses: misses, Evictions: evictions,
			Size: size, Capacity: capacity,
		},
		BucketLabels: BucketLabels,
		Endpoints:    map[string]EndpointStats{},
	}
	for _, ep := range []struct {
		name string
		h    *histogram
	}{
		{"/query", &c.query}, {"/insert", &c.insert}, {"/explain", &c.explain},
		{"/stats", &c.stats}, {"/healthz", &c.healthz},
	} {
		es := EndpointStats{Count: ep.h.total.Load(), Buckets: make([]uint64, len(BucketLabels))}
		for i := range es.Buckets {
			es.Buckets[i] = ep.h.counts[i].Load()
		}
		st.Endpoints[ep.name] = es
	}
	return st
}
