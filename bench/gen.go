package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/table"
)

// Everything the benchmark feeds imprintd — the orders relation, the
// insert batches and every client's request stream — derives from
// (-seed, -scale) through PCG streams and nothing else, so two runs of
// one seed serve byte-identical images and send byte-identical
// requests.

const (
	rowsAtScale1 = 2_000_000
	// batchRows is the /insert batch size of mixed-ingest.
	batchRows = 512
	// poolBatches is how many distinct insert batches are generated;
	// the writer cycles through them, so inserted rows repeat after
	// poolBatches*batchRows rows (the oracle replays the same cycle).
	poolBatches = 256
	// streamLen is the number of pre-generated requests per client;
	// a client cycles through its stream when a run outlasts it.
	streamLen = 8192
	qtyDomain = 1_000_000
	tsStep    = 10   // ts advances by tsStep per row ...
	tsJitter  = 1000 // ... plus a jitter in [0, tsJitter): near-sorted
)

var colNames = []string{"ts", "qty", "price", "pri", "city"}

// columns is the orders relation, column-major.
type columns struct {
	ts, qty []int64
	price   []float64
	pri     []uint8
	city    []string
}

func (c *columns) rows() int { return len(c.ts) }

func (c *columns) slice(lo, hi int) columns {
	return columns{c.ts[lo:hi], c.qty[lo:hi], c.price[lo:hi], c.pri[lo:hi], c.city[lo:hi]}
}

func (c *columns) append(o columns) {
	c.ts = append(c.ts, o.ts...)
	c.qty = append(c.qty, o.qty...)
	c.price = append(c.price, o.price...)
	c.pri = append(c.pri, o.pri...)
	c.city = append(c.city, o.city...)
}

// dataset is one generated relation: the first base rows are the served
// image, the rest is the insert pool of mixed-ingest (the same
// generators simply keep running, so inserted rows continue the ts
// sequence and the price walk the way late orders would).
type dataset struct {
	columns
	seed        uint64
	base        int
	cities      []string  // the 64 city values, ascending
	priceSorted []float64 // base prices ascending: quantile -> value
}

func genDataset(seed uint64, scale float64) *dataset {
	base := int(rowsAtScale1 * scale)
	base = max(base, 8192)
	n := base + poolBatches*batchRows
	ds := &dataset{seed: seed, base: base}

	// ts: serial with bounded jitter, the clustered case imprints compress.
	rng := rand.New(rand.NewPCG(seed, 1))
	ds.ts = make([]int64, n)
	for i := range ds.ts {
		ds.ts[i] = int64(i)*tsStep + rng.Int64N(tsJitter)
	}
	// qty: uniform, the paper's worst case (every cacheline looks alike).
	rng = rand.New(rand.NewPCG(seed, 2))
	ds.qty = make([]int64, n)
	for i := range ds.qty {
		ds.qty[i] = rng.Int64N(qtyDomain)
	}
	// price: a reflected random walk in cents, locally clustered.
	rng = rand.New(rand.NewPCG(seed, 3))
	ds.price = make([]float64, n)
	p := 500.0
	for i := range ds.price {
		p += (rng.Float64() - 0.5) * 4
		if p < 1 {
			p = 2 - p
		}
		if p > 1000 {
			p = 2000 - p
		}
		ds.price[i] = math.Round(p*100) / 100
	}
	// pri: five values, skewed.
	rng = rand.New(rand.NewPCG(seed, 4))
	ds.pri = make([]uint8, n)
	for i := range ds.pri {
		switch r := rng.IntN(100); {
		case r < 50:
			ds.pri[i] = 0
		case r < 75:
			ds.pri[i] = 1
		case r < 90:
			ds.pri[i] = 2
		case r < 97:
			ds.pri[i] = 3
		default:
			ds.pri[i] = 4
		}
	}
	// city: 8 regions of 8 cities; rows arrive in regional runs, so a
	// city's dictionary codes cluster the way a regional feed's would.
	for _, region := range []string{"af", "an", "as", "eu", "me", "na", "oc", "sa"} {
		for k := 0; k < 8; k++ {
			ds.cities = append(ds.cities, fmt.Sprintf("%s-%d", region, k))
		}
	}
	rng = rand.New(rand.NewPCG(seed, 5))
	ds.city = make([]string, n)
	for i := 0; i < n; {
		region := rng.IntN(8)
		run := 2048 + rng.IntN(14336)
		for end := min(n, i+run); i < end; i++ {
			ds.city[i] = ds.cities[region*8+rng.IntN(8)]
		}
	}

	ds.priceSorted = append([]float64(nil), ds.price[:base]...)
	sort.Float64s(ds.priceSorted)
	return ds
}

// buildTable indexes the base rows as the orders table, every column
// under imprints, default 64K-row segments.
func (ds *dataset) buildTable(shards int) (*table.Table, error) {
	b := ds.slice(0, ds.base)
	t := table.NewWithOptions("orders", table.TableOptions{Shards: shards})
	opts := func(i uint64) core.Options { return core.Options{Seed: ds.seed + i} }
	if err := table.AddColumn(t, "ts", b.ts, table.Imprints, opts(1)); err != nil {
		return nil, err
	}
	if err := table.AddColumn(t, "qty", b.qty, table.Imprints, opts(2)); err != nil {
		return nil, err
	}
	if err := table.AddColumn(t, "price", b.price, table.Imprints, opts(3)); err != nil {
		return nil, err
	}
	if err := table.AddColumn(t, "pri", b.pri, table.Imprints, opts(4)); err != nil {
		return nil, err
	}
	if err := t.AddStringColumn("city", b.city, table.Imprints, opts(5)); err != nil {
		return nil, err
	}
	return t, nil
}

// insertBatch returns pool batch i (cycled).
func (ds *dataset) insertBatch(i int) columns {
	lo := ds.base + (i%poolBatches)*batchRows
	return ds.slice(lo, lo+batchRows)
}

// insertBody renders pool batch i as a POST /insert body.
func (ds *dataset) insertBody(i int) []byte {
	b := ds.insertBatch(i)
	pri := make([]int, len(b.pri)) // []uint8 would marshal as base64
	for j, v := range b.pri {
		pri[j] = int(v)
	}
	body, err := json.Marshal(map[string]any{"columns": map[string]any{
		"ts": b.ts, "qty": b.qty, "price": b.price, "pri": pri, "city": b.city,
	}})
	if err != nil {
		panic(err) // numbers and strings always marshal
	}
	return body
}

// ---- statements ----

// cond is one WHERE leaf: col op $param, op one of ">=", "<", "=".
type cond struct{ col, op, param string }

// agg is one aggregate projection; col is "" for count(*).
type agg struct{ fn, col string }

func (a agg) String() string {
	if a.col == "" {
		return "count(*)"
	}
	return a.fn + "(" + a.col + ")"
}

// stmt is one parameterized statement, declaratively: its SQL text,
// the equivalent table-API call, the imprint probes and the brute-force
// evaluator are all derived from this one description, so the four
// cannot drift apart.
type stmt struct {
	cols    []string // plain projection (row statements); nil otherwise
	star    bool     // select *
	aggs    []agg
	group   string
	conds   []cond // conjunction
	orderBy string // "order by <col> desc" when set
	limit   int    // -1 when absent
}

func (s *stmt) sql() string {
	var b strings.Builder
	b.WriteString("select ")
	switch {
	case s.star:
		b.WriteString("*")
	case len(s.aggs) > 0:
		var parts []string
		if s.group != "" {
			parts = append(parts, s.group)
		}
		for _, a := range s.aggs {
			parts = append(parts, a.String())
		}
		b.WriteString(strings.Join(parts, ", "))
	default:
		b.WriteString(strings.Join(s.cols, ", "))
	}
	b.WriteString(" from orders")
	for i, c := range s.conds {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s %s $%s", c.col, c.op, c.param)
	}
	if s.group != "" {
		b.WriteString(" group by " + s.group)
	}
	if s.orderBy != "" {
		b.WriteString(" order by " + s.orderBy + " desc")
	}
	if s.limit >= 0 {
		fmt.Fprintf(&b, " limit %d", s.limit)
	}
	return b.String()
}

// projection is the result header the statement must produce.
func (s *stmt) projection() []string {
	switch {
	case s.star:
		return colNames
	case len(s.aggs) > 0:
		var out []string
		if s.group != "" {
			out = append(out, s.group)
		}
		for _, a := range s.aggs {
			out = append(out, a.String())
		}
		return out
	}
	return s.cols
}

func band(col string) []cond { return []cond{{col, ">=", "lo"}, {col, "<", "hi"}} }

var (
	countAll = []agg{{"count", ""}}

	// point-lookup: <=1 result row, the imprint prunes almost everything.
	stTsCount  = &stmt{aggs: countAll, conds: band("ts"), limit: -1}
	stTsMinMax = &stmt{aggs: []agg{{"min", "price"}, {"max", "price"}}, conds: band("ts"), limit: -1}
	stQtyPoint = &stmt{aggs: countAll, conds: []cond{{"qty", "=", "v"}}, limit: -1}
	stCityTs   = &stmt{aggs: countAll, conds: append([]cond{{"city", "=", "c"}}, band("ts")...), limit: -1}

	// wide-agg: kernels, aggregation and merge over data larger than cache.
	stPriceAgg = &stmt{aggs: []agg{{"sum", "price"}, {"avg", "price"}, {"count", ""}}, conds: band("price"), limit: -1}
	stCityGrp  = &stmt{aggs: []agg{{"count", ""}, {"sum", "qty"}}, group: "city", conds: band("qty"), limit: -1}
	stTopPrice = &stmt{cols: []string{"ts", "qty", "price"}, conds: band("qty"), orderBy: "price", limit: 10}

	// fetch-rows: ~2,000 rows materialised and JSON-encoded per reply.
	stTsRows   = &stmt{cols: colNames, conds: band("ts"), limit: 2000}
	stCityRows = &stmt{star: true, conds: []cond{{"city", "=", "c"}, {"qty", "<", "hi"}}, limit: 2000}
)

// request is one bound statement and its POST /query body.
type request struct {
	st     *stmt
	params map[string]any // int64, float64 or string
	body   []byte
}

func newRequest(st *stmt, params map[string]any) request {
	body, err := json.Marshal(map[string]any{"query": st.sql(), "params": params})
	if err != nil {
		panic(err)
	}
	return request{st: st, params: params, body: body}
}

// reqGen draws one request of a mix.
type reqGen func(ds *dataset, rng *rand.Rand) request

// tsBand binds a ts band holding between loRows and hiRows rows.
func tsBand(st *stmt, loRows, hiRows float64) reqGen {
	return func(ds *dataset, rng *rand.Rand) request {
		rows := loRows + rng.Float64()*(hiRows-loRows)
		width := max(int64(rows*tsStep), 1)
		domain := int64(ds.base) * tsStep
		lo := rng.Int64N(max(domain-width, 1))
		p := map[string]any{"lo": lo, "hi": lo + width}
		if st == stCityTs {
			p["c"] = ds.cities[rng.IntN(len(ds.cities))]
		}
		return newRequest(st, p)
	}
}

// tsShare is tsBand with the band given as a share of the table.
func tsShare(st *stmt, lo, hi float64) reqGen {
	return func(ds *dataset, rng *rand.Rand) request {
		n := float64(ds.base)
		return tsBand(st, lo*n, hi*n)(ds, rng)
	}
}

func qtyPoint(ds *dataset, rng *rand.Rand) request {
	return newRequest(stQtyPoint, map[string]any{"v": rng.Int64N(qtyDomain)})
}

// qtyRange binds a qty range selecting a lo..hi share of the rows.
func qtyRange(st *stmt, lo, hi float64) reqGen {
	return func(ds *dataset, rng *rand.Rand) request {
		width := int64((lo + rng.Float64()*(hi-lo)) * qtyDomain)
		start := rng.Int64N(qtyDomain - width)
		return newRequest(st, map[string]any{"lo": start, "hi": start + width})
	}
}

// priceRange binds a price range selecting a lo..hi share of the rows,
// through the sorted base prices (the walk is not uniform).
func priceRange(st *stmt, lo, hi float64) reqGen {
	return func(ds *dataset, rng *rand.Rand) request {
		share := lo + rng.Float64()*(hi-lo)
		q0 := rng.Float64() * (1 - share)
		n := float64(len(ds.priceSorted) - 1)
		return newRequest(st, map[string]any{
			"lo": ds.priceSorted[int(q0*n)], "hi": ds.priceSorted[int((q0+share)*n)],
		})
	}
}

func cityRows(ds *dataset, rng *rand.Rand) request {
	return newRequest(stCityRows, map[string]any{
		"c": ds.cities[rng.IntN(len(ds.cities))], "hi": qtyDomain/2 + rng.Int64N(qtyDomain/2),
	})
}

// workload is one traffic mix.
type workload struct {
	name   string
	why    string
	mix    []reqGen // drawn uniformly; see pointMix on repeats
	ingest bool     // client 1 inserts, client 2 reads, 2 shards, WAL
	// traceRequests is how many of the first generated requests the
	// traced run replays; fixed per workload (not per -seconds) so the
	// serial counts repeat exactly.
	traceRequests int
}

// A mix lists its statements in draw order; one listed twice is drawn
// twice as often. The doubling keeps the workload's median latency
// inside one statement's latency mode: with equal shares it sat on the
// boundary between two statements' modes, where a one-percent shift in
// the draw moves p50 by several percent.
var (
	pointMix = []reqGen{
		tsShare(stTsCount, 0.0001, 0.001), tsShare(stTsCount, 0.0001, 0.001), tsShare(stTsMinMax, 0.0001, 0.001),
		qtyPoint, tsShare(stCityTs, 0.0001, 0.001),
	}
	wideMix = []reqGen{
		priceRange(stPriceAgg, 0.10, 0.40), qtyRange(stCityGrp, 0.20, 0.60), qtyRange(stTopPrice, 0.10, 0.30),
	}
	fetchMix = []reqGen{tsBand(stTsRows, 2000, 4000), tsBand(stTsRows, 2000, 4000), cityRows}
)

// blend draws from each read mix with equal probability.
func blend(ds *dataset, rng *rand.Rand) request {
	mix := [][]reqGen{pointMix, wideMix, fetchMix}[rng.IntN(3)]
	return mix[rng.IntN(len(mix))](ds, rng)
}

var workloads = []workload{
	{name: "point-lookup", mix: pointMix, traceRequests: 2000,
		why: "selective counts and points: the imprint prunes nearly all, so server+sql overhead and the core probe set the time"},
	{name: "wide-agg", mix: wideMix, traceRequests: 150,
		why: "10-60% ranges aggregated, grouped and top-k'd: table kernels and merge over data larger than cache set the time"},
	{name: "fetch-rows", mix: fetchMix, traceRequests: 1000,
		why: "about 2,000 rows (~100 KB) per reply: sql row materialisation and server JSON encoding set the time"},
	{name: "mixed-ingest", mix: []reqGen{blend}, ingest: true, traceRequests: 300,
		why: "one client inserts 512-row batches (2 shards, WAL fsync always) while one reads all three mixes, then kill -9 and recovery"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream generates client c's request stream for a workload.
func (w *workload) stream(ds *dataset, client, n int) []request {
	rng := rand.New(rand.NewPCG(ds.seed, 100+uint64(client)))
	out := make([]request, n)
	for i := range out {
		out[i] = w.mix[rng.IntN(len(w.mix))](ds, rng)
	}
	return out
}

// statements lists the distinct statements of a request list.
func statements(reqs []request) []*stmt {
	seen := map[*stmt]bool{}
	var out []*stmt
	for _, r := range reqs {
		if !seen[r.st] {
			seen[r.st] = true
			out = append(out, r.st)
		}
	}
	return out
}

// hashRequests fingerprints a request list (the determinism test).
func hashRequests(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		h.Write(r.body)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
