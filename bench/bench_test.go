package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

const testScale = 0.02

// imageHash builds the orders table for a seed and hashes its image.
func imageHash(t *testing.T, seed uint64) string {
	t.Helper()
	tbl, err := genDataset(seed, testScale).buildTable(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func requestHash(seed uint64) string {
	ds := genDataset(seed, testScale)
	h := ""
	for i := range workloads {
		for client := 0; client < 2; client++ {
			h += hashRequests(workloads[i].stream(ds, client, 256))
		}
	}
	return h + hex.EncodeToString(ds.insertBody(3))
}

// The generator derives from the seed alone: same seed, same bytes.
func TestGeneratorDeterministic(t *testing.T) {
	if a, b := imageHash(t, 7), imageHash(t, 7); a != b {
		t.Errorf("same seed, different image hashes %s and %s", a, b)
	}
	if a, b := imageHash(t, 7), imageHash(t, 8); a == b {
		t.Errorf("seeds 7 and 8 produced the same image")
	}
	if a, b := requestHash(7), requestHash(7); a != b {
		t.Errorf("same seed, different request lists")
	}
	if a, b := requestHash(7), requestHash(8); a == b {
		t.Errorf("seeds 7 and 8 produced the same request list")
	}
}

func TestPercentile(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(1000-i) * time.Millisecond // 1..1000 ms, unsorted
	}
	if v, err := percentile(lat, 0.50); err != nil || v != 500 {
		t.Errorf("p50 = %v, %v; want 500", v, err)
	}
	if v, err := percentile(lat, 0.99); err != nil || v != 990 {
		t.Errorf("p99 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(lat[:999], 0.99); err == nil {
		t.Errorf("p99 over 999 samples was not refused")
	}
	if _, err := percentile(lat[:999], 0.50); err != nil {
		t.Errorf("p50 over 999 samples refused: %v", err)
	}
	if _, err := percentile(nil, 0.50); err == nil {
		t.Errorf("p50 over no samples was not refused")
	}
}

// spread uses the quartiles of Python's statistics.quantiles(v, n=4):
// for 1..10 they are 2.75, 5.5 and 8.25.
func TestSpread(t *testing.T) {
	v := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 100, 101, 99, 100}
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "within bound"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "worse"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "better"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "worse"},
		{higher, steady, []float64{115, 114, 116, 115, 115}, "better"},
		{lower, []float64{60, 100, 140, 80, 120}, []float64{115, 114, 116, 115, 115}, "unresolved"},
	} {
		if got, _ := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", tc.def.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// The oracle's three evaluations agree on every statement, and a
// tampered answer is caught.
func TestOracle(t *testing.T) {
	ds := genDataset(3, testScale)
	tbl, err := ds.buildTable(2)
	if err != nil {
		t.Fatal(err)
	}
	base := ds.slice(0, ds.base)
	reqs := recoveryChecks(ds)
	for i := range workloads {
		reqs = append(reqs, workloads[i].stream(ds, 0, 40)...)
	}
	for _, r := range reqs {
		ts, err := prepareTable(tbl, r.st)
		if err != nil {
			t.Fatalf("%s: %v", r.st.sql(), err)
		}
		got, err := ts.exec(r)
		if err != nil {
			t.Fatalf("%s: %v", r.body, err)
		}
		want := eval(&base, r, ds.base)
		if err := sameAnswer(got, want); err != nil {
			t.Fatalf("%s: table API vs brute force: %v", r.body, err)
		}
		if err := withinBounds(r, got, want, eval(&ds.columns, r, ds.rows())); err != nil {
			t.Errorf("%s: exact answer outside its own bounds: %v", r.body, err)
		}
		if len(want.rows) == 0 {
			continue
		}
		// Tamper with the first cell: a count or sum grows past what any
		// insert could explain, a string or NULL changes.
		bad := answer{cols: got.cols, rows: append([][]any{append([]any(nil), got.rows[0]...)}, got.rows[1:]...)}
		switch c := bad.rows[0][0].(type) {
		case int64:
			bad.rows[0][0] = c + 1<<40
		case float64:
			bad.rows[0][0] = c + 1e12
		case string:
			bad.rows[0][0] = "zz-9"
		default:
			bad.rows[0][0] = int64(1)
		}
		if sameAnswer(bad, want) == nil {
			t.Errorf("%s: tampered answer passed the exact check", r.body)
		}
		if len(r.st.aggs) > 0 && r.st.aggs[0].fn != "min" && withinBounds(r, bad, want, want) == nil {
			t.Errorf("%s: tampered answer passed the bounds check", r.body)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// BENCHMARK.json repeats the tables in gen.go and metrics.go.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in gen.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), gen.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, defs []metricDef, bounded bool) {
		var want []metricDef
		for _, d := range defs {
			if d.driverFacing() {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || bounded && g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if d.ingestOnly && res.Workload != "mixed-ingest" {
			continue
		}
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", res.Workload, d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
		}
	}
	if len(res.Metrics) > len(defs) {
		t.Errorf("%s: %d metrics reported, only %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
		t.Errorf("%s: attempted %d, failed %d, correct %v: %v", res.Workload, res.Attempted, res.Failed, res.Correct, res.Errors)
	}
}

// All four workloads and their traced runs, small and short, against a
// real imprintd child: every metric is present, finite and carries its
// unit, nothing fails, every sampled answer is right, and mixed-ingest
// loses no acknowledged row over kill -9.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns imprintd; skipped with -short")
	}
	cfg := config{seed: 11, scale: testScale, seconds: 5, outDir: "out"}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bin, err := buildImprintd(cfg.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			res, err := timedRun(w, cfg, bin)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			if fs := res.Info["failed_share"]; fs.Value != 0 {
				t.Errorf("failed_share = %v", fs.Value)
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			res, err := tracedRun(w, cfg, bin)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
