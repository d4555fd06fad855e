package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// environment is recorded with every result file: numbers from
// different commits, machines or settings are not comparable.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

func currentEnvironment(cfg config) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads: one or more runs
// of each workload.
type resultFile struct {
	Environment environment `json:"environment"`
	Results     []*result   `json:"results"`
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's values over a file's runs of a workload.
func (f *resultFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Results {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a
// share of the median (0 for fewer than two values); the quartiles are
// those of Python's statistics.quantiles(v, n=4), the exclusive method.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}

// verdict judges b's median against a's for one metric: "worse" past
// the bound, "better" past it the other way, "unresolved" when either
// side's own run-to-run spread is wider than the bound (the medians
// cannot be told apart that finely), else "within bound".
func verdict(def metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	worse := (mb - ma) / ma // positive = b worse
	if def.better == "higher" {
		worse = -worse
	}
	switch {
	case max(spread(a), spread(b)) > def.bound:
		return "unresolved", worse
	case worse > def.bound:
		return "worse", worse
	case worse < -def.bound:
		return "better", worse
	}
	return "within bound", worse
}

// compareFiles prints one row per (metric, workload) and reports
// whether any is worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Environment.Scale != b.Environment.Scale || a.Environment.Seconds != b.Environment.Seconds {
		fmt.Fprintf(w, "warning: settings differ (scale %v vs %v, seconds %v vs %v)\n",
			a.Environment.Scale, b.Environment.Scale, a.Environment.Seconds, b.Environment.Seconds)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median\tb median\tb worse by\ta spread\tb spread\tbound\tverdict")
	anyWorse := false
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a.values(wl.name, def.name), b.values(wl.name, def.name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			v, by := "unresolved", 0.0
			if len(va) > 0 && len(vb) > 0 {
				v, by = verdict(def, va, vb)
			}
			if def.reported {
				v = "reported (" + v + ")"
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.name, def.name, def.unit, median(va), median(vb), 100*by, 100*spread(va), 100*spread(vb), 100*def.bound, v)
		}
		fa, fb := failedShare(a, wl.name), failedShare(b, wl.name)
		v := "within bound"
		if fb > fa { // failed_share may not rise at all
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.6f\t%.6f\t\t\t\t0%%\t%s\n", wl.name, fa, fb, v)
	}
	return anyWorse, tw.Flush()
}

// failedShare is failed over attempted across a file's timed runs of a
// workload.
func failedShare(f *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Results {
		if r.Workload == workload && !r.Traced {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}
