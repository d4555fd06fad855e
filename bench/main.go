// Command bench is the imprintd serving benchmark: a seeded,
// self-checking load test that drives a real cmd/imprintd child over
// loopback HTTP for the end-to-end numbers, and a separate traced run
// that times the public entry points of internal/server, internal/sql,
// table, internal/core and internal/wal on the same generated inputs
// for the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Uint64("seed", 42, "generator seed: dataset and request streams derive from it alone")
		scale        = flag.Float64("scale", 1, "dataset scale (1 = 2,000,000 rows)")
		seconds      = flag.Float64("seconds", 30, "measured window per workload, after the warm-up")
		trace        = flag.Int("trace", 0, "1 = the traced per-layer run instead of the timed run")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		runs         = flag.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "also write the results to this JSON file (the input of -compare)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := config{seed: *seed, scale: *scale, seconds: *seconds, outDir: "out"}
	todo := workloads
	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fatal(err)
		}
		todo = []workload{*w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	bin, err := buildImprintd(cfg.outDir)
	if err != nil {
		fatal(err)
	}
	env := currentEnvironment(cfg)
	fmt.Printf("commit %s, %s, GOMAXPROCS %d, cpu %q, seed %d, scale %g, %gs measured after %s warm-up\n",
		env.Commit, env.GoVersion, env.GOMAXPROCS, env.CPU, env.Seed, env.Scale, env.Seconds, cfg.warmup())

	var results []*result
	correct := true
	for run := 0; run < *runs; run++ {
		for i := range todo {
			rcfg := cfg
			rcfg.seed += uint64(run)
			var res *result
			if *trace != 0 {
				res, err = tracedRun(&todo[i], rcfg, bin)
			} else {
				res, err = timedRun(&todo[i], rcfg, bin)
			}
			if err != nil {
				fatal(err)
			}
			printResult(res)
			results = append(results, res)
			correct = correct && res.Correct
		}
	}
	if *out != "" {
		if err := writeJSON(*out, resultFile{Environment: env, Results: results}); err != nil {
			fatal(err)
		}
	}
	if len(results) == 1 {
		// The contract's last line: exactly the metrics BENCHMARK.json
		// lists for this kind of run.
		r := results[0]
		line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
		for name, m := range r.Metrics {
			if def, ok := findEndToEnd(name); ok && !def.driverFacing() {
				continue
			}
			line.Metrics[name] = m
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func findEndToEnd(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints every metric of a run by name with its unit.
func printResult(r *result) {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Printf("\n== %s (%s): attempted %d, failed %d, latency samples %d, correct %v\n",
		r.Workload, kind, r.Attempted, r.Failed, r.Samples, r.Correct)
	for _, group := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-32s %14.4f %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Printf("  ! %s\n", e)
	}
}
