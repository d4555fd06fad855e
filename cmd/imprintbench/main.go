// Command imprintbench regenerates the tables and figures of the column
// imprints paper (SIGMOD 2013) over the synthetic dataset suite —
// table1 and fig3 through fig11 — plus two table-layer sweeps that the
// serving benchmark in bench/ does not cover: shards (aggregate write
// rate and reader latency, writers × shards) and ingest-recover (WAL
// fsync policies and cold replay). Figures 4–11 share one measurement
// pass over the dataset columns.
//
// Usage:
//
//	imprintbench [-exp all|table1|fig3|...|fig11|shards|ingest-recover[,...]]
//	             [-scale 1.0] [-seed 42] [-queries 3] [-maxcols 0]
//	             [-format text|csv] [-json] [-outdir DIR]
//
// The default output is the text rendering of each experiment: the same
// rows and series the paper reports, regenerated at the configured
// scale. -format csv emits machine-readable rows instead (to stdout, or
// one file per experiment under -outdir), and -json emits one JSON
// document covering every experiment run — id, title, header, rows and
// elapsed milliseconds. The integer outputs (sizes, probes,
// comparisons, cacheline tallies) at scale 0.1, seed 42 are pinned by
// TestPaperCounts in internal/harness.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		exps    = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(harness.IDs(), ", ")+") or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = a few hundred thousand rows per dataset)")
		seed    = flag.Uint64("seed", 42, "deterministic generation seed")
		queries = flag.Int("queries", 3, "queries per selectivity step per column")
		maxcols = flag.Int("maxcols", 0, "max columns per dataset in query experiments (0 = all)")
		format  = flag.String("format", "text", "output format: text or csv")
		asJSON  = flag.Bool("json", false, "emit one JSON document with every experiment's results (overrides -format)")
		outdir  = flag.String("outdir", "", "with -format csv: write one CSV file per experiment here")
	)
	flag.Parse()

	if *format != "text" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "imprintbench: unknown format %q\n", *format)
		os.Exit(2)
	}
	cfg := harness.Config{
		Scale:                 *scale,
		Seed:                  *seed,
		QueriesPerSelectivity: *queries,
		MaxColumnsPerDataset:  *maxcols,
	}

	ids := harness.IDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}
	var jsonOut []jsonExperiment
	err := harness.Run(cfg, ids, func(exp *harness.Experiment) {
		elapsed := exp.Elapsed.Round(time.Millisecond)
		switch {
		case *asJSON:
			jsonOut = append(jsonOut, jsonExperiment{
				ID:        exp.ID,
				Title:     exp.Title,
				Header:    exp.Header,
				Rows:      exp.Rows,
				ElapsedMS: elapsed.Milliseconds(),
			})
		case *format == "text":
			fmt.Printf("=== %s (%v)\n%s\n", exp.Title, elapsed, exp.Text)
		case *format == "csv":
			if err := emitCSV(exp, *outdir); err != nil {
				fmt.Fprintln(os.Stderr, "imprintbench:", err)
				os.Exit(1)
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "imprintbench:", err)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "imprintbench:", err)
			os.Exit(1)
		}
	}
}

// jsonExperiment is the machine-readable form one -json run emits per
// experiment.
type jsonExperiment struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

// emitCSV writes an experiment's structured rows as CSV: to a per-
// experiment file under dir when set, otherwise to stdout with a
// leading comment line naming the experiment.
func emitCSV(exp *harness.Experiment, dir string) error {
	var w io.Writer = os.Stdout
	var f *os.File
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		f, err = os.Create(filepath.Join(dir, exp.ID+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	} else {
		fmt.Fprintf(w, "# %s\n", exp.Title)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(exp.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(exp.Rows); err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	// A buffered write can surface its error only at close; report it
	// rather than leaving a silently truncated CSV (the deferred Close
	// above then returns ErrClosed, which is safe to discard).
	if f != nil {
		return f.Close()
	}
	return nil
}
