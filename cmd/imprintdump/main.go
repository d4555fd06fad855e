// Command imprintdump builds a column imprints index over a binary
// column file (written by imprintgen) and reports its statistics:
// geometry, compression, entropy, size against zonemap and WAH, and a
// Figure 3 style fingerprint. The measurement is the paper harness's
// own (harness.MeasureColumn, index seed 42), so with -queries the
// sweep is one query per selectivity step of the paper's workload.
//
// Usage:
//
//	imprintdump [-lines 24] [-queries] file.col
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/colfile"
	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/harness"
)

func main() {
	var (
		lines   = flag.Int("lines", 24, "fingerprint lines to print (0 = none)")
		queries = flag.Bool("queries", false, "run the selectivity sweep and print per-query times")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: imprintdump [-lines N] [-queries] file.col")
		os.Exit(2)
	}
	path := flag.Arg(0)
	col, err := readColumn(path)
	if err != nil {
		fatal(err)
	}
	run, err := measure(col, *lines, *queries)
	if err != nil {
		fatal(err)
	}
	fmt.Print(render(run))
}

// readColumn decodes a column file as a column named after its path.
func readColumn(path string) (column.Any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	kind, err := colfile.Kind(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	switch kind {
	case reflect.Int8:
		return decode[int8](path, b)
	case reflect.Int16:
		return decode[int16](path, b)
	case reflect.Int32:
		return decode[int32](path, b)
	case reflect.Int64:
		return decode[int64](path, b)
	case reflect.Uint8:
		return decode[uint8](path, b)
	case reflect.Uint16:
		return decode[uint16](path, b)
	case reflect.Uint32:
		return decode[uint32](path, b)
	case reflect.Uint64:
		return decode[uint64](path, b)
	case reflect.Float32:
		return decode[float32](path, b)
	case reflect.Float64:
		return decode[float64](path, b)
	}
	return nil, fmt.Errorf("unsupported value kind %v", kind)
}

func decode[V coltype.Value](name string, b []byte) (column.Any, error) {
	vals, err := colfile.Decode[V](b)
	if err != nil {
		return nil, err
	}
	return column.New(name, vals), nil
}

// measure builds the three indexes over col; lines > 0 keeps that many
// fingerprint lines and withQueries runs the selectivity sweep.
func measure(col column.Any, lines int, withQueries bool) (*harness.ColumnRun, error) {
	if col.Len() == 0 {
		return nil, errors.New("column " + col.Name() + " is empty")
	}
	cfg := harness.Config{Seed: 42, QueriesPerSelectivity: 1}
	return harness.MeasureColumn("", col, cfg, withQueries, lines), nil
}

// render formats a measured column for the terminal.
func render(r *harness.ColumnRun) string {
	var sb strings.Builder
	sz := func(b int64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }
	pct := func(b int64) float64 { return 100 * float64(b) / float64(r.ColBytes) }
	fmt.Fprintf(&sb, "column        %s (%s, %d rows, %s)\n", r.Column, r.TypeName, r.Rows, sz(r.ColBytes))
	fmt.Fprintf(&sb, "bins          %d (%d unique sampled)\n", r.Bins, r.SampledUnique)
	fmt.Fprintf(&sb, "cachelines    %d (%d values each)\n", r.Cachelines, r.ValuesPerCacheline)
	fmt.Fprintf(&sb, "dict entries  %d\n", r.DictEntries)
	fmt.Fprintf(&sb, "vectors       %d stored (compression ratio %.4f)\n", r.StoredVectors, r.Compression)
	fmt.Fprintf(&sb, "entropy       %.6f\n", r.Entropy)
	fmt.Fprintf(&sb, "build time    %v\n", r.Imprints.BuildTime)
	fmt.Fprintf(&sb, "index sizes   imprints %s | zonemap %s | wah %s\n",
		sz(r.Imprints.SizeBytes), sz(r.Zonemap.SizeBytes), sz(r.WAH.SizeBytes))
	fmt.Fprintf(&sb, "overhead      imprints %.1f%% | zonemap %.1f%% | wah %.1f%%\n",
		pct(r.Imprints.SizeBytes), pct(r.Zonemap.SizeBytes), pct(r.WAH.SizeBytes))
	if r.FingerprintHead != "" {
		fmt.Fprintf(&sb, "\nimprint fingerprint:\n%s", r.FingerprintHead)
	}
	if len(r.Queries) > 0 {
		sb.WriteString("\nselectivity sweep ([low,high) per step, times in µs):\n")
		sb.WriteString("sel      scan     imprints zonemap  wah      results\n")
		for _, q := range r.Queries {
			fmt.Fprintf(&sb, "%-8.3f %-8d %-8d %-8d %-8d %d\n",
				q.Selectivity, q.ScanNs/1000, q.ImpNs/1000, q.ZmNs/1000, q.WahNs/1000, q.ResultCount)
		}
	}
	return sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "imprintdump:", err)
	os.Exit(1)
}
