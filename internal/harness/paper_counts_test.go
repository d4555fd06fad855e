package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/coltype"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/wah"
	"repro/internal/zonemap"
)

// The paper-counts gate pins the integer outputs behind the paper's
// experiments — Table 1 and the index sizes of Figures 5–7, and the
// Probes/Comparisons and cacheline tallies of Figure 11 for imprints,
// zonemap and WAH — at scale 0.1, seed 42, where every dataset and
// query is PCG-seeded and so reproducible bit for bit. Wall times are
// left out. A change that alters a count on purpose regenerates the
// file with
//
//	go test ./internal/harness -run TestPaperCounts -update-paper-counts
//
// and explains every changed field.

var updatePaperCounts = flag.Bool("update-paper-counts", false, "rewrite testdata/paper-counts.json")

const paperCountsFile = "testdata/paper-counts.json"

func paperCountsCfg() Config { return Config{Scale: 0.1, Seed: 42} }

// paperColumn is one dataset column: its geometry, the three index
// footprints, and the imprint-driven Min and Max.
type paperColumn struct {
	Dataset       string     `json:"dataset"`
	Column        string     `json:"column"`
	Type          string     `json:"type"`
	Rows          int        `json:"rows"`
	ColBytes      int64      `json:"col_bytes"`
	ImprintsBytes int64      `json:"imprints_bytes"`
	ZonemapBytes  int64      `json:"zonemap_bytes"`
	WAHBytes      int64      `json:"wah_bytes"`
	Min           string     `json:"min"`
	MinStats      coreCounts `json:"min_stats"`
	Max           string     `json:"max"`
	MaxStats      coreCounts `json:"max_stats"`
}

// paperStep sums the queries of one selectivity step over one column.
type paperStep struct {
	Dataset  string     `json:"dataset"`
	Column   string     `json:"column"`
	Step     int        `json:"step"`
	Queries  int        `json:"queries"`
	IDs      int        `json:"ids"`
	IDsHash  string     `json:"ids_fnv64a"` // of every id of the step, in query order
	Imprints coreCounts `json:"imprints"`
	Count    uint64     `json:"count"` // CountRange's answers, summed
	CountSt  coreCounts `json:"count_stats"`
	Zonemap  zoneCounts `json:"zonemap"`
	WAH      wahCounts  `json:"wah"`
}

type coreCounts struct {
	Probes      uint64 `json:"probes"`
	Comparisons uint64 `json:"comparisons"`
	Exact       uint64 `json:"cl_exact"`
	Scanned     uint64 `json:"cl_scanned"`
	Skipped     uint64 `json:"cl_skipped"`
}

func (c *coreCounts) add(st core.QueryStats) {
	c.Probes += st.Probes
	c.Comparisons += st.Comparisons
	c.Exact += st.CachelinesExact
	c.Scanned += st.CachelinesScanned
	c.Skipped += st.CachelinesSkipped
}

type zoneCounts struct {
	Probes      uint64 `json:"probes"`
	Comparisons uint64 `json:"comparisons"`
	Exact       uint64 `json:"zones_exact"`
	Scanned     uint64 `json:"zones_scanned"`
	Skipped     uint64 `json:"zones_skipped"`
}

type wahCounts struct {
	Probes      uint64 `json:"probes"`
	Comparisons uint64 `json:"comparisons"`
	BinsProbed  uint64 `json:"bins_probed"`
}

// paperCounts measures one column, appending its records as JSON lines:
// the column first, then one line per selectivity step.
func paperCounts[V coltype.Value](lines []string, dsName string, col *column.Column[V], cfg Config) []string {
	vals := col.Values()
	imp := core.Build(vals, core.Options{Seed: cfg.Seed})
	zm := zonemap.Build(vals, zonemap.Options{})
	wb := wah.BuildWithHistogram(vals, imp.Histogram())

	pc := paperColumn{
		Dataset: dsName, Column: col.Name(), Type: col.TypeName(),
		Rows: col.Len(), ColBytes: col.SizeBytes(),
		ImprintsBytes: imp.SizeBytes(), ZonemapBytes: zm.SizeBytes(), WAHBytes: wb.SizeBytes(),
	}
	lo, st := imp.Min()
	pc.Min = fmt.Sprint(lo)
	pc.MinStats.add(st)
	hi, st := imp.Max()
	pc.Max = fmt.Sprint(hi)
	pc.MaxStats.add(st)
	lines = append(lines, jsonLine(pc))

	// The queries of measure, in its order: perSel per step.
	perSel := cfg.queriesPerSel()
	queries := Ranges(vals, DefaultSelectivities(), perSel, cfg.Seed+uint64(len(vals)))
	res := make([]uint32, 0, len(vals))
	for s := 0; s*perSel < len(queries); s++ {
		ps := paperStep{Dataset: dsName, Column: col.Name(), Step: s}
		h := fnv.New64a()
		var b [4]byte
		for _, q := range queries[s*perSel : min((s+1)*perSel, len(queries))] {
			ps.Queries++
			ids, ist := imp.RangeIDs(q.Low, q.High, res[:0])
			ps.IDs += len(ids)
			for _, id := range ids {
				b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
				h.Write(b[:])
			}
			ps.Imprints.add(ist)

			n, cst := imp.CountRange(q.Low, q.High)
			ps.Count += n
			ps.CountSt.add(cst)

			_, zst := zm.RangeIDs(q.Low, q.High, res[:0])
			ps.Zonemap.Probes += zst.Probes
			ps.Zonemap.Comparisons += zst.Comparisons
			ps.Zonemap.Exact += zst.ZonesExact
			ps.Zonemap.Scanned += zst.ZonesScanned
			ps.Zonemap.Skipped += zst.ZonesSkipped

			_, wst := wb.RangeIDs(q.Low, q.High, res[:0])
			ps.WAH.Probes += wst.Probes
			ps.WAH.Comparisons += wst.Comparisons
			ps.WAH.BinsProbed += wst.BinsProbed
		}
		ps.IDsHash = fmt.Sprintf("%016x", h.Sum64())
		lines = append(lines, jsonLine(ps))
	}
	return lines
}

func jsonLine(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// paperCountsColumn dispatches a type-erased column to paperCounts.
func paperCountsColumn(lines []string, dsName string, c column.Any, cfg Config) []string {
	switch col := c.(type) {
	case *column.Column[int8]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[int16]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[int32]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[int64]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[uint8]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[uint16]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[uint32]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[uint64]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[float32]:
		return paperCounts(lines, dsName, col, cfg)
	case *column.Column[float64]:
		return paperCounts(lines, dsName, col, cfg)
	}
	panic(fmt.Sprintf("harness: unsupported column type %T", c))
}

// renderPaperCounts measures every column of every dataset into the
// committed file's form: a JSON array, one record per line.
func renderPaperCounts(cfg Config) []byte {
	var lines []string
	for _, ds := range dataset.All(dataset.Config{Scale: cfg.Scale, Seed: cfg.Seed}) {
		for _, c := range ds.Columns {
			lines = paperCountsColumn(lines, ds.Name, c, cfg)
		}
	}
	return []byte("[\n" + strings.Join(lines, ",\n") + "\n]\n")
}

func TestPaperCounts(t *testing.T) {
	got := renderPaperCounts(paperCountsCfg())
	if *updatePaperCounts {
		if err := os.WriteFile(paperCountsFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", paperCountsFile, len(got))
		return
	}
	want, err := os.ReadFile(paperCountsFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update-paper-counts)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Errorf("%d lines, %s has %d", len(gl), paperCountsFile, len(wl))
	}
	shown := 0
	for i := 0; i < min(len(gl), len(wl)) && shown < 20; i++ {
		if gl[i] != wl[i] {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gl[i], wl[i])
			shown++
		}
	}
	t.Fatalf("paper counts differ from %s; if the change is intended, rerun with -update-paper-counts and explain each delta", paperCountsFile)
}
