package main

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/colfile"
	"repro/internal/column"
)

func TestColumnReport(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	vals := make([]int64, 10000)
	for i := range vals {
		vals[i] = int64(rng.IntN(100000))
	}
	r, err := measure(column.New("test.col", vals), 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 10000 || r.TypeName != "int64" || r.ColBytes != 80000 {
		t.Errorf("geometry: %+v", r)
	}
	if r.Bins == 0 || r.Cachelines != 1250 || r.ValuesPerCacheline != 8 {
		t.Errorf("index geometry: %+v", r)
	}
	if r.SampledUnique == 0 || r.DictEntries == 0 || r.StoredVectors == 0 || r.Compression <= 0 || r.Compression > 1 {
		t.Errorf("dictionary: %+v", r)
	}
	if r.Entropy < 0 || r.Entropy > 1 {
		t.Errorf("entropy %v", r.Entropy)
	}
	if r.Imprints.SizeBytes <= 0 || r.Zonemap.SizeBytes <= 0 || r.WAH.SizeBytes <= 0 {
		t.Error("index sizes missing")
	}
	if strings.Count(r.FingerprintHead, "\n") != 8 {
		t.Errorf("fingerprint lines: %q", r.FingerprintHead)
	}
	if len(r.Queries) != 10 {
		t.Errorf("sweep rows = %d", len(r.Queries))
	}
	for _, q := range r.Queries {
		if q.Selectivity < 0 || q.Selectivity > 1 {
			t.Errorf("sweep selectivity %v", q.Selectivity)
		}
	}
}

func TestColumnReportNoExtras(t *testing.T) {
	r, err := measure(column.New("tiny", []float32{1, 2, 3, 4, 5}), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.FingerprintHead != "" || len(r.Queries) != 0 {
		t.Error("extras generated despite being disabled")
	}
}

func TestColumnReportEmpty(t *testing.T) {
	if _, err := measure(column.New("empty", []int64{}), 0, false); err == nil {
		t.Fatal("empty column accepted")
	}
}

func TestRender(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	vals := make([]int32, 5000)
	for i := range vals {
		vals[i] = int32(rng.IntN(1000))
	}
	path := filepath.Join(t.TempDir(), "render.col")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := colfile.Write(f, vals); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	col, err := readColumn(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := measure(col, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	out := render(r)
	for _, want := range []string{"render.col", "int32", "5000 rows", "bins", "cachelines",
		"dict entries", "vectors", "entropy", "build time", "imprints", "zonemap", "wah",
		"selectivity sweep", "fingerprint"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
