package table

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateLoadOutcomes = flag.Bool("update-load-outcomes", false, "rewrite testdata/load-outcomes.json from the current reader")

const loadOutcomesFile = "testdata/load-outcomes.json"

// loadOutcome is what one load of one input came to.
type loadOutcome struct {
	Quarantine  bool                 `json:"quarantine"`
	Err         string               `json:"error,omitempty"`
	Rows        int                  `json:"rows"` // -1 when the load failed
	Quarantined []QuarantinedSegment `json:"quarantined,omitempty"`
}

type inputOutcomes struct {
	Input string        `json:"input"`
	Loads []loadOutcome `json:"loads"`
}

// loadInput is one image the golden load outcomes cover.
type loadInput struct {
	name string
	img  []byte
}

// imageFrames walks every section frame of a table image in stream
// order, descending into a sharded envelope's shard images, and returns
// them with offsets into img. bounds collects every section boundary and
// every shard image's length word and start; segs collects the frames
// that hold a segment's payload or index image.
func imageFrames(t *testing.T, img []byte, base int, bounds *[]int, segs *[]frame) []frame {
	t.Helper()
	le := binary.LittleEndian
	version, off := le.Uint16(img[4:]), 6
	*bounds = append(*bounds, base+off)
	var out []frame
	next := func() []byte {
		n := int(le.Uint32(img[off:]))
		out = append(out, frame{payload: base + off + 4, n: n})
		payload := img[off+4 : off+4+n]
		off += 4 + n + 4
		*bounds = append(*bounds, base+off)
		return payload
	}
	switch version {
	case tableVersionCRC:
		next()
		for off < len(img) {
			colhdr := next() // its last field is the segment count
			for range 2 * le.Uint32(colhdr[len(colhdr)-4:]) {
				next()
				*segs = append(*segs, out[len(out)-1])
			}
		}
	case shardVersionCRC:
		next()
		for off < len(img) {
			n := int(le.Uint64(img[off:]))
			out = append(out, imageFrames(t, img[off+8:off+8+n], base+off+8, bounds, segs)...)
			off += 8 + n
			*bounds = append(*bounds, base+off)
		}
	default:
		t.Fatalf("version %d", version)
	}
	return out
}

// loadInputs is the fixed input set: every committed FuzzRead seed, and
// of each fixture image the image itself, a truncation at every section
// boundary and one byte either side, one bit flip per section, and one
// bit flip in every segment section at once, each flip with and without
// refitted checksums. The last pins which of many errors a load reports
// and the order of its quarantine casualties.
func loadInputs(t *testing.T) []loadInput {
	t.Helper()
	var ins []loadInput
	seeds, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzRead", "*"))
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(seeds)
	for _, path := range seeds {
		data, refit := readFuzzReadSeed(t, path)
		if refit && refitChecksums(data) > 1<<20 {
			continue // FuzzRead skips these too
		}
		ins = append(ins, loadInput{"seed/" + filepath.Base(path), data})
	}
	for _, name := range []string{"image-v5.ctbl", "image-v6.ctbl"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, loadInput{name, img})
		var bounds []int
		var segs []frame
		frames := imageFrames(t, img, 0, &bounds, &segs)
		var cuts []int
		for _, b := range bounds {
			for _, c := range []int{b - 1, b, b + 1} {
				if c > 0 && c < len(img) {
					cuts = append(cuts, c)
				}
			}
		}
		slices.Sort(cuts)
		for _, c := range slices.Compact(cuts) {
			ins = append(ins, loadInput{fmt.Sprintf("%s/truncate-%d", name, c), img[:c]})
		}
		flips := func(label string, bad []byte) {
			ins = append(ins, loadInput{name + "/" + label, bad})
			refit := append([]byte(nil), bad...)
			refitChecksums(refit)
			ins = append(ins, loadInput{name + "/" + label + "-refit", refit})
		}
		for i, fr := range frames {
			flips(fmt.Sprintf("flip-section-%d", i), flipBit(img, fr))
		}
		every := img
		for _, fr := range segs {
			every = flipBit(every, fr)
		}
		flips("flip-every-segment", every)
	}
	return ins
}

// readFuzzReadSeed parses one committed FuzzRead corpus file: a []byte
// and a bool, each in Go syntax on its own line.
func readFuzzReadSeed(t *testing.T, path string) ([]byte, bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a two-value corpus file", path)
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok {
		t.Fatalf("%s: first value is not a []byte", path)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	refit, err := strconv.ParseBool(strings.TrimSuffix(strings.TrimPrefix(lines[2], "bool("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data), refit
}

// loadOutcomes loads every input with quarantine off and on and renders
// what each load came to.
func loadOutcomes(t *testing.T, ins []loadInput) []byte {
	t.Helper()
	out := make([]inputOutcomes, 0, len(ins))
	for _, in := range ins {
		rec := inputOutcomes{Input: in.name}
		for _, quarantine := range []bool{false, true} {
			o := loadOutcome{Quarantine: quarantine, Rows: -1}
			tb, rep, err := ReadWithOptions(bytes.NewReader(in.img), LoadOptions{Quarantine: quarantine})
			if err != nil {
				o.Err = err.Error()
			} else {
				o.Rows = tb.Rows()
				o.Quarantined = rep.Quarantined
			}
			rec.Loads = append(rec.Loads, o)
		}
		out = append(out, rec)
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestLoadOutcomes pins what the reader makes of damaged and truncated
// images — error text, quarantine casualties in stream order, row count —
// against testdata/load-outcomes.json, at GOMAXPROCS 1 and 4, so that
// decoding segments concurrently can change neither which error wins nor
// the order casualties are reported in. Regenerate only on purpose, with
// -update-load-outcomes, and explain every changed record.
func TestLoadOutcomes(t *testing.T) {
	ins := loadInputs(t)
	if *updateLoadOutcomes {
		if err := os.WriteFile(loadOutcomesFile, loadOutcomes(t, ins), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(loadOutcomesFile)
	if err != nil {
		t.Fatal(err)
	}
	var wantRecs []inputOutcomes
	if err := json.Unmarshal(want, &wantRecs); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := loadOutcomes(t, ins)
		if bytes.Equal(got, want) {
			continue
		}
		var gotRecs []inputOutcomes
		if err := json.Unmarshal(got, &gotRecs); err != nil {
			t.Fatal(err)
		}
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("GOMAXPROCS %d: %d inputs, golden file has %d", procs, len(gotRecs), len(wantRecs))
		}
		for i := range gotRecs {
			g, _ := json.Marshal(gotRecs[i])
			w, _ := json.Marshal(wantRecs[i])
			if !bytes.Equal(g, w) {
				t.Errorf("GOMAXPROCS %d: %s\n got %s\nwant %s", procs, gotRecs[i].Input, g, w)
			}
		}
		t.Fatalf("GOMAXPROCS %d: outcomes differ from %s", procs, loadOutcomesFile)
	}
}

// TestReadLeavesNoGoroutines holds every failing load of the golden
// corpus to leaving no goroutine behind: a load that stops at damage
// must have stopped its segment decoders before it returns.
func TestReadLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	failed := 0
	for _, in := range loadInputs(t) {
		for _, quarantine := range []bool{false, true} {
			before := runtime.NumGoroutine()
			_, _, err := ReadWithOptions(bytes.NewReader(in.img), LoadOptions{Quarantine: quarantine})
			if err == nil {
				continue
			}
			failed++
			// A decoder that has signalled done may still be unwinding.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Fatalf("%s, quarantine=%t: %d goroutines after the failed load, %d before (%v)", in.name, quarantine, n, before, err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no load in the corpus failed")
	}
}
