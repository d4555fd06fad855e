package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The golden reply corpus pins every /query reply byte for byte — rows,
// row_count and the full QueryStats — so a change that claims "same
// results, same work" is checked by go test rather than by a scratch
// diff. testdata/golden-statements.json holds the data and generator
// seeds and the exact request bodies (drawn once from the randomized
// oracle's generator); testdata/golden-replies.sha256 holds one SHA-256
// per reply and configuration. A change that alters replies on purpose
// regenerates both with
//
//	go test ./internal/server -run TestGoldenReplies -update-golden
//
// and explains the difference.

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden reply corpus under testdata/")

const (
	goldenStatementsFile = "testdata/golden-statements.json"
	goldenRepliesFile    = "testdata/golden-replies.sha256"
)

// goldenCorpus is the committed statement list and how it was drawn.
type goldenCorpus struct {
	Rows       int               `json:"rows"`
	DataSeed   int64             `json:"data_seed"`
	GenSeed    int64             `json:"gen_seed"`
	Statements []json.RawMessage `json:"statements"` // POST /query bodies
}

// volatileReply matches the reply fields that are not a function of the
// plan: wall time, and pooled-scratch reuse (sync.Pool warmth decides
// it, and the race detector drops pool items at random).
var volatileReply = regexp.MustCompile(`"(elapsed_us|ScratchReused)":[0-9]+`)

func normalizeReply(b []byte) []byte {
	return volatileReply.ReplaceAll(b, []byte(`"$1":0`))
}

// loadGoldenDigests reads the committed digests, keyed by configuration
// and statement.
func loadGoldenDigests(t *testing.T) map[string]string {
	f, err := os.Open(goldenRepliesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, sum, ok := strings.Cut(sc.Text(), " sha256=")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenRepliesFile, sc.Text())
		}
		want[key] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenReplies replays the committed statements through the full
// HTTP stack at shards 1/2/4 × 0/300 rows left buffered in the delta
// store × parallelism 1/2/8 — one fresh table and server (so a fresh
// statement cache, and a deterministic "cached") per configuration —
// and requires each normalized reply to hash to its committed digest.
func TestGoldenReplies(t *testing.T) {
	corpus := goldenCorpus{Rows: 1200, DataSeed: 42, GenSeed: 271828}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenStatementsFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &corpus); err != nil {
			t.Fatal(err)
		}
	}
	_, d := newOrdersTable(t, corpus.Rows, corpus.DataSeed)
	var want map[string]string
	if *updateGolden {
		rng := rand.New(rand.NewSource(corpus.GenSeed))
		for range 70 {
			gc := generate(rng, d)
			corpus.Statements = append(corpus.Statements, marshalNoEscape(t, QueryRequest{Query: gc.sql, Params: gc.params}))
		}
	} else {
		want = loadGoldenDigests(t)
	}

	var digests bytes.Buffer
	replayed := 0
	for _, shards := range []int{1, 2, 4} {
		for _, buffered := range []int{0, 300} {
			for _, par := range []int{1, 2, 8} {
				tb := bufferedOrdersTable(t, d, shards, buffered)
				_, ts := newTestServer(t, Config{Table: tb, Workers: 4, CacheSize: 64, Parallelism: par})
				for i, body := range corpus.Statements {
					key := fmt.Sprintf("shards=%d buffered=%d par=%d stmt=%03d", shards, buffered, par, i)
					resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					reply, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					reply = normalizeReply(reply)
					sum := sha256.Sum256(reply)
					got := hex.EncodeToString(sum[:])
					fmt.Fprintf(&digests, "%s sha256=%s\n", key, got)
					replayed++
					if *updateGolden {
						continue
					}
					if w, ok := want[key]; !ok {
						t.Errorf("%s: no committed digest for statement %s", key, body)
					} else if w != got {
						t.Errorf("%s: reply differs from the golden corpus\nstatement: %s\nreply (status %d, normalized): %s",
							key, body, resp.StatusCode, reply)
					}
				}
			}
		}
	}
	if !*updateGolden {
		if replayed != len(want) {
			t.Errorf("replayed %d replies, the corpus commits %d digests", replayed, len(want))
		}
		return
	}
	var raw bytes.Buffer
	enc := json.NewEncoder(&raw)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(corpus); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenStatementsFile, raw.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenRepliesFile, digests.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d statements and %d digests", len(corpus.Statements), replayed)
}
