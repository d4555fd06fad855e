package table

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// mkMergeTable is four sealed 256-row segments — a sorted int64 column
// (sparse imprints, so update marks visibly saturate them) and a string
// column of five symbols laid out in runs — with delta ingest on and no
// background worker.
func mkMergeTable(t testing.TB) *Table {
	t.Helper()
	const n = 1024
	a := make([]int64, n)
	s := make([]string, n)
	for i := range a {
		a[i] = int64(i) * 1000
		s[i] = oraCities[i/64%5]
	}
	tb := NewWithOptions("merge", TableOptions{SegmentRows: 256})
	if err := AddColumn(tb, "a", a, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", s, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// The merge-compactor's trigger, pinned both ways: segments no update
// touched are never counted or rewritten; a segment whose summary an
// update widened, and one whose imprint update marks pushed past the
// 0.5 saturation limit, are found by IngestStats().MergeBacklog,
// rewritten by mergePass one per lock hold, and gone from the backlog
// afterwards; marks that stay under the limit are left alone.
func TestMergePassFindsWhatUpdatesTouched(t *testing.T) {
	tb := mkMergeTable(t)
	d := tb.delta
	if got := tb.IngestStats().MergeBacklog; got != 0 {
		t.Fatalf("untouched table has merge backlog %d", got)
	}
	tb.mergePass(d)
	if got := tb.IngestStats().Merges; got != 0 {
		t.Fatalf("idle merge pass rewrote %d segments", got)
	}

	sc := tb.cols["s"].(*strColState)
	ac := tb.cols["a"].(*colState[int64])

	// One in-place update widens segment 1's numeric summary: it can no
	// longer answer min/max, whatever its imprint's saturation.
	if err := Update(tb, "a", 300, int64(5)); err != nil {
		t.Fatal(err)
	}
	// One symbol change marks one bit in string segment 2: armed, but far
	// below the 0.5 limit.
	if err := tb.UpdateString("s", 2*256+3, oraCities[0]); err != nil {
		t.Fatal(err)
	}
	if !ac.segs[1].sumWide || sc.segs[2].ix.ExtraBits() == 0 {
		t.Fatalf("fixture: sumWide=%v, string extra bits=%d", ac.segs[1].sumWide, sc.segs[2].ix.ExtraBits())
	}
	if got := tb.IngestStats().MergeBacklog; got != 1 {
		t.Fatalf("backlog = %d, want 1 (the widened summary only)", got)
	}
	// Rewriting every row of string segment 3 with every symbol saturates
	// its code imprint past the limit.
	for i := 0; i < 256; i++ {
		if err := tb.UpdateString("s", 3*256+i, oraCities[i%5]); err != nil {
			t.Fatal(err)
		}
	}
	if ix := sc.segs[3].ix; ix.ExtraBits() == 0 || ix.Saturation() < 0.5 {
		t.Fatalf("fixture: string segment 3 has %d extra bits at saturation %v", ix.ExtraBits(), ix.Saturation())
	}
	if got := tb.IngestStats().MergeBacklog; got != 2 {
		t.Fatalf("backlog = %d, want 2 (widened summary + saturated imprint)", got)
	}
	if rep := tb.Maintain(MaintainOptions{SaturationLimit: 2}); rep.MergeBacklog != 2 {
		t.Fatalf("Maintain reports merge backlog %d, want 2", rep.MergeBacklog)
	}

	tb.mergePass(d)
	st := tb.IngestStats()
	if st.Merges != 2 || st.MergeBacklog != 0 {
		t.Fatalf("after the pass: %d merges, backlog %d; want 2 and 0", st.Merges, st.MergeBacklog)
	}
	if ac.segs[1].sumWide || ac.segs[1].min != 5 || ac.segs[1].ix.ExtraBits() != 0 {
		t.Fatalf("numeric segment 1 not rewritten: wide=%v min=%d extra=%d",
			ac.segs[1].sumWide, ac.segs[1].min, ac.segs[1].ix.ExtraBits())
	}
	if sc.segs[3].ix.ExtraBits() != 0 {
		t.Fatalf("string segment 3 not rewritten: %d extra bits", sc.segs[3].ix.ExtraBits())
	}
	if sc.segs[2].ix.ExtraBits() == 0 {
		t.Fatal("string segment 2 was under the limit and must be left alone")
	}
	// Exact summaries are back: an unfiltered min/max answers from them.
	res, qst, err := tb.Select().Aggregate(Min("a"), Max("a"))
	if err != nil {
		t.Fatal(err)
	}
	if res.At(0).Int != 0 || res.At(1).Int != 1023*1000 || qst.SummaryAggRows != 2*1024 {
		t.Fatalf("min/max = %v, %d summary rows", res, qst.SummaryAggRows)
	}
}

// An update of a buffered row that lands between the sealer's snapshot
// and its install must void the build. The first half replays
// sealChunk's steps by hand around the update: the snapshot (and the
// segment built from it) keeps the old value, the store no longer
// matches, and the next seal carries the new value. The second half
// runs the real sealer against an updater and a committer (the
// interleavings are the race detector's to judge): builds are discarded
// (SealRetries), none is installed stale, and the table ends up equal
// to its serial model.
func TestSealRacedByBufferedUpdate(t *testing.T) {
	mk := func() *Table {
		tb := NewWithOptions("raced", TableOptions{SegmentRows: 128})
		if err := AddColumn(tb, "a", []int64{}, Imprints, core.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := tb.AddStringColumn("s", nil, Imprints, core.Options{Seed: 2}); err != nil {
			t.Fatal(err)
		}
		if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	commit := func(tb *Table, a []int64, s []string) {
		b := tb.NewBatch()
		if err := Append(b, "a", a); err != nil {
			t.Error(err)
		}
		if err := b.AppendStrings("s", s); err != nil {
			t.Error(err)
		}
		if err := b.Commit(); err != nil {
			t.Error(err)
		}
	}
	batch := func(from, n int) ([]int64, []string) {
		a, s := make([]int64, n), make([]string, n)
		for i := range a {
			a[i], s[i] = int64(from+i), oraCities[(from+i)%len(oraCities)]
		}
		return a, s
	}

	tb := mk()
	a, s := batch(0, 200)
	commit(tb, a, s)
	d := tb.delta
	prefix := d.store.CopyPrefix(128)
	if prefix.Rows != 128 {
		t.Fatalf("snapshot holds %d rows", prefix.Rows)
	}
	built := tb.cols["a"].buildSealed(prefix, 0).(*segment[int64])
	builtS := tb.cols["s"].buildSealed(prefix, 0).(*strSegment)
	if err := Update(tb, "a", 7, int64(-777)); err != nil {
		t.Fatal(err)
	}
	if err := tb.UpdateString("s", 7, "novel"); err != nil {
		t.Fatal(err)
	}
	if d.store.Matches(prefix.Base, prefix.Gen, prefix.Rows) {
		t.Fatal("the store still matches a snapshot taken before the update")
	}
	if built.vals[7] != 7 || builtS.dict.Symbol(builtS.codes()[7]) != oraCities[7] {
		t.Fatalf("the raced build saw the update: %d %q", built.vals[7], builtS.dict.Symbol(builtS.codes()[7]))
	}
	if n := tb.SealDelta(); n != 128 {
		t.Fatalf("SealDelta moved %d rows", n)
	}
	row, err := tb.ReadRow(7)
	if err != nil || row["a"] != int64(-777) || row["s"] != "novel" {
		t.Fatalf("sealed row 7 = %v (%v)", row, err)
	}
	if ids, _, err := tb.Select().Where(And(Equals[int64]("a", -777), StrEquals("s", "novel"))).IDs(); err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("the reinstalled segment does not find the update: %v (%v)", ids, err)
	}

	// The real thing. The committer keeps the delta deep, the updater
	// rewrites one of the newest rows — buffered ones, unless the sealer
	// just got to them — and the sealer seals for as long as they run.
	tb = mk()
	rounds := 300
	if raceEnabled {
		rounds = 100
	}
	model := map[int]int64{} // id -> last value written
	var mu sync.Mutex        // orders updates with the model
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tb.SealDelta()
			}
		}
	}()
	go func() { // updater
		defer wg.Done()
		rng := rand.New(rand.NewPCG(7, 7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if id := tb.Rows() - 1 - rng.IntN(8); id >= 0 {
				v := -rng.Int64N(1 << 40)
				if err := Update(tb, "a", id, v); err != nil {
					t.Error(err)
				}
				model[id] = v
			}
			mu.Unlock()
		}
	}()
	total := 0
	deadline := time.Now().Add(20 * time.Second)
	for r := 0; r < rounds || tb.IngestStats().SealRetries == 0; r++ {
		if time.Now().After(deadline) {
			t.Error("no seal build was ever discarded")
			break
		}
		a, s := batch(total, 96)
		commit(tb, a, s)
		total += 96
	}
	close(stop)
	wg.Wait()
	tb.FlushDelta()
	got, err := Column[int64](tb, "a")
	if err != nil || len(got) != total {
		t.Fatalf("%d rows, want %d (%v)", len(got), total, err)
	}
	for id, v := range got {
		want, ok := model[id]
		if !ok {
			want = int64(id)
		}
		if v != want {
			t.Fatalf("row %d = %d, model %d (a stale build was installed)", id, v, want)
		}
	}
	// Sealed storage answers like the model too (no lost summary widening).
	checked := 0
	for id, want := range model {
		ids, _, err := tb.Select().Where(Equals[int64]("a", want)).IDs()
		if err != nil || len(ids) != 1 || int(ids[0]) != id {
			t.Fatalf("lookup of updated row %d (value %d) = %v (%v)", id, want, ids, err)
		}
		if checked++; checked == 50 {
			break
		}
	}
}

// BenchmarkMergePassIdle is what one commit's kick costs the readers of
// a table nobody updates: the merge pass's exclusive lock hold over 16
// segments x 5 indexed columns (1 M rows), which must stay a handful of
// flag reads per segment — before the ExtraBits test moved ahead of the
// saturation popcount it scanned every imprint vector of the table.
func BenchmarkMergePassIdle(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewPCG(21, 21))
	tb := New("idle")
	for c := 0; c < 4; c++ {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int64N(1_000_000)
		}
		if err := AddColumn(tb, fmt.Sprint("c", c), vals, Imprints, core.Options{Seed: uint64(c + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = oraCities[rng.IntN(len(oraCities))]
	}
	if err := tb.AddStringColumn("s", strs, Imprints, core.Options{Seed: 9}); err != nil {
		b.Fatal(err)
	}
	if err := tb.EnableDeltaIngest(IngestOptions{}); err != nil {
		b.Fatal(err)
	}
	d := tb.delta
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.mergePass(d)
	}
	if tb.IngestStats().Merges != 0 {
		b.Fatal("the idle pass rewrote a segment")
	}
}
