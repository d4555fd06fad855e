package table

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// mkSegmented builds a multi-segment mixed table with a small segment
// size so every code path crosses segment boundaries: qty (int64 walk,
// imprints), price (float64, imprints), ts (int64 near-sorted,
// unindexed), city (string, per-segment code imprints), tag (string,
// unindexed).
func mkSegmented(t *testing.T, n, segRows int, seed uint64) (*Table, *segModel) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x5e6))
	m := &segModel{}
	v := int64(1000)
	for i := 0; i < n; i++ {
		v += int64(rng.IntN(21)) - 10
		m.qty = append(m.qty, v)
		m.price = append(m.price, rng.Float64()*100)
		m.ts = append(m.ts, int64(i*3+rng.IntN(3)))
		m.city = append(m.city, cities[(i/71+rng.IntN(2))%len(cities)])
		m.tag = append(m.tag, []string{"new", "seen", "done"}[rng.IntN(3)])
	}
	tb := NewWithOptions("orders", TableOptions{SegmentRows: segRows})
	if tb.SegmentRows() != segRows {
		t.Fatalf("SegmentRows = %d, want %d", tb.SegmentRows(), segRows)
	}
	if err := AddColumn(tb, "qty", m.qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "price", m.price, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "ts", m.ts, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", m.city, Imprints, core.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("tag", m.tag, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb, m
}

// segModel is the naive-oracle shadow of the segmented test table.
type segModel struct {
	qty     []int64
	price   []float64
	ts      []int64
	city    []string
	tag     []string
	deleted map[int]bool
}

func (m *segModel) oracleIDs(pred func(i int) bool) []uint32 {
	var want []uint32
	for i := range m.qty {
		if m.deleted[i] || !pred(i) {
			continue
		}
		want = append(want, uint32(i))
	}
	return want
}

// randomPred draws a random mixed predicate tree with its oracle.
func (m *segModel) randomPred(rng *rand.Rand) (Predicate, func(i int) bool) {
	leaf := func() (Predicate, func(i int) bool) {
		switch rng.IntN(7) {
		case 0:
			lo := int64(850 + rng.IntN(400))
			hi := lo + int64(rng.IntN(250))
			return Range[int64]("qty", lo, hi), func(i int) bool { return m.qty[i] >= lo && m.qty[i] < hi }
		case 1:
			x := rng.Float64() * 100
			return LessThan[float64]("price", x), func(i int) bool { return m.price[i] < x }
		case 2:
			lo := int64(rng.IntN(3 * len(m.ts)))
			hi := lo + int64(rng.IntN(len(m.ts)))
			return Range[int64]("ts", lo, hi), func(i int) bool { return m.ts[i] >= lo && m.ts[i] < hi }
		case 3:
			c := cities[rng.IntN(len(cities))]
			return StrEquals("city", c), func(i int) bool { return m.city[i] == c }
		case 4:
			p := cities[rng.IntN(len(cities))][:1+rng.IntN(2)]
			return StrPrefix("city", p), func(i int) bool { return strings.HasPrefix(m.city[i], p) }
		case 5:
			s := []string{"new", "seen", "done"}[rng.IntN(3)]
			return StrEquals("tag", s), func(i int) bool { return m.tag[i] == s }
		default:
			a, b := m.qty[rng.IntN(len(m.qty))], m.qty[rng.IntN(len(m.qty))]
			return In("qty", a, b), func(i int) bool { return m.qty[i] == a || m.qty[i] == b }
		}
	}
	p1, f1 := leaf()
	p2, f2 := leaf()
	p3, f3 := leaf()
	switch rng.IntN(3) {
	case 0:
		return And(p1, Or(p2, p3)), func(i int) bool { return f1(i) && (f2(i) || f3(i)) }
	case 1:
		return Or(p1, AndNot(p2, p3)), func(i int) bool { return f1(i) || (f2(i) && !f3(i)) }
	default:
		return AndNot(And(p1, p2), p3), func(i int) bool { return f1(i) && f2(i) && !f3(i) }
	}
}

// TestSegmentedOracle is the randomized equivalence oracle of the
// segmentation refactor: across appends (values straddling segment
// boundaries), updates, deletes and a compact, every random predicate
// tree must return byte-identical ids through parallel segmented
// execution (parallelism 4), serial execution (parallelism 1), a
// prepared statement, and the naive scan oracle — and Count must agree.
func TestSegmentedOracle(t *testing.T) {
	const segRows = 256
	tb, m := mkSegmented(t, 1500, segRows, 77)
	rng := rand.New(rand.NewPCG(78, 78))
	m.deleted = map[int]bool{}

	checkAll := func(phase string) {
		t.Helper()
		for trial := 0; trial < 25; trial++ {
			pred, oracle := m.randomPred(rng)
			want := m.oracleIDs(oracle)

			serial, stSerial, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: 1}).IDs()
			if err != nil {
				t.Fatalf("%s serial: %v", phase, err)
			}
			par, _, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: 4}).IDs()
			if err != nil {
				t.Fatalf("%s parallel: %v", phase, err)
			}
			equalIDs(t, serial, want, phase+" serial vs oracle")
			equalIDs(t, par, want, phase+" parallel vs oracle")

			// A re-run at each parallelism must match the serial run
			// bit for bit — ids and every statistic except pool-
			// dependent scratch reuse.
			for _, rpar := range []int{1, 4} {
				again, stAgain, err := tb.Select().Where(pred).
					Options(SelectOptions{Parallelism: rpar}).IDs()
				if err != nil {
					t.Fatalf("%s re-run: %v", phase, err)
				}
				equalIDs(t, again, want, fmt.Sprintf("%s re-run par=%d vs oracle", phase, rpar))
				a, b := stSerial, stAgain
				a.ScratchReused, b.ScratchReused = 0, 0
				if a != b {
					t.Fatalf("%s: re-run par=%d stats diverge from the serial run\nserial %+v\nre-run %+v", phase, rpar, stSerial, stAgain)
				}
			}

			p, err := tb.Prepare(pred, SelectOptions{Parallelism: 3})
			if err != nil {
				t.Fatalf("%s prepare: %v", phase, err)
			}
			prepped, _, err := p.Exec().IDs()
			if err != nil {
				t.Fatalf("%s prepared: %v", phase, err)
			}
			equalIDs(t, prepped, want, phase+" prepared vs oracle")

			n, _, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: 4}).Count()
			if err != nil {
				t.Fatalf("%s count: %v", phase, err)
			}
			if n != uint64(len(want)) {
				t.Fatalf("%s Count = %d, want %d", phase, n, len(want))
			}

			// The batch path, Rows and the naive model agree on every
			// projected value, serially and in parallel.
			naive := make([]string, len(want))
			for i, id := range want {
				naive[i] = fmt.Sprintf("%d qty=%v price=%v ts=%v city=%v tag=%v",
					id, m.qty[id], m.price[id], m.ts[id], m.city[id], m.tag[id])
			}
			for _, rpar := range []int{1, 4} {
				got := rowStrings(t, fmt.Sprintf("%s rows par=%d", phase, rpar), func() *Query {
					return tb.Select().Where(pred).Options(SelectOptions{Parallelism: rpar})
				})
				if len(got) != len(naive) {
					t.Fatalf("%s: %d rows at par %d, oracle %d", phase, len(got), rpar, len(naive))
				}
				for i := range got {
					if got[i] != naive[i] {
						t.Fatalf("%s par %d row %d:\n got %s\nwant %s", phase, rpar, i, got[i], naive[i])
					}
				}
			}

			// Limit must return the same prefix at any parallelism.
			if len(want) > 3 {
				lim := 1 + rng.IntN(len(want)-1)
				got, _, err := tb.Select().Where(pred).Limit(lim).Options(SelectOptions{Parallelism: 4}).IDs()
				if err != nil {
					t.Fatalf("%s limit: %v", phase, err)
				}
				equalIDs(t, got, want[:lim], phase+" limited prefix")
			}
		}
	}

	checkAll("initial")

	// Batch append straddling segment boundaries (the table currently
	// has a partial tail; 700 rows crosses at least two boundaries).
	appendRows := func(k int) {
		b := tb.NewBatch()
		var qty []int64
		var price []float64
		var ts []int64
		var city, tag []string
		v := m.qty[len(m.qty)-1]
		lastTs := m.ts[len(m.ts)-1]
		for i := 0; i < k; i++ {
			v += int64(rng.IntN(21)) - 10
			qty = append(qty, v)
			price = append(price, rng.Float64()*100)
			ts = append(ts, lastTs+int64(i*3))
			city = append(city, cities[rng.IntN(len(cities))])
			tag = append(tag, []string{"new", "seen", "done"}[rng.IntN(3)])
		}
		if err := Append(b, "qty", qty); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "price", price); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "ts", ts); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendStrings("city", city); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendStrings("tag", tag); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
		m.qty = append(m.qty, qty...)
		m.price = append(m.price, price...)
		m.ts = append(m.ts, ts...)
		m.city = append(m.city, city...)
		m.tag = append(m.tag, tag...)
	}
	appendRows(700)
	if want := (1500 + 700 + segRows - 1) / segRows; tb.Segments() != want {
		t.Fatalf("Segments = %d, want %d", tb.Segments(), want)
	}
	checkAll("after append")

	// In-place updates, including a novel string (segment-local
	// re-encode).
	for u := 0; u < 200; u++ {
		id := rng.IntN(len(m.qty))
		nv := int64(500 + rng.IntN(1200))
		if err := Update(tb, "qty", id, nv); err != nil {
			t.Fatal(err)
		}
		m.qty[id] = nv
	}
	novelID := rng.IntN(len(m.city))
	if err := tb.UpdateString("city", novelID, "Zagreb"); err != nil {
		t.Fatal(err)
	}
	m.city[novelID] = "Zagreb"
	checkAll("after updates")

	// Deletes.
	for d := 0; d < 400; d++ {
		id := rng.IntN(len(m.qty))
		if err := tb.Delete(id); err != nil {
			t.Fatal(err)
		}
		m.deleted[id] = true
	}
	checkAll("after deletes")

	// Compact renumbers ids; rebuild the oracle model accordingly.
	removed := tb.Compact()
	if removed != len(m.deleted) {
		t.Fatalf("Compact removed %d, want %d", removed, len(m.deleted))
	}
	nm := &segModel{deleted: map[int]bool{}}
	for i := range m.qty {
		if m.deleted[i] {
			continue
		}
		nm.qty = append(nm.qty, m.qty[i])
		nm.price = append(nm.price, m.price[i])
		nm.ts = append(nm.ts, m.ts[i])
		nm.city = append(nm.city, m.city[i])
		nm.tag = append(nm.tag, m.tag[i])
	}
	*m = *nm
	checkAll("after compact")
}

// TestSegmentPruning checks that segments whose summary (or dictionary)
// provably excludes the predicate are skipped without probing, and that
// Explain surfaces them per segment.
func TestSegmentPruning(t *testing.T) {
	// Strictly increasing qty: every segment covers a disjoint range, so
	// a narrow band hits exactly one segment.
	n, segRows := 2048, 256
	qty := make([]int64, n)
	city := make([]string, n)
	for i := range qty {
		qty[i] = int64(i * 10)
		city[i] = cities[i/segRows] // one city per segment
	}
	tb := NewWithOptions("pruned", TableOptions{SegmentRows: segRows})
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("city", city, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}

	// A band inside segment 3 only.
	lo, hi := int64(3*segRows*10+40), int64(3*segRows*10+400)
	q := tb.Select().Where(Range[int64]("qty", lo, hi)).Options(SelectOptions{Parallelism: 2})
	plan, err := q.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Segments != n/segRows {
		t.Fatalf("plan.Segments = %d, want %d", plan.Segments, n/segRows)
	}
	if plan.SegmentsPruned != plan.Segments-1 {
		t.Errorf("SegmentsPruned = %d, want %d", plan.SegmentsPruned, plan.Segments-1)
	}
	if len(plan.Root.SegmentDetails) != plan.Segments {
		t.Fatalf("leaf has %d segment details, want %d", len(plan.Root.SegmentDetails), plan.Segments)
	}
	prunedSegs, probes := 0, 0
	for s, sp := range plan.Root.SegmentDetails {
		switch sp.Access {
		case "pruned":
			prunedSegs++
			if sp.Stats.Probes != 0 {
				t.Errorf("pruned segment %d probed %d vectors", s, sp.Stats.Probes)
			}
		default:
			probes += int(sp.Stats.Probes)
			if s != 3 {
				t.Errorf("segment %d not pruned (access %s)", s, sp.Access)
			}
		}
	}
	if prunedSegs != plan.Segments-1 || probes == 0 {
		t.Errorf("pruned %d of %d segments with %d probes elsewhere", prunedSegs, plan.Segments, probes)
	}
	text := plan.String()
	for _, want := range []string{"pruned", "seg 3", "segments of 256"} {
		if !strings.Contains(text, want) {
			t.Errorf("plan text missing %q:\n%s", want, text)
		}
	}
	ids, st, err := q.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 36 { // (400-40)/10
		t.Errorf("band returned %d ids", len(ids))
	}
	_ = st

	// String pruning: a city present only in segment 5's dictionary.
	plan, err = tb.Select().Where(StrEquals("city", cities[5])).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan.SegmentsPruned != plan.Segments-1 {
		t.Errorf("string leaf pruned %d segments, want %d", plan.SegmentsPruned, plan.Segments-1)
	}
}

// TestSegmentLocalMaintain pins the bounded-rebuild property: updates
// saturating one segment's imprint rebuild only that segment.
func TestSegmentLocalMaintain(t *testing.T) {
	n, segRows := 1024, 256
	qty := make([]int64, n)
	for i := range qty {
		qty[i] = int64(i) // near-sorted: very sparse imprints
	}
	tb := NewWithOptions("m", TableOptions{SegmentRows: segRows})
	if err := AddColumn(tb, "qty", qty, Imprints, core.Options{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Saturate segment 1 only: random values across its own histogram
	// range set many distinct bits per covering vector.
	rng := rand.New(rand.NewPCG(10, 10))
	for u := 0; u < 3000; u++ {
		id := segRows + rng.IntN(segRows)
		if err := Update(tb, "qty", id, int64(segRows+rng.IntN(segRows))); err != nil {
			t.Fatal(err)
		}
	}
	rep := tb.Maintain(MaintainOptions{SaturationLimit: 0.3})
	if len(rep.Rebuilt) != 1 || rep.Rebuilt[0] != "qty" {
		t.Fatalf("Rebuilt = %v", rep.Rebuilt)
	}
	if rep.SegmentsRebuilt != 1 {
		t.Errorf("SegmentsRebuilt = %d, want 1 (segment-local rebuild)", rep.SegmentsRebuilt)
	}
	if !strings.Contains(rep.String(), "rebuilt 1 segment(s)") {
		t.Errorf("report rendering: %s", rep)
	}
}

// TestSegmentScratchReuse pins the pooled candidate-id buffers: a
// second identical query reuses scratch capacity from the first and
// reports it.
func TestSegmentScratchReuse(t *testing.T) {
	tb, m := mkSegmented(t, 1200, 256, 41)
	pred := AtLeast[int64]("qty", m.qty[0]-1000)
	q := tb.Select().Where(pred).Options(SelectOptions{Parallelism: 1})
	if _, _, err := q.IDs(); err != nil {
		t.Fatal(err)
	}
	var reused uint64
	for i := 0; i < 5; i++ {
		_, st, err := q.IDs()
		if err != nil {
			t.Fatal(err)
		}
		reused += st.ScratchReused
	}
	if reused == 0 {
		t.Error("five repeat executions reused no pooled id scratch buffers")
	}
}

// TestSegmentIndexAccessors covers the segment-aware index accessors.
func TestSegmentIndexAccessors(t *testing.T) {
	tb, _ := mkSegmented(t, 1000, 256, 5)
	if _, err := Index[int64](tb, "qty"); err == nil {
		t.Error("Index on a multi-segment column did not error")
	}
	ix, err := SegmentIndex[int64](tb, "qty", 2)
	if err != nil || ix == nil {
		t.Fatalf("SegmentIndex: %v %v", ix, err)
	}
	if ix.Len() != 256 {
		t.Errorf("segment 2 index covers %d rows", ix.Len())
	}
	if _, err := SegmentIndex[int64](tb, "qty", 99); err == nil {
		t.Error("out-of-range segment accepted")
	}
	st, err := tb.IndexStats("qty")
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 4 || st.IndexedSegments != 4 || st.StoredVectors == 0 {
		t.Errorf("IndexStats = %+v", st)
	}
	// Single-segment tables keep the old Index behavior.
	small := New("s")
	if err := AddColumn(small, "v", []int64{1, 2, 3}, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if ix, err := Index[int64](small, "v"); err != nil || ix == nil {
		t.Errorf("single-segment Index: %v %v", ix, err)
	}
}

// TestParallelQueriesWithConcurrentWriters races parallel segmented
// reads against batch writers, updates and maintenance (meaningful
// under -race, and run at -cpu=1,2,4 in CI).
func TestParallelQueriesWithConcurrentWriters(t *testing.T) {
	const segRows = 256
	tb, m := mkSegmented(t, 2000, segRows, 99)
	done := make(chan struct{})
	var readers, writers sync.WaitGroup

	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(seed, 7))
			pred := And(AtLeast[int64]("qty", 900), StrPrefix("city", "P"))
			for {
				select {
				case <-done:
					return
				default:
				}
				par := 1 + rng.IntN(4)
				ids, _, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: par}).IDs()
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				for i := 1; i < len(ids); i++ {
					if ids[i-1] >= ids[i] {
						t.Errorf("ids not ascending at parallelism %d", par)
						return
					}
				}
				n, _, err := tb.Select().Where(pred).Options(SelectOptions{Parallelism: par}).Count()
				if err != nil || n != uint64(len(ids)) {
					// Racing writers may change the table between the two
					// executions; only the error is checkable.
					if err != nil {
						t.Errorf("reader count: %v", err)
						return
					}
				}
			}
		}(uint64(r))
	}

	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewPCG(1234, 8))
		for w := 0; w < 30; w++ {
			b := tb.NewBatch()
			k := 100 + rng.IntN(300)
			qty := make([]int64, k)
			price := make([]float64, k)
			ts := make([]int64, k)
			city := make([]string, k)
			tag := make([]string, k)
			for i := range qty {
				qty[i] = int64(900 + rng.IntN(300))
				price[i] = rng.Float64() * 100
				ts[i] = int64(rng.IntN(10000))
				city[i] = cities[rng.IntN(len(cities))]
				tag[i] = "new"
			}
			if err := Append(b, "qty", qty); err != nil {
				t.Error(err)
				return
			}
			if err := Append(b, "price", price); err != nil {
				t.Error(err)
				return
			}
			if err := Append(b, "ts", ts); err != nil {
				t.Error(err)
				return
			}
			if err := b.AppendStrings("city", city); err != nil {
				t.Error(err)
				return
			}
			if err := b.AppendStrings("tag", tag); err != nil {
				t.Error(err)
				return
			}
			if err := b.Commit(); err != nil {
				t.Error(err)
				return
			}
			for u := 0; u < 20; u++ {
				if err := Update(tb, "qty", rng.IntN(len(m.qty)), int64(rng.IntN(2000))); err != nil {
					t.Error(err)
					return
				}
			}
			if rng.IntN(4) == 0 {
				tb.Maintain(MaintainOptions{SaturationLimit: 0.4})
			}
		}
	}()

	writers.Wait()
	close(done)
	readers.Wait()
}

// TestRowsPanicDrainsWorkers pins the panic-safety of the parallel
// iterator: a panic in the Rows() loop body must stop and drain the
// segment workers before the read lock is released, so a recovering
// caller can immediately write without racing in-flight workers
// (meaningful under -race).
func TestRowsPanicDrainsWorkers(t *testing.T) {
	tb, _ := mkSegmented(t, 2000, 256, 17)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		q := tb.Select("qty").Where(AtLeast[int64]("qty", 0)).Options(SelectOptions{Parallelism: 4})
		for range q.Rows() {
			panic("consumer explodes mid-iteration")
		}
	}()
	// The write lock must be free and no worker may still be reading.
	if err := Update(tb, "qty", 0, int64(1)); err != nil {
		t.Fatal(err)
	}
	b := tb.NewBatch()
	if err := Append(b, "qty", []int64{5}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "price", []float64{5}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "ts", []int64{5}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("city", []string{"Paris"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("tag", []string{"new"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistRoundTripSegmented round-trips a multi-segment table
// through Write and Read and checks queries agree.
func TestPersistRoundTripSegmented(t *testing.T) {
	tb, m := mkSegmented(t, 1300, 256, 21)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != 1300 || got.Segments() != tb.Segments() || got.SegmentRows() != 256 {
		t.Fatalf("loaded %d rows, %d segments of %d", got.Rows(), got.Segments(), got.SegmentRows())
	}
	pred := Or(And(AtLeast[int64]("qty", 950), StrPrefix("city", "A")), StrEquals("tag", "done"))
	a, _, err := tb.Select().Where(pred).IDs()
	if err != nil {
		t.Fatal(err)
	}
	b, st, err := got.Select().Where(pred).Options(SelectOptions{Parallelism: 4}).IDs()
	if err != nil {
		t.Fatal(err)
	}
	equalIDs(t, b, a, "persisted segmented query")
	if st.Probes == 0 {
		t.Error("persisted per-segment imprints did not probe")
	}
	_ = m
}

// TestSealedSegmentTranslationsSurviveAppends pins the tentpole's
// segment-granular plan tracking: after a batch append, a prepared
// string leaf keeps its cached translations for sealed segments (their
// generation is unchanged) and only ever translates the tail.
func TestSealedSegmentTranslationsSurviveAppends(t *testing.T) {
	tb, m := mkSegmented(t, 1000, 256, 61)
	cs, err := strCol(tb, "city")
	if err != nil {
		t.Fatal(err)
	}
	gensBefore := make([]uint64, 3)
	for s := 0; s < 3; s++ {
		gensBefore[s] = cs.segs[s].gen
	}

	b := tb.NewBatch()
	if err := Append(b, "qty", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "price", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Append(b, "ts", []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A novel string lands in the tail segment: only its dictionary
	// re-encodes.
	if err := b.AppendStrings("city", []string{"Novelton", m.city[0], m.city[1]}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendStrings("tag", []string{"new", "new", "new"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < 3; s++ {
		if cs.segs[s].gen != gensBefore[s] {
			t.Errorf("sealed segment %d generation changed %d -> %d on append",
				s, gensBefore[s], cs.segs[s].gen)
		}
	}
	if tail := cs.segs[len(cs.segs)-1]; tail.gen == 0 {
		t.Error("tail segment has no generation")
	}
	// And the novel value is queryable.
	ids, _, err := tb.Select().Where(StrEquals("city", "Novelton")).IDs()
	if err != nil || len(ids) != 1 || ids[0] != 1000 {
		t.Fatalf("novel string query: %v %v", ids, err)
	}
}

// TestNormalizeSegmentRows pins the rounding rule.
func TestNormalizeSegmentRows(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultSegmentRows},
		{-5, DefaultSegmentRows},
		{64, 64},
		{100, 128},
		{65536, 65536},
	} {
		if got := NewWithOptions("x", TableOptions{SegmentRows: tc.in}).SegmentRows(); got != tc.want {
			t.Errorf("normalizeSegmentRows(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// BenchmarkParallelCount exercises the fan-out on a multi-segment
// table at several parallelism levels.
func BenchmarkParallelCount(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	n := 512 * 1024
	price := make([]float64, n)
	for i := range price {
		price[i] = rng.Float64() * 1000
	}
	tb := New("bench")
	if err := AddColumn(tb, "price", price, Imprints, core.Options{Seed: 1}); err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			q := tb.Select().Where(Range[float64]("price", 100, 400)).Options(SelectOptions{Parallelism: par})
			for i := 0; i < b.N; i++ {
				if _, _, err := q.Count(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
