package table

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// conjunctionTable builds segs segments of segRows rows in the shapes
// of the serving benchmark's point-lookup conjunction: near-sorted ts,
// uniform qty, and city arriving in regional runs, so a city is absent
// from most segments' dictionaries. It returns the columns for brute
// force.
func conjunctionTable(tb testing.TB, shards, segs, segRows int) (*Table, []int64, []int64, []string) {
	tb.Helper()
	n := segs * segRows
	ts, qty, city := make([]int64, n), make([]int64, n), make([]string, n)
	rng := rand.New(rand.NewPCG(27, 1))
	for i := range ts {
		ts[i] = int64(i)*10 + rng.Int64N(1000)
		qty[i] = rng.Int64N(1_000_000)
	}
	regions := []string{"af", "an", "as", "eu", "me", "na", "oc", "sa"}
	for i := 0; i < n; {
		region := regions[rng.IntN(len(regions))]
		for end := min(n, i+segRows/4+rng.IntN(segRows)); i < end; i++ {
			city[i] = fmt.Sprintf("%s-%d", region, rng.IntN(8))
		}
	}
	t := NewWithOptions("orders", TableOptions{SegmentRows: segRows, Shards: shards})
	for _, err := range []error{
		AddColumn(t, "ts", ts, Imprints, core.Options{Seed: 1}),
		AddColumn(t, "qty", qty, Imprints, core.Options{Seed: 2}),
		t.AddStringColumn("city", city, Imprints, core.Options{Seed: 3}),
	} {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return t, ts, qty, city
}

// TestConjunctionPruneFirst pins prune-first conjunctions: on a segment
// where one conjunct's summary — min/max or dictionary — rules the
// conjunction out, no other kid is probed or sampled, and Explain says
// why. For an and of a city and a ts band, an and whose or-kid is
// excluded because every kid of the or is, and an andnot whose minuend
// is excluded, at parallelism 1/2/8 and shards 1/2:
// (a) the ids equal brute force; (b) QueryStats.Probes equals what each
// leaf probes alone on the segments no summary excludes; (c) on the
// excluded segments every leaf is pruned, unsampled and unprobed, and
// a leaf its own summary admits renders "conjunct excluded".
func TestConjunctionPruneFirst(t *testing.T) {
	const segs, segRows = 16, 1024
	for _, shards := range []int{1, 2} {
		tb, ts, qty, city := conjunctionTable(t, shards, segs, segRows)
		// A band in segments 9 and 10, and a city present in it.
		lo, hi := int64(9*segRows*10+segRows*5), int64(10*segRows*10+segRows*2)
		c := city[9*segRows+segRows*3/4]
		// present reports whether segment s holds a row satisfying ok, and
		// overlaps whether its [min, max] meets [a, b).
		present := func(s int, ok func(i int) bool) bool {
			for i := s * segRows; i < (s+1)*segRows; i++ {
				if ok(i) {
					return true
				}
			}
			return false
		}
		overlaps := func(col []int64, s int, a, b int64) bool {
			seg := col[s*segRows : (s+1)*segRows]
			return slices.Max(seg) >= a && slices.Min(seg) < b
		}
		inBand := func(col []int64, i int, a, b int64) bool { return col[i] >= a && col[i] < b }
		// A 1% qty band (probed: it skips blocks) and two ts bands of about
		// 1,500 and 600 rows.
		qLo, qHi := int64(300_000), int64(310_000)
		b1Lo, b1Hi := lo, lo+15_000
		b2Lo, b2Hi := int64(3*segRows*10+77), int64(3*segRows*10+6_000)
		cases := []struct {
			name     string
			pred     Predicate
			leaves   []Predicate
			match    func(i int) bool
			admitted func(s int) bool
		}{
			{
				name:   "city and ts band",
				pred:   And(StrEquals("city", c), Range[int64]("ts", lo, hi)),
				leaves: []Predicate{StrEquals("city", c), Range[int64]("ts", lo, hi)},
				match:  func(i int) bool { return city[i] == c && inBand(ts, i, lo, hi) },
				admitted: func(s int) bool {
					return overlaps(ts, s, lo, hi) && present(s, func(i int) bool { return city[i] == c })
				},
			},
			{
				name: "and of an or whose kids all exclude",
				pred: And(Range[int64]("qty", qLo, qHi), Or(Range[int64]("ts", b1Lo, b1Hi), Range[int64]("ts", b2Lo, b2Hi))),
				leaves: []Predicate{Range[int64]("qty", qLo, qHi), Range[int64]("ts", b1Lo, b1Hi),
					Range[int64]("ts", b2Lo, b2Hi)},
				match: func(i int) bool {
					return inBand(qty, i, qLo, qHi) && (inBand(ts, i, b1Lo, b1Hi) || inBand(ts, i, b2Lo, b2Hi))
				},
				admitted: func(s int) bool {
					return overlaps(qty, s, qLo, qHi) && (overlaps(ts, s, b1Lo, b1Hi) || overlaps(ts, s, b2Lo, b2Hi))
				},
			},
			{
				name:     "andnot whose minuend excludes",
				pred:     AndNot(Range[int64]("ts", lo, hi), StrEquals("city", c)),
				leaves:   []Predicate{Range[int64]("ts", lo, hi), StrEquals("city", c)},
				match:    func(i int) bool { return inBand(ts, i, lo, hi) && city[i] != c },
				admitted: func(s int) bool { return overlaps(ts, s, lo, hi) },
			},
		}
		for _, tc := range cases {
			var want []uint32
			for i := range ts {
				if tc.match(i) {
					want = append(want, uint32(i))
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: brute force matches nothing; the case proves nothing", tc.name)
			}
			excluded := 0
			for s := 0; s < segs; s++ {
				if !tc.admitted(s) {
					excluded++
				}
			}
			if excluded == 0 || excluded == segs {
				t.Fatalf("%s: %d of %d segments excluded; the case proves nothing", tc.name, excluded, segs)
			}
			for _, par := range []int{1, 2, 8} {
				opts := SelectOptions{Parallelism: par}
				ctx := fmt.Sprintf("shards=%d %s par=%d", shards, tc.name, par)
				q := tb.Select().Where(tc.pred).Options(opts)
				got, st, err := q.IDs()
				if err != nil {
					t.Fatal(err)
				}
				equalIDs(t, got, want, ctx)

				// (b) What the leaves probe alone, on admitted segments only.
				var probes uint64
				for _, leaf := range tc.leaves {
					plan, err := tb.Select().Where(leaf).Options(opts).Explain()
					if err != nil {
						t.Fatal(err)
					}
					for _, sp := range plan.Root.SegmentDetails {
						if tc.admitted(sp.Segment) {
							probes += sp.Stats.Probes
						}
					}
				}
				if st.Probes != probes {
					t.Errorf("%s: %d probes, want %d (the leaves' own probes on admitted segments)", ctx, st.Probes, probes)
				}

				// (c) The plan of every excluded segment.
				plan, err := q.Explain()
				if err != nil {
					t.Fatal(err)
				}
				if plan.Stats.Probes != probes {
					t.Errorf("%s: Explain counted %d probes, want %d", ctx, plan.Stats.Probes, probes)
				}
				conjunct := 0
				var walk func(n *PlanNode)
				walk = func(n *PlanNode) {
					for _, sp := range n.SegmentDetails {
						if tc.admitted(sp.Segment) {
							continue
						}
						if sp.Access != "pruned" || sp.Stats.Probes != 0 || sp.Residual >= 0 {
							t.Errorf("%s: %s on excluded segment %d: %s (%s), %d probes, res=%.2f",
								ctx, n.Pred, sp.Segment, sp.Access, sp.Reason, sp.Stats.Probes, sp.Residual)
						}
						if sp.Reason == "conjunct excluded" {
							conjunct++
						}
					}
					for _, kid := range n.Children {
						walk(kid)
					}
				}
				walk(plan.Root)
				if conjunct == 0 {
					t.Errorf("%s: no leaf was pruned for its conjunct:\n%s", ctx, plan)
				}
				if !strings.Contains(plan.String(), "pruned (conjunct excluded)") {
					t.Errorf("%s: plan text does not name the conjunct:\n%s", ctx, plan)
				}
			}
		}
	}
}

// BenchmarkConjunctionPrune times the point-lookup conjunction — count
// of a city in a narrow near-sorted ts band — over 16 segments of 64K
// rows: ts's min/max leaves one or two segments, so the city imprint is
// probed (and sampled) there only. probes/op reports what was walked.
func BenchmarkConjunctionPrune(b *testing.B) {
	tb, _, _, city := conjunctionTable(b, 1, 16, DefaultSegmentRows)
	lo := int64(9*DefaultSegmentRows*10 + 123_456)
	q := tb.Select().Where(And(StrEquals("city", city[9*DefaultSegmentRows+40_000]),
		Range[int64]("ts", lo, lo+5_000))).Options(SelectOptions{Parallelism: 1})
	b.ReportAllocs()
	b.ResetTimer()
	var probes uint64
	for i := 0; i < b.N; i++ {
		_, st, err := q.Count()
		if err != nil {
			b.Fatal(err)
		}
		probes = st.Probes
	}
	b.ReportMetric(float64(probes), "probes/op")
}
