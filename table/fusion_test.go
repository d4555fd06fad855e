package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/coltype"
	"repro/internal/core"
)

// Band fusion (Table.fuseBands): an AtLeast and a LessThan leaf on one
// numeric column, direct kids of one And, compile to a single Range
// leaf. The seeded property test below holds the rewrite to the
// conjunction's semantics on random trees; the direct tests pin what
// Explain shows and that the fused band keeps its exact runs.

// fuseRow is one table row as the brute-force evaluator sees it.
type fuseRow struct {
	i int64
	u uint32
	f float64
	s string
}

// fuseNode pairs a predicate with its brute-force meaning.
type fuseNode struct {
	pred Predicate
	eval func(r fuseRow) bool
}

// fuseGen draws random predicate trees; placeholders it hands out are
// recorded in binds.
type fuseGen struct {
	rng   *rand.Rand
	binds map[string]any
}

var fuseSyms = []string{"ash", "birch", "cedar", "elm", "fir", "oak", "pine", "yew"}

// fuseHalf builds col >= v (atLeast) or col < v as a literal leaf, a
// Val-wrapped P leaf or a placeholder, by turns.
func fuseHalf[V coltype.Value](g *fuseGen, col string, atLeast bool, v V, get func(fuseRow) V) fuseNode {
	b := Val(v)
	form := g.rng.IntN(3)
	if form == 2 {
		name := fmt.Sprintf("p%d", len(g.binds))
		g.binds[name] = v
		b = Param[V](name)
	}
	var p Predicate
	switch {
	case atLeast && form == 0:
		p = AtLeast(col, v)
	case atLeast:
		p = AtLeastP(col, b)
	case form == 0:
		p = LessThan(col, v)
	default:
		p = LessThanP(col, b)
	}
	return fuseNode{p, func(r fuseRow) bool {
		if atLeast {
			return get(r) >= v
		}
		return get(r) < v
	}}
}

// half draws one half-open leaf on the named column with a bound from
// that column's interesting values.
func (g *fuseGen) half(col string, atLeast bool) fuseNode {
	switch col {
	case "i":
		v := []int64{-5, 0, 40, 700, 701, 1500, 1 << 40, math.MinInt64, math.MaxInt64}[g.rng.IntN(9)]
		if g.rng.IntN(2) == 0 {
			v = g.rng.Int64N(1700) - 50
		}
		return fuseHalf(g, col, atLeast, v, func(r fuseRow) int64 { return r.i })
	case "u":
		v := []uint32{0, 1, 500, 999, 1000, math.MaxUint32}[g.rng.IntN(6)]
		if g.rng.IntN(2) == 0 {
			v = g.rng.Uint32N(1100)
		}
		return fuseHalf(g, col, atLeast, v, func(r fuseRow) uint32 { return r.u })
	case "f":
		v := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5, 250}[g.rng.IntN(6)]
		if g.rng.IntN(2) == 0 {
			v = g.rng.Float64()*600 - 50
		}
		return fuseHalf(g, col, atLeast, v, func(r fuseRow) float64 { return r.f })
	}
	v := fuseSyms[g.rng.IntN(len(fuseSyms))]
	if atLeast {
		return fuseNode{StrAtLeast("s", v), func(r fuseRow) bool { return r.s >= v }}
	}
	return fuseNode{StrLessThan("s", v), func(r fuseRow) bool { return r.s < v }}
}

func (g *fuseGen) col() string { return []string{"i", "u", "f", "s"}[g.rng.IntN(4)] }

// band draws an And whose direct kids hold two to four half-open leaves
// on one column — at least one of each direction, so a pair can fuse
// (string columns must not) — shuffled among zero to two other
// subtrees, one of which may hide another half of the same column one
// And level down.
func (g *fuseGen) band(depth int) fuseNode {
	col := g.col()
	kids := []fuseNode{g.half(col, true), g.half(col, false)}
	for n := g.rng.IntN(3); n > 0; n-- {
		kids = append(kids, g.half(col, g.rng.IntN(2) == 0))
	}
	for n := g.rng.IntN(3); n > 0; n-- {
		if g.rng.IntN(3) == 0 {
			kids = append(kids, allOfNodes(g.half(col, g.rng.IntN(2) == 0), g.tree(depth-1)))
		} else {
			kids = append(kids, g.tree(depth-1))
		}
	}
	g.rng.Shuffle(len(kids), func(a, b int) { kids[a], kids[b] = kids[b], kids[a] })
	return allOfNodes(kids...)
}

func allOfNodes(kids ...fuseNode) fuseNode {
	preds := make([]Predicate, len(kids))
	for i, k := range kids {
		preds[i] = k.pred
	}
	return fuseNode{And(preds...), func(r fuseRow) bool {
		for _, k := range kids {
			if !k.eval(r) {
				return false
			}
		}
		return true
	}}
}

// tree draws a random subtree; bands appear at every level, including
// under Or and AndNot.
func (g *fuseGen) tree(depth int) fuseNode {
	if depth <= 0 {
		return g.half(g.col(), g.rng.IntN(2) == 0)
	}
	switch g.rng.IntN(6) {
	case 0:
		a, b := g.tree(depth-1), g.tree(depth-1)
		return fuseNode{Or(a.pred, b.pred), func(r fuseRow) bool { return a.eval(r) || b.eval(r) }}
	case 1:
		a, b := g.tree(depth-1), g.tree(depth-1)
		return fuseNode{AndNot(a.pred, b.pred), func(r fuseRow) bool { return a.eval(r) && !b.eval(r) }}
	case 2:
		v := g.rng.Uint32N(1000)
		return fuseNode{Equals("u", v), func(r fuseRow) bool { return r.u == v }}
	}
	return g.band(depth)
}

// fuseTable builds the property test's table: i clustered (exact runs),
// u uniform, f a bounded walk, s categorical; a tail of rows stays
// buffered in the delta.
func fuseTable(t *testing.T, rng *rand.Rand, shards int) *Table {
	t.Helper()
	gen := func(from, n int) ([]int64, []uint32, []float64, []string) {
		is, us, fs, ss := make([]int64, n), make([]uint32, n), make([]float64, n), make([]string, n)
		for k := range is {
			is[k] = int64(from+k) + rng.Int64N(3)
			us[k] = rng.Uint32N(1000)
			fs[k] = math.Sin(float64(from+k)/90)*250 + rng.Float64()
			ss[k] = fuseSyms[rng.IntN(len(fuseSyms))]
		}
		return is, us, fs, ss
	}
	tb := NewWithOptions("fuse", TableOptions{SegmentRows: 256, Shards: shards})
	is, us, fs, ss := gen(0, 1400)
	for _, err := range []error{
		AddColumn(tb, "i", is, Imprints, core.Options{Seed: 31}),
		AddColumn(tb, "u", us, Imprints, core.Options{Seed: 32}),
		AddColumn(tb, "f", fs, NoIndex, core.Options{}),
		tb.AddStringColumn("s", ss, Imprints, core.Options{Seed: 33}),
		tb.EnableDeltaIngest(IngestOptions{}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	is, us, fs, ss = gen(1400, 150)
	b := tb.NewBatch()
	for _, err := range []error{Append(b, "i", is), Append(b, "u", us), Append(b, "f", fs), b.AppendStrings("s", ss), b.Commit()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 60; d++ {
		if err := tb.Delete(rng.IntN(tb.Rows())); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestBandFusionProperty(t *testing.T) {
	trees := 120
	if raceEnabled {
		trees = 30
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xf05e, uint64(shards)))
			tb := fuseTable(t, rng, shards)
			defer tb.Close()
			// The model is the table's own unfiltered scan: ids and rows.
			var ids []uint32
			var rows []fuseRow
			q := tb.Select("i", "u", "f", "s")
			for id, r := range q.Rows() {
				ids = append(ids, uint32(id))
				rows = append(rows, fuseRow{r.Value(0).(int64), r.Value(1).(uint32), r.Value(2).(float64), r.Value(3).(string)})
			}
			if err := q.Err(); err != nil {
				t.Fatal(err)
			}
			if len(rows) < 1400 || tb.DeltaRows() == 0 {
				t.Fatalf("want sealed and buffered rows, have %d rows, %d buffered", len(rows), tb.DeltaRows())
			}
			for n := 0; n < trees; n++ {
				g := &fuseGen{rng: rng, binds: map[string]any{}}
				node := g.tree(2)
				var wantIDs []uint32
				var wantSum int64
				for k, r := range rows {
					if node.eval(r) {
						wantIDs = append(wantIDs, ids[k])
						wantSum += r.i
					}
				}
				tag := fmt.Sprintf("tree %d", n)
				exec := func(opts SelectOptions) *Query {
					p, err := tb.Prepare(node.pred, opts)
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					q := p.Exec()
					for name, v := range g.binds {
						q = q.Bind(name, v)
					}
					return q
				}
				var first string
				for _, par := range []int{1, 2, 8} {
					opts := SelectOptions{Parallelism: par}
					tag := fmt.Sprintf("%s par=%d", tag, par)
					got, _, err := exec(opts).IDs()
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if !slices.Equal(got, wantIDs) {
						plan, _ := exec(opts).Explain()
						t.Fatalf("%s: %d ids, brute force %d\n%v", tag, len(got), len(wantIDs), plan)
					}
					cnt, _, err := exec(opts).Count()
					if err != nil || cnt != uint64(len(wantIDs)) {
						t.Fatalf("%s: Count = %d (%v), brute force %d", tag, cnt, err, len(wantIDs))
					}
					res, _, err := exec(opts).Aggregate(CountAll(), Sum("i"), Min("u"), Sum("f"), Max("s"))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if res.Rows != uint64(len(wantIDs)) || (len(wantIDs) > 0 && res.At(1).Int != wantSum) {
						t.Fatalf("%s: Aggregate rows/sum = %d/%d, brute force %d/%d", tag, res.Rows, res.At(1).Int, len(wantIDs), wantSum)
					}
					if s := fmt.Sprint(res.Values()); first == "" {
						first = s
					} else if s != first {
						t.Fatalf("%s: aggregates diverge from the serial execution\n%s\n%s", tag, s, first)
					}
					if len(g.binds) == 0 { // the ad-hoc path compiles per execution
						adhoc, _, err := tb.Select().Where(node.pred).Options(opts).IDs()
						if err != nil || !slices.Equal(adhoc, wantIDs) {
							t.Fatalf("%s: ad-hoc ids diverge (%v)", tag, err)
						}
					}
				}
			}
		})
	}
}

// planShape renders a plan tree's operators and leaf predicates.
func planShape(n *PlanNode) string {
	if n.Op == "leaf" {
		return n.Pred
	}
	kids := make([]string, len(n.Children))
	for i, c := range n.Children {
		kids[i] = planShape(c)
	}
	return n.Op + "(" + strings.Join(kids, ", ") + ")"
}

func TestBandFusionExplain(t *testing.T) {
	tb := fuseTable(t, rand.New(rand.NewPCG(7, 7)), 1)
	defer tb.Close()
	shape := func(p Predicate, binds map[string]any) string {
		t.Helper()
		prep, err := tb.Prepare(p, SelectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		q := prep.Exec()
		for name, v := range binds {
			q = q.Bind(name, v)
		}
		plan, err := q.Explain()
		if err != nil {
			t.Fatal(err)
		}
		return planShape(plan.Root)
	}
	for _, c := range []struct {
		name  string
		pred  Predicate
		binds map[string]any
		want  string
	}{
		{"pair", And(AtLeast[int64]("i", 10), LessThan[int64]("i", 20)), nil, "i in [10, 20)"},
		{"reversed pair", And(LessThan[int64]("i", 20), AtLeast[int64]("i", 10)), nil, "i in [10, 20)"},
		{"placeholders", And(AtLeastP("i", Param[int64]("lo")), LessThanP("i", Param[int64]("hi"))),
			map[string]any{"lo": int64(10), "hi": int64(20)}, "i in [$lo=10, $hi=20)"},
		{"mixed bounds", And(AtLeast[uint32]("u", 5), Equals[int64]("i", 3), LessThanP("u", Param[uint32]("hi"))),
			map[string]any{"hi": uint32(9)}, "and(u in [5, $hi=9), i == 3)"},
		{"empty band", And(AtLeast[int64]("i", 20), LessThan[int64]("i", 10)), nil, "i in [20, 10)"},
		{"third leaf", And(AtLeast[int64]("i", 1), AtLeast[int64]("i", 2), LessThan[int64]("i", 9)), nil,
			"and(i in [1, 9), i >= 2)"},
		{"two pairs", And(AtLeast[int64]("i", 1), AtLeast[int64]("i", 2), LessThan[int64]("i", 9), LessThan[int64]("i", 8)), nil,
			"and(i in [1, 9), i in [2, 8))"},
		{"float", And(AtLeast[float64]("f", -1), LessThan[float64]("f", 1)), nil, "f in [-1, 1)"},
		{"string pair stays", And(StrAtLeast("s", "birch"), StrLessThan("s", "oak")), nil, `and(s >= "birch", s < "oak")`},
		{"under or", Or(AtLeast[int64]("i", 10), LessThan[int64]("i", 20)), nil, "or(i >= 10, i < 20)"},
		{"under andnot", AndNot(AtLeast[int64]("i", 10), LessThan[int64]("i", 20)), nil, "andnot(i >= 10, i < 20)"},
		{"one level down", And(AtLeast[int64]("i", 10), And(LessThan[int64]("i", 20), Equals[uint32]("u", 1))), nil,
			"and(i >= 10, and(i < 20, u == 1))"},
		{"different columns", And(AtLeast[int64]("i", 10), LessThan[uint32]("u", 20)), nil, "and(i >= 10, u < 20)"},
	} {
		if got := shape(c.pred, c.binds); got != c.want {
			t.Errorf("%s: plan %s, want %s", c.name, got, c.want)
		}
	}

	// A wide band on the clustered column: each half alone is
	// unselective — i >= 30 estimates above the scan threshold and falls
	// back to a scan, which has no exact runs — so the unfused
	// conjunction (the LessThan kept one And level down) counts nothing
	// wholesale; the fused band is estimated once, probes, and keeps the
	// exact interior.
	lo, hi := AtLeast[int64]("i", 30), LessThan[int64]("i", 900)
	fused, err := tb.Select().Where(And(lo, hi)).Explain()
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := tb.Select().Where(And(lo, And(hi))).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if planShape(unfused.Root) != "and(i >= 30, i < 900)" || unfused.FastCountRows != 0 {
		t.Fatalf("unfused conjunction: plan %s, %d fast-counted rows; want the two-leaf plan with none",
			planShape(unfused.Root), unfused.FastCountRows)
	}
	if fused.FastCountRows == 0 {
		t.Fatalf("fused band reports no exact runs:\n%v", fused)
	}
	n, st, err := tb.Select().Where(And(lo, hi)).Count()
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := tb.Select().Where(And(lo, And(hi))).Count()
	if err != nil || n != m {
		t.Fatalf("fused count %d, unfused %d (%v)", n, m, err)
	}
	if st.FastCountedRows != fused.FastCountRows {
		t.Fatalf("Count fast-counted %d rows, Explain previewed %d", st.FastCountedRows, fused.FastCountRows)
	}
}
