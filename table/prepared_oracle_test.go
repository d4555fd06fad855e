package table

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
)

// The randomized table-level oracle: random mixed numeric/string tables
// and random And/Or/AndNot trees, asserting that a Prepared statement
// (re-bound twice with different parameter sets) ≡ the ad-hoc Query
// path ≡ a naive full-scan evaluation — before and after Append,
// Update, UpdateString, Delete, Compact and Maintain between
// executions.

// oracleMirror is the test's own copy of the table contents, refreshed
// from the table before each naive evaluation.
type oracleMirror struct {
	a, z []int64
	f    []float64
	u    []uint8
	s    []string
}

func refreshMirror(t *testing.T, tb *Table) *oracleMirror {
	t.Helper()
	m := &oracleMirror{}
	var err error
	if m.a, err = Column[int64](tb, "a"); err != nil {
		t.Fatal(err)
	}
	if m.z, err = Column[int64](tb, "z"); err != nil {
		t.Fatal(err)
	}
	if m.f, err = Column[float64](tb, "f"); err != nil {
		t.Fatal(err)
	}
	if m.u, err = Column[uint8](tb, "u"); err != nil {
		t.Fatal(err)
	}
	if m.s, err = tb.StringColumn("s"); err != nil {
		t.Fatal(err)
	}
	return m
}

// oracleNode is one generated predicate node. Parameterized leaves vary
// their values between binding 0 and binding 1; static leaves and inner
// nodes behave identically under both.
type oracleNode struct {
	lit   [2]Predicate      // literal predicate per binding
	par   Predicate         // the same node with placeholders
	binds [2]map[string]any // placeholder values per binding
	naive [2]func(m *oracleMirror, id int) bool
}

func staticNode(p Predicate, nv func(m *oracleMirror, id int) bool) *oracleNode {
	return &oracleNode{
		lit:   [2]Predicate{p, p},
		par:   p,
		binds: [2]map[string]any{{}, {}},
		naive: [2]func(m *oracleMirror, id int) bool{nv, nv},
	}
}

type oracleGen struct {
	rng    *rand.Rand
	m      *oracleMirror // generation-time snapshot, for plausible bounds
	nextID int           // unique parameter names
}

func (g *oracleGen) pname() string {
	g.nextID++
	return fmt.Sprintf("p%d", g.nextID)
}

// leafInt64 builds a leaf over an int64 column ("a" or "z"),
// parameterized with probability 1/2.
func (g *oracleGen) leafInt64(col string, vals []int64) *oracleNode {
	pick := func() int64 { return vals[g.rng.IntN(len(vals))] + int64(g.rng.IntN(41)) - 20 }
	switch g.rng.IntN(5) {
	case 0: // range
		mk := func(lo, hi int64) (Predicate, func(m *oracleMirror, id int) bool) {
			vcol := func(m *oracleMirror) []int64 {
				if col == "a" {
					return m.a
				}
				return m.z
			}
			return Range(col, lo, hi), func(m *oracleMirror, id int) bool {
				v := vcol(m)[id]
				return v >= lo && v < hi
			}
		}
		lo0, hi0 := ordered(pick(), pick())
		lo1, hi1 := ordered(pick(), pick())
		if g.rng.IntN(2) == 0 {
			p0, n0 := mk(lo0, hi0)
			return staticNode(p0, n0)
		}
		pn1, pn2 := g.pname(), g.pname()
		p0, n0 := mk(lo0, hi0)
		p1, n1 := mk(lo1, hi1)
		return &oracleNode{
			lit:   [2]Predicate{p0, p1},
			par:   RangeP(col, Param[int64](pn1), Param[int64](pn2)),
			binds: [2]map[string]any{{pn1: lo0, pn2: hi0}, {pn1: lo1, pn2: hi1}},
			naive: [2]func(m *oracleMirror, id int) bool{n0, n1},
		}
	case 1: // atLeast
		return g.scalarInt64(col, kindAtLeast, pick,
			func(lo int64) Predicate { return AtLeast(col, lo) },
			func(v, lo int64) bool { return v >= lo })
	case 2: // lessThan
		return g.scalarInt64(col, kindLessThan, pick,
			func(hi int64) Predicate { return LessThan(col, hi) },
			func(v, hi int64) bool { return v < hi })
	case 3: // equals
		eq := func() int64 { return vals[g.rng.IntN(len(vals))] }
		return g.scalarInt64(col, kindEquals, eq,
			func(x int64) Predicate { return Equals(col, x) },
			func(v, x int64) bool { return v == x })
	default: // in
		mkSet := func() []int64 {
			set := make([]int64, 1+g.rng.IntN(4))
			for i := range set {
				set[i] = vals[g.rng.IntN(len(vals))] + int64(g.rng.IntN(3)) - 1
			}
			return set
		}
		s0, s1 := mkSet(), mkSet()
		nv := func(set []int64) func(m *oracleMirror, id int) bool {
			return func(m *oracleMirror, id int) bool {
				v := m.a
				if col == "z" {
					v = m.z
				}
				for _, x := range set {
					if v[id] == x {
						return true
					}
				}
				return false
			}
		}
		if g.rng.IntN(2) == 0 {
			return staticNode(In(col, s0...), nv(s0))
		}
		pn := g.pname()
		return &oracleNode{
			lit:   [2]Predicate{In(col, s0...), In(col, s1...)},
			par:   InP(col, Param[int64](pn)),
			binds: [2]map[string]any{{pn: s0}, {pn: s1}},
			naive: [2]func(m *oracleMirror, id int) bool{nv(s0), nv(s1)},
		}
	}
}

// scalarInt64 generalizes the single-bound int64 kinds: half the draws
// stay static (sometimes through the literal Val path of the P
// constructors), the other half parameterize the bound.
func (g *oracleGen) scalarInt64(col string, kind leafKind, pick func() int64,
	mkLit func(int64) Predicate, cmp func(v, b int64) bool) *oracleNode {
	nv := func(b int64) func(m *oracleMirror, id int) bool {
		return func(m *oracleMirror, id int) bool {
			v := m.a
			if col == "z" {
				v = m.z
			}
			return cmp(v[id], b)
		}
	}
	b0, b1 := pick(), pick()
	if g.rng.IntN(2) == 0 {
		if g.rng.IntN(2) == 0 {
			// The literal-Bound (Val) path of the P constructors.
			switch kind {
			case kindAtLeast:
				return staticNode(AtLeastP(col, Val(b0)), nv(b0))
			case kindLessThan:
				return staticNode(LessThanP(col, Val(b0)), nv(b0))
			case kindEquals:
				return staticNode(EqualsP(col, Val(b0)), nv(b0))
			}
		}
		return staticNode(mkLit(b0), nv(b0))
	}
	pn := g.pname()
	var par Predicate
	switch kind {
	case kindAtLeast:
		par = AtLeastP(col, Param[int64](pn))
	case kindLessThan:
		par = LessThanP(col, Param[int64](pn))
	default:
		par = EqualsP(col, Param[int64](pn))
	}
	return &oracleNode{
		lit:   [2]Predicate{mkLit(b0), mkLit(b1)},
		par:   par,
		binds: [2]map[string]any{{pn: b0}, {pn: b1}},
		naive: [2]func(m *oracleMirror, id int) bool{nv(b0), nv(b1)},
	}
}

func (g *oracleGen) leafFloat(vals []float64) *oracleNode {
	pick := func() float64 { return vals[g.rng.IntN(len(vals))] + g.rng.Float64()*10 - 5 }
	lo0, hi0 := orderedF(pick(), pick())
	lo1, hi1 := orderedF(pick(), pick())
	nv := func(lo, hi float64) func(m *oracleMirror, id int) bool {
		return func(m *oracleMirror, id int) bool { v := m.f[id]; return v >= lo && v < hi }
	}
	if g.rng.IntN(2) == 0 {
		return staticNode(Range("f", lo0, hi0), nv(lo0, hi0))
	}
	pn1, pn2 := g.pname(), g.pname()
	return &oracleNode{
		lit:   [2]Predicate{Range("f", lo0, hi0), Range("f", lo1, hi1)},
		par:   RangeP("f", Param[float64](pn1), Param[float64](pn2)),
		binds: [2]map[string]any{{pn1: lo0, pn2: hi0}, {pn1: lo1, pn2: hi1}},
		naive: [2]func(m *oracleMirror, id int) bool{nv(lo0, hi0), nv(lo1, hi1)},
	}
}

func (g *oracleGen) leafUint8() *oracleNode {
	b0, b1 := uint8(g.rng.IntN(8)), uint8(g.rng.IntN(8))
	nv := func(b uint8) func(m *oracleMirror, id int) bool {
		return func(m *oracleMirror, id int) bool { return m.u[id] == b }
	}
	if g.rng.IntN(2) == 0 {
		return staticNode(Equals("u", b0), nv(b0))
	}
	pn := g.pname()
	return &oracleNode{
		lit:   [2]Predicate{Equals("u", b0), Equals("u", b1)},
		par:   EqualsP("u", Param[uint8](pn)),
		binds: [2]map[string]any{{pn: b0}, {pn: b1}},
		naive: [2]func(m *oracleMirror, id int) bool{nv(b0), nv(b1)},
	}
}

func (g *oracleGen) leafString(vals []string) *oracleNode {
	pick := func() string { return vals[g.rng.IntN(len(vals))] }
	switch g.rng.IntN(4) {
	case 0: // inclusive range
		lo0, hi0 := orderedS(pick(), pick())
		lo1, hi1 := orderedS(pick(), pick())
		nv := func(lo, hi string) func(m *oracleMirror, id int) bool {
			return func(m *oracleMirror, id int) bool { v := m.s[id]; return v >= lo && v <= hi }
		}
		if g.rng.IntN(2) == 0 {
			return staticNode(StrRange("s", lo0, hi0), nv(lo0, hi0))
		}
		pn1, pn2 := g.pname(), g.pname()
		return &oracleNode{
			lit:   [2]Predicate{StrRange("s", lo0, hi0), StrRange("s", lo1, hi1)},
			par:   RangeP("s", StrParam(pn1), StrParam(pn2)),
			binds: [2]map[string]any{{pn1: lo0, pn2: hi0}, {pn1: lo1, pn2: hi1}},
			naive: [2]func(m *oracleMirror, id int) bool{nv(lo0, hi0), nv(lo1, hi1)},
		}
	case 1: // equals (sometimes a string absent from the column)
		mk := func() string {
			if g.rng.IntN(4) == 0 {
				return "zzz-absent"
			}
			return pick()
		}
		e0, e1 := mk(), mk()
		nv := func(e string) func(m *oracleMirror, id int) bool {
			return func(m *oracleMirror, id int) bool { return m.s[id] == e }
		}
		if g.rng.IntN(2) == 0 {
			return staticNode(StrEquals("s", e0), nv(e0))
		}
		pn := g.pname()
		return &oracleNode{
			lit:   [2]Predicate{StrEquals("s", e0), StrEquals("s", e1)},
			par:   EqualsP("s", StrParam(pn)),
			binds: [2]map[string]any{{pn: e0}, {pn: e1}},
			naive: [2]func(m *oracleMirror, id int) bool{nv(e0), nv(e1)},
		}
	case 2: // prefix
		mk := func() string {
			s := pick()
			return s[:1+g.rng.IntN(len(s))]
		}
		p0, p1 := mk(), mk()
		nv := func(p string) func(m *oracleMirror, id int) bool {
			return func(m *oracleMirror, id int) bool { return strings.HasPrefix(m.s[id], p) }
		}
		if g.rng.IntN(2) == 0 {
			return staticNode(StrPrefix("s", p0), nv(p0))
		}
		pn := g.pname()
		return &oracleNode{
			lit:   [2]Predicate{StrPrefix("s", p0), StrPrefix("s", p1)},
			par:   PrefixP("s", StrParam(pn)),
			binds: [2]map[string]any{{pn: p0}, {pn: p1}},
			naive: [2]func(m *oracleMirror, id int) bool{nv(p0), nv(p1)},
		}
	default: // in
		mkSet := func() []string {
			set := make([]string, 1+g.rng.IntN(3))
			for i := range set {
				set[i] = pick()
			}
			return set
		}
		s0, s1 := mkSet(), mkSet()
		nv := func(set []string) func(m *oracleMirror, id int) bool {
			return func(m *oracleMirror, id int) bool {
				for _, x := range set {
					if m.s[id] == x {
						return true
					}
				}
				return false
			}
		}
		if g.rng.IntN(2) == 0 {
			return staticNode(StrIn("s", s0...), nv(s0))
		}
		pn := g.pname()
		return &oracleNode{
			lit:   [2]Predicate{StrIn("s", s0...), StrIn("s", s1...)},
			par:   InP("s", StrParam(pn)),
			binds: [2]map[string]any{{pn: s0}, {pn: s1}},
			naive: [2]func(m *oracleMirror, id int) bool{nv(s0), nv(s1)},
		}
	}
}

func (g *oracleGen) leaf() *oracleNode {
	switch g.rng.IntN(5) {
	case 0:
		return g.leafInt64("a", g.m.a)
	case 1:
		return g.leafInt64("z", g.m.z)
	case 2:
		return g.leafFloat(g.m.f)
	case 3:
		return g.leafUint8()
	default:
		return g.leafString(g.m.s)
	}
}

// tree builds a random predicate tree of the given depth.
func (g *oracleGen) tree(depth int) *oracleNode {
	if depth <= 0 || g.rng.IntN(3) == 0 {
		return g.leaf()
	}
	n := 2 + g.rng.IntN(2)
	kids := make([]*oracleNode, n)
	for i := range kids {
		kids[i] = g.tree(depth - 1)
	}
	combine := func(mk func(ps ...Predicate) Predicate, fold func(vals []bool) bool) *oracleNode {
		out := &oracleNode{}
		for b := 0; b < 2; b++ {
			lits := make([]Predicate, n)
			pars := make([]Predicate, n)
			binds := map[string]any{}
			for i, k := range kids {
				lits[i] = k.lit[b]
				pars[i] = k.par
				for name, v := range k.binds[b] {
					binds[name] = v
				}
			}
			out.lit[b] = mk(lits...)
			if b == 0 {
				out.par = mk(pars...)
			}
			out.binds[b] = binds
			bb := b
			out.naive[b] = func(m *oracleMirror, id int) bool {
				vals := make([]bool, n)
				for i, k := range kids {
					vals[i] = k.naive[bb](m, id)
				}
				return fold(vals)
			}
		}
		return out
	}
	switch g.rng.IntN(3) {
	case 0:
		return combine(And, func(vals []bool) bool {
			for _, v := range vals {
				if !v {
					return false
				}
			}
			return true
		})
	case 1:
		return combine(Or, func(vals []bool) bool {
			for _, v := range vals {
				if v {
					return true
				}
			}
			return false
		})
	default:
		n = 2
		kids = kids[:2]
		return combine(func(ps ...Predicate) Predicate { return AndNot(ps[0], ps[1]) },
			func(vals []bool) bool { return vals[0] && !vals[1] })
	}
}

func mkOracleTable(t *testing.T, rng *rand.Rand, n int) *Table {
	t.Helper()
	a := make([]int64, n)
	z := make([]int64, n)
	f := make([]float64, n)
	u := make([]uint8, n)
	s := make([]string, n)
	v, w := int64(500), int64(0)
	for i := 0; i < n; i++ {
		v += int64(rng.IntN(21)) - 10
		w += int64(rng.IntN(4))
		a[i] = v
		z[i] = w
		f[i] = rng.Float64() * 200
		u[i] = uint8(rng.IntN(8))
		s[i] = cities[(i/37+rng.IntN(2))%len(cities)]
	}
	tb := New("oracle")
	if err := AddColumn(tb, "a", a, Imprints, core.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "z", z, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "f", f, Imprints, core.Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := AddColumn(tb, "u", u, NoIndex, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddStringColumn("s", s, Imprints, core.Options{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// mutateOracleTable applies one randomized round of writers.
func mutateOracleTable(t *testing.T, rng *rand.Rand, tb *Table, round int) {
	t.Helper()
	switch round % 4 {
	case 0: // batch append
		k := 50 + rng.IntN(100)
		a := make([]int64, k)
		z := make([]int64, k)
		f := make([]float64, k)
		u := make([]uint8, k)
		s := make([]string, k)
		for i := range a {
			a[i] = 400 + int64(rng.IntN(300))
			z[i] = int64(rng.IntN(1000))
			f[i] = rng.Float64() * 200
			u[i] = uint8(rng.IntN(8))
			s[i] = cities[rng.IntN(len(cities))]
		}
		b := tb.NewBatch()
		if err := Append(b, "a", a); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "z", z); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "f", f); err != nil {
			t.Fatal(err)
		}
		if err := Append(b, "u", u); err != nil {
			t.Fatal(err)
		}
		if err := b.AppendStrings("s", s); err != nil {
			t.Fatal(err)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	case 1: // in-place updates, incl. a novel string (dictionary re-encode)
		rows := tb.Rows()
		for i := 0; i < 20; i++ {
			id := rng.IntN(rows)
			if err := Update(tb, "a", id, 400+int64(rng.IntN(300))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.UpdateString("s", rng.IntN(rows), cities[rng.IntN(len(cities))]); err != nil {
			t.Fatal(err)
		}
		if err := tb.UpdateString("s", rng.IntN(rows), fmt.Sprintf("novel-%d", round)); err != nil {
			t.Fatal(err)
		}
	case 2: // deletes
		rows := tb.Rows()
		for i := 0; i < 30; i++ {
			if err := tb.Delete(rng.IntN(rows)); err != nil {
				t.Fatal(err)
			}
		}
	default: // compact (drops deleted rows, renumbers) + maintenance
		tb.Compact()
		tb.Maintain(MaintainOptions{})
	}
}

func TestPreparedRandomizedOracle(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x0a0c1e))
		tb := mkOracleTable(t, rng, 1500+rng.IntN(1500))
		opts := []SelectOptions{{}, {ScanThreshold: 2}, {ScanThreshold: 0.001}}[seed%3]

		for tree := 0; tree < 5; tree++ {
			g := &oracleGen{rng: rng, m: refreshMirror(t, tb)}
			node := g.tree(2)
			prep, err := tb.Prepare(node.par, opts)
			if err != nil {
				t.Fatalf("seed %d tree %d: Prepare: %v", seed, tree, err)
			}
			for round := 0; round < 4; round++ {
				m := refreshMirror(t, tb)
				for b := 0; b < 2; b++ {
					ctx := fmt.Sprintf("seed %d tree %d round %d binding %d", seed, tree, round, b)

					q := prep.Exec().Options(opts)
					for name, v := range node.binds[b] {
						q = q.Bind(name, v)
					}
					gotPrep, _, err := q.IDs()
					if err != nil {
						t.Fatalf("%s: prepared: %v", ctx, err)
					}
					gotAdhoc, stAdhoc, err := tb.Select().Where(node.lit[b]).Options(opts).IDs()
					if err != nil {
						t.Fatalf("%s: adhoc: %v", ctx, err)
					}
					var want []uint32
					for id := 0; id < tb.Rows(); id++ {
						if tb.IsDeleted(id) {
							continue
						}
						if node.naive[b](m, id) {
							want = append(want, uint32(id))
						}
					}
					equalIDs(t, gotPrep, want, ctx+": prepared vs naive")
					equalIDs(t, gotAdhoc, want, ctx+": adhoc vs naive")

					// Parallelism changes nothing: identical ids at each
					// level, and identical statistics (scratch reuse
					// depends on pool warmth, not the plan).
					for _, par := range []int{1, 2, 8} {
						po := opts
						po.Parallelism = par
						gotPar, stPar, err := tb.Select().Where(node.lit[b]).Options(po).IDs()
						if err != nil {
							t.Fatalf("%s: par=%d: %v", ctx, par, err)
						}
						equalIDs(t, gotPar, want, fmt.Sprintf("%s: par=%d vs naive", ctx, par))
						a, c := stAdhoc, stPar
						a.ScratchReused, c.ScratchReused = 0, 0
						if a != c {
							t.Errorf("%s: par=%d stats diverge from the first run\nfirst %+v\npar   %+v", ctx, par, stAdhoc, stPar)
						}
					}

					// Count agrees with the id list (exercising the
					// exact-run popcount shortcut under deletes).
					q2 := prep.Exec().Options(opts)
					for name, v := range node.binds[b] {
						q2 = q2.Bind(name, v)
					}
					n, _, err := q2.Count()
					if err != nil {
						t.Fatalf("%s: count: %v", ctx, err)
					}
					if n != uint64(len(want)) {
						t.Errorf("%s: Count = %d, want %d", ctx, n, len(want))
					}
				}
				mutateOracleTable(t, rng, tb, round+int(seed)+tree)
			}
		}
	}
}

func ordered(a, b int64) (int64, int64) {
	if a > b {
		return b, a
	}
	return a, b
}

func orderedF(a, b float64) (float64, float64) {
	if a > b {
		return b, a
	}
	return a, b
}

func orderedS(a, b string) (string, string) {
	if a > b {
		return b, a
	}
	return a, b
}
