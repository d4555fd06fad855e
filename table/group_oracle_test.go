package table

import (
	"math"
	"sort"
	"testing"
)

// The grouped differential reference shared by the segmented, sharded
// and delta oracles: a brute-force GroupBy that replicates the engine's
// merge structure — one partial per (segment, group) folded row by row
// in ascending id order, partials merged in ascending segment order,
// each shard's delta partial afterwards — so float sums can be compared
// bit for bit, not within a tolerance. A fold that visits a group's
// rows in any other order (or shares an accumulator wrongly) shows up
// in the last bits of sum(f).

// refRow is one live qualifying row as the reference sees it.
type refRow struct {
	id int
	// bucket is the row's position in the merge order: the global
	// segment for sealed rows, refDeltaBucket+shard for buffered ones.
	bucket int
	a      int64
	f      float64
	s      string
	key    any // int64, uint64 or string
}

const refDeltaBucket = 1 << 30

// refSpecs is the aggregate list every grouped probe requests: every
// operator, sum and avg of one column side by side (they share an
// accumulator), on int, float and string columns.
func refSpecs() []AggSpec {
	return []AggSpec{
		CountAll(), Sum("a"), Avg("a"), Min("a"), Max("a"),
		Sum("f"), Avg("f"), Min("f"), Max("f"), Min("s"), Max("s"),
	}
}

type refPart struct {
	rows       uint64
	sumA       int64
	minA, maxA int64
	sumF       float64
	minF, maxF float64
	minS, maxS string
}

func (p *refPart) add(r refRow) {
	if p.rows == 0 {
		p.minA, p.maxA, p.minF, p.maxF, p.minS, p.maxS = r.a, r.a, r.f, r.f, r.s, r.s
	}
	p.rows++
	p.sumA += r.a
	p.sumF += r.f
	p.minA, p.maxA = min(p.minA, r.a), max(p.maxA, r.a)
	p.minF, p.maxF = min(p.minF, r.f), max(p.maxF, r.f)
	p.minS, p.maxS = min(p.minS, r.s), max(p.maxS, r.s)
}

func (p *refPart) merge(o *refPart) {
	if p.rows == 0 {
		*p = *o
		return
	}
	p.rows += o.rows
	p.sumA += o.sumA
	p.sumF += o.sumF
	p.minA, p.maxA = min(p.minA, o.minA), max(p.maxA, o.maxA)
	p.minF, p.maxF = min(p.minF, o.minF), max(p.maxF, o.maxF)
	p.minS, p.maxS = min(p.minS, o.minS), max(p.maxS, o.maxS)
}

func refKeyLess(a, b any) bool {
	switch x := a.(type) {
	case int64:
		return x < b.(int64)
	case uint64:
		return x < b.(uint64)
	}
	return a.(string) < b.(string)
}

// checkGroupsRef compares one GroupBy(key).Aggregate(refSpecs()...)
// result with the reference fold of rows (any order; sorted here).
func checkGroupsRef(t *testing.T, tag string, got []Group, rows []refRow) {
	t.Helper()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	type cell struct {
		bucket int
		key    any
	}
	parts := map[cell]*refPart{}
	var cells []cell
	for _, r := range rows {
		c := cell{r.bucket, r.key}
		if parts[c] == nil {
			parts[c] = &refPart{}
			cells = append(cells, c)
		}
		parts[c].add(r)
	}
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].bucket < cells[j].bucket })
	merged := map[any]*refPart{}
	var keys []any
	for _, c := range cells {
		if merged[c.key] == nil {
			merged[c.key] = &refPart{}
			keys = append(keys, c.key)
		}
		merged[c.key].merge(parts[c])
	}
	sort.Slice(keys, func(i, j int) bool { return refKeyLess(keys[i], keys[j]) })
	if len(got) != len(keys) {
		t.Fatalf("%s: %d groups, reference has %d", tag, len(got), len(keys))
	}
	for i, k := range keys {
		g, w := got[i], merged[k]
		if g.Key != k {
			t.Fatalf("%s: group %d has key %v (%T), reference %v (%T)", tag, i, g.Key, g.Key, k, k)
		}
		n := float64(w.rows)
		wantInt := []int64{int64(w.rows), w.sumA, 0, w.minA, w.maxA}
		wantFloat := []float64{0, 0, float64(w.sumA) / n, 0, 0, w.sumF, w.sumF / n, w.minF, w.maxF}
		bad := g.Rows != w.rows
		for j, a := range g.Aggs {
			if !a.Valid {
				bad = true
			}
			switch j {
			case 0, 1, 3, 4:
				bad = bad || !a.IsInt || a.Int != wantInt[j]
			case 2, 5, 6, 7, 8:
				bad = bad || math.Float64bits(a.Float) != math.Float64bits(wantFloat[j])
			case 9:
				bad = bad || a.Str != w.minS
			case 10:
				bad = bad || a.Str != w.maxS
			}
		}
		if bad {
			t.Fatalf("%s: group %v = %d rows %v\nreference %+v (sum(f) bits %x)", tag, k, g.Rows, g.Aggs, *w, math.Float64bits(w.sumF))
		}
	}
}
