package delta

import (
	"fmt"
	"slices"
	"testing"
)

// newTestStore is a two-column (int64, string) store whose blocks are 4
// rows wide.
func newTestStore(base int) *Store {
	return NewStore(base, 4, []Col{NewNum[int64](), NewStr()})
}

func mustAppend(t *testing.T, s *Store, a []int64, b []string) {
	t.Helper()
	if err := s.Append([]any{a, b}, 0, len(a)); err != nil {
		t.Fatal(err)
	}
}

// rows reads every row of a view back.
func rows(v View) (a []int64, b []string) {
	if v.Rows == 0 {
		return nil, nil
	}
	a = NumVec[int64](v, 0)[v.Lo():]
	codes, syms := v.StrVec(1)
	for _, c := range codes[v.Lo():] {
		b = append(b, syms[c])
	}
	return a, b
}

func TestStoreAppendAndViews(t *testing.T) {
	s := newTestStore(102) // two rows into a block
	if s.Len() != 0 || s.Base() != 102 {
		t.Fatalf("fresh store: len=%d base=%d", s.Len(), s.Base())
	}
	if v := s.View(); v.Rows != 0 || v.Lo() != 0 || v.Hi() != 0 {
		t.Fatalf("fresh view: %+v", v)
	}
	for name, vals := range map[string][]any{
		"short layout": {[]int64{1}},
		"wrong type":   {[]int32{1}, []string{"x"}},
		"ragged":       {[]int64{1, 2}, []string{"x"}},
	} {
		if err := s.Append(vals, 0, 2); err == nil {
			t.Fatalf("%s batch accepted", name)
		}
	}
	// Rows [1, 6) of a seven-row batch: the window is what lands.
	a := []int64{0, 1, 2, 3, 4, 5, 6}
	b := []string{"-", "x", "y", "x", "z", "y", "-"}
	if err := s.Append([]any{a, b}, 1, 6); err != nil {
		t.Fatal(err)
	}
	// Two padding positions keep blocks of positions aligned with blocks
	// of ids: position p is row 100+p.
	v := s.View()
	if v.Base != 102 || v.Rows != 5 || v.Origin() != 100 || v.Lo() != 2 || v.Hi() != 7 {
		t.Fatalf("view = %+v origin=%d lo=%d hi=%d", v, v.Origin(), v.Lo(), v.Hi())
	}
	ga, gb := rows(v)
	if !slices.Equal(ga, a[1:6]) || !slices.Equal(gb, b[1:6]) {
		t.Fatalf("rows = %v %v", ga, gb)
	}
	// The dictionary hands out codes in arrival order.
	if _, syms := v.StrVec(1); !slices.Equal(syms, []string{"x", "y", "z"}) {
		t.Fatalf("symbols = %v", syms)
	}
	// Appends land beyond a view: the old one still reads its five rows.
	mustAppend(t, s, []int64{7, 8}, []string{"w", "x"})
	if ga, _ := rows(v); !slices.Equal(ga, a[1:6]) {
		t.Fatalf("view grew: %v", ga)
	}
	if ga, gb := rows(s.View()); len(ga) != 7 || gb[5] != "w" || gb[6] != "x" {
		t.Fatalf("after append: %v %v", ga, gb)
	}
}

// The generation contract is what makes optimistic off-lock seal builds
// safe: appends must NOT invalidate a captured prefix (they only extend
// it), while Set, Truncate, SetBase and SetCols must.
func TestStoreGenerationContract(t *testing.T) {
	s := newTestStore(8)
	mustAppend(t, s, []int64{1, 2, 3, 4, 5}, []string{"a", "b", "c", "d", "e"})
	p := s.CopyPrefix(4)
	if p.Base != 8 || p.Rows != 4 {
		t.Fatalf("CopyPrefix = %+v", p)
	}
	if !s.Matches(p.Base, p.Gen, p.Rows) {
		t.Fatal("fresh prefix does not match")
	}
	mustAppend(t, s, []int64{6}, []string{"f"})
	if !s.Matches(p.Base, p.Gen, p.Rows) {
		t.Fatal("append invalidated the prefix")
	}
	SetNum[int64](s, 2, 0, 99)
	s.SetString(2, 1, "novel")
	if s.Matches(p.Base, p.Gen, p.Rows) {
		t.Fatal("Set did not invalidate the prefix")
	}
	// The prefix is a copy: it keeps the old values, the store carries
	// the new ones.
	if a, b := rows(p); !slices.Equal(a, []int64{1, 2, 3, 4}) || !slices.Equal(b, []string{"a", "b", "c", "d"}) {
		t.Fatalf("prefix mutated: %v %v", a, b)
	}
	if a, b := rows(s.View()); a[2] != 99 || b[2] != "novel" || a[5] != 6 {
		t.Fatalf("store after Set: %v %v", a, b)
	}

	gen := s.CopyPrefix(1).Gen
	s.Truncate(5) // one whole block and one row of the next
	if s.Matches(13, gen, 1) {
		t.Fatal("Truncate did not bump the generation")
	}
	if s.Base() != 13 || s.Len() != 1 {
		t.Fatalf("after Truncate: base=%d len=%d", s.Base(), s.Len())
	}
	mustAppend(t, s, []int64{7, 8, 9, 10}, []string{"g", "h", "i", "j"})
	v := s.View()
	if v.Origin() != 12 || v.Lo() != 1 || v.Hi() != 6 {
		t.Fatalf("view after Truncate: origin=%d lo=%d hi=%d", v.Origin(), v.Lo(), v.Hi())
	}
	if a, b := rows(v); !slices.Equal(a, []int64{6, 7, 8, 9, 10}) || !slices.Equal(b, []string{"f", "g", "h", "i", "j"}) {
		t.Fatalf("surviving rows wrong: %v %v", a, b)
	}
	// Draining everything starts the vectors (and the dictionary) over.
	s.Truncate(5)
	mustAppend(t, s, []int64{11}, []string{"k"})
	v = s.View()
	if _, syms := v.StrVec(1); v.Base != 18 || v.Lo() != 2 || !slices.Equal(syms, []string{"k"}) {
		t.Fatalf("after drain: %+v lo=%d syms=%v", v, v.Lo(), syms)
	}
}

// The string dictionary must not grow with the rows that ever passed
// through the store, only with those buffered.
func TestStoreDictionaryStaysBounded(t *testing.T) {
	s := NewStore(0, 4, []Col{NewStr()})
	next := 0
	batch := func(n int) []any {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprint("sym-", next)
			next++
		}
		return []any{vals}
	}
	if err := s.Append(batch(10), 0, 10); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		if err := s.Append(batch(1000), 0, 1000); err != nil {
			t.Fatal(err)
		}
		s.Truncate(1000) // never drains: ten rows always stay
		v := s.View()
		codes, syms := v.StrVec(0)
		if len(syms) > 2*v.Rows+1024+1000 {
			t.Fatalf("round %d: %d symbols for %d buffered rows", round, len(syms), v.Rows)
		}
		for i, c := range codes[v.Lo():] {
			if want := fmt.Sprint("sym-", next-v.Rows+i); syms[c] != want {
				t.Fatalf("round %d: row %d = %q, want %q", round, i, syms[c], want)
			}
		}
	}
}

func TestStoreRelayout(t *testing.T) {
	s := newTestStore(0)
	mustAppend(t, s, []int64{1}, []string{"a"})
	for name, f := range map[string]func(){
		"SetCols": func() { s.SetCols([]Col{NewNum[int64]()}) },
		"SetBase": func() { s.SetBase(7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a non-empty store did not panic", name)
				}
			}()
			f()
		}()
	}
	s.Truncate(1)
	s.SetCols([]Col{NewStr(), NewNum[uint8]()})
	s.SetBase(7)
	if err := s.Append([]any{[]string{"x", "y"}, []uint8{1, 2}}, 0, 2); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	if v.Base != 7 || v.Rows != 2 || v.Origin() != 4 || v.Lo() != 3 {
		t.Fatalf("relayout view: %+v origin=%d lo=%d", v, v.Origin(), v.Lo())
	}
	if got := NumVec[uint8](v, 1)[v.Lo():]; !slices.Equal(got, []uint8{1, 2}) {
		t.Fatalf("rows = %v", got)
	}
}
