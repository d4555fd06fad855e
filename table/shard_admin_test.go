package table

import (
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestShardAdminSurface runs one seeded serial stream of admin, write
// and point operations on tables of 1, 2 and 3 shards in lockstep and
// requires, after every step, the same answer from each: what the step
// itself reports, and a snapshot of the whole admin surface (row,
// segment and byte counts, every column's index stats, the buffered
// rows, every column in id order, and ReadRow/IsDeleted for every id).
// Serial commits assign the same ids at every shard count, so the one
// body each operation runs over its parts must merge to the unsharded
// answer.
//
// The stream deletes only rows of the last global segment, and compacts
// before it commits again: a sharded compaction renumbers each shard's
// rows locally (Compact), so deletes anywhere else would give the
// compacted tables different, equally valid, id layouts.
func TestShardAdminSurface(t *testing.T) {
	const segRows = 64
	rng := rand.New(rand.NewPCG(39, 1))
	shardCounts := []int{1, 2, 3}
	tabs := make([]*Table, len(shardCounts))
	for i, n := range shardCounts {
		tabs[i] = NewWithOptions("admin", TableOptions{SegmentRows: segRows, Shards: n})
	}
	defer func() {
		for _, tb := range tabs {
			tb.Close()
		}
	}()
	cities := []string{"delft", "gouda", "leiden", "utrecht", "zwolle"}
	ints := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int64N(1000)
		}
		return v
	}
	floats := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.IntN(4000)) / 8
		}
		return v
	}
	strs := func(n int) []string {
		v := make([]string, n)
		for i := range v {
			v[i] = cities[rng.IntN(len(cities))]
		}
		return v
	}
	// step applies op to every table and requires the same result and
	// the same snapshot from each.
	step := func(name string, op func(tb *Table) any) {
		t.Helper()
		var want any
		var wantSnap adminSnapshot
		for i, tb := range tabs {
			got := op(tb)
			snap := snapshotAdmin(t, tabs[i])
			if i == 0 {
				want, wantSnap = got, snap
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: shards %d reports %v, shards 1 %v", name, shardCounts[i], got, want)
			}
			if diff := snap.diff(wantSnap); diff != "" {
				t.Fatalf("%s: shards %d differs from shards 1: %s", name, shardCounts[i], diff)
			}
		}
	}
	commit := func(n int) func(tb *Table) any {
		cols := map[string]any{"q": ints(n), "p": floats(n), "c": strs(n), "r": ints(n), "d": strs(n)}
		return func(tb *Table) any {
			bt := tb.NewBatch()
			for _, name := range tb.Columns() {
				var err error
				switch v := cols[name].(type) {
				case []int64:
					err = Append(bt, name, v)
				case []float64:
					err = Append(bt, name, v)
				case []string:
					err = bt.AppendStrings(name, v)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			return bt.Commit()
		}
	}
	update := func(n int) func(tb *Table) any {
		rows := tabs[0].Rows()
		type upd struct {
			id int
			q  int64
			p  float64
			c  string
		}
		ups := make([]upd, n)
		for i := range ups {
			ups[i] = upd{rng.IntN(rows), rng.Int64N(5000) - 2000, float64(rng.IntN(9000)) / 4, cities[rng.IntN(len(cities))] + "-x"}
		}
		return func(tb *Table) any {
			var errs []error
			for _, u := range ups {
				errs = append(errs, Update(tb, "q", u.id, u.q), Update(tb, "p", u.id, u.p), tb.UpdateString("c", u.id, u.c))
			}
			return fmt.Sprint(errs)
		}
	}
	// deleteTail deletes n random rows of the last global segment.
	deleteTail := func(n int) func(tb *Table) any {
		rows := tabs[0].Rows()
		lo := (rows - 1) / segRows * segRows
		ids := make([]int, n)
		for i := range ids {
			ids[i] = lo + rng.IntN(rows-lo)
		}
		return func(tb *Table) any {
			var errs []error
			for _, id := range ids {
				errs = append(errs, tb.Delete(id))
			}
			return fmt.Sprint(errs)
		}
	}
	maintain := func(opts MaintainOptions) func(tb *Table) any {
		return func(tb *Table) any {
			rep := tb.Maintain(opts)
			return [3]any{rep.Rebuilt, rep.SegmentsRebuilt, rep.RowsRemoved}
		}
	}
	addCol := func(name string, str bool) func(tb *Table) any {
		rows := tabs[0].Rows()
		q, c := ints(rows), strs(rows)
		return func(tb *Table) any {
			if str {
				return tb.AddStringColumn(name, c, Imprints, core.Options{Seed: 7})
			}
			return AddColumn(tb, name, q, Imprints, core.Options{Seed: 8})
		}
	}

	first := 150
	q, p, c := ints(first), floats(first), strs(first)
	step("add q", func(tb *Table) any { return AddColumn(tb, "q", q, Imprints, core.Options{Seed: 1}) })
	step("add p", func(tb *Table) any { return AddColumn(tb, "p", p, NoIndex, core.Options{}) })
	step("add c", func(tb *Table) any { return tb.AddStringColumn("c", c, Imprints, core.Options{Seed: 2}) })
	step("commit immediate", commit(41))
	step("ingest", func(tb *Table) any { return tb.EnableDeltaIngest(IngestOptions{}) })
	step("commit 37", commit(37))
	step("commit 150", commit(150))
	step("commit 5", commit(5))
	step("update", update(40))
	step("seal", func(tb *Table) any { return tb.SealDelta() })
	step("commit 90", commit(90))
	step("flush", func(tb *Table) any { return tb.FlushDelta() })
	step("update more", update(60))
	step("maintain rebuild", maintain(MaintainOptions{SaturationLimit: 0.05}))
	step("commit 70", commit(70))
	step("add r", addCol("r", false))
	step("add d", addCol("d", true))
	step("commit 133", commit(133))
	step("delete again", deleteTail(9))
	step("maintain compact", maintain(MaintainOptions{DeletedFraction: 0.001}))
	step("commit 20", commit(20))
	step("update buffered", update(10))
	step("delete buffered", deleteTail(4))
	step("compact", func(tb *Table) any { return tb.Compact() })
	dir := t.TempDir()
	step("write/open", func(tb *Table) any {
		i := slicesIndex(tabs, tb)
		path := filepath.Join(dir, fmt.Sprintf("shards-%d.ctbl", shardCounts[i]))
		if err := tb.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, _, err := Open(path, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tb.Close()
		tabs[i] = loaded
		return nil
	})
	step("commit after open", commit(77))
	step("update after open", update(15))
	step("delete after open", deleteTail(3))
	step("compact after open", func(tb *Table) any { return tb.Compact() })
	step("compact nothing", func(tb *Table) any { return tb.Compact() })
}

func slicesIndex(tabs []*Table, tb *Table) int {
	for i, x := range tabs {
		if x == tb {
			return i
		}
	}
	return -1
}

// adminSnapshot is everything TestShardAdminSurface compares.
type adminSnapshot struct {
	Rows, LiveRows, Segments, DeltaRows int
	SizeBytes, IndexBytes               int64
	Stats                               map[string]ColumnIndexStats
	Columns                             map[string]any
	Deleted                             []bool
	Reads                               []string
}

func snapshotAdmin(t *testing.T, tb *Table) adminSnapshot {
	t.Helper()
	s := adminSnapshot{
		Rows: tb.Rows(), LiveRows: tb.LiveRows(), Segments: tb.Segments(), DeltaRows: tb.DeltaRows(),
		SizeBytes: tb.SizeBytes(), IndexBytes: tb.IndexBytes(),
		Stats: map[string]ColumnIndexStats{}, Columns: map[string]any{},
	}
	for _, name := range tb.Columns() {
		st, err := tb.IndexStats(name)
		if err != nil {
			t.Fatal(err)
		}
		s.Stats[name] = st
		typ, err := tb.ColumnType(name)
		if err != nil {
			t.Fatal(err)
		}
		var vals any
		switch typ {
		case "int64":
			vals, err = Column[int64](tb, name)
		case "float64":
			vals, err = Column[float64](tb, name)
		default:
			vals, err = tb.StringColumn(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		s.Columns[name] = vals
	}
	for id := range s.Rows {
		s.Deleted = append(s.Deleted, tb.IsDeleted(id))
		row, err := tb.ReadRow(id)
		s.Reads = append(s.Reads, fmt.Sprint(row, err != nil))
	}
	return s
}

// diff names the first difference from want. Index saturations are
// means summed in part order, so they need only be close.
func (s adminSnapshot) diff(want adminSnapshot) string {
	for name, st := range s.Stats {
		w := want.Stats[name]
		if math.Abs(st.Saturation-w.Saturation) > 1e-12 {
			return fmt.Sprintf("column %s saturation %v, want %v", name, st.Saturation, w.Saturation)
		}
		st.Saturation = w.Saturation
		s.Stats[name] = st
	}
	sv, wv := reflect.ValueOf(s), reflect.ValueOf(want)
	for i := range sv.NumField() {
		if !reflect.DeepEqual(sv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Sprintf("%s: %v, want %v", sv.Type().Field(i).Name, short(sv.Field(i).Interface()), short(wv.Field(i).Interface()))
		}
	}
	return ""
}

func short(v any) string {
	s := fmt.Sprint(v)
	if len(s) > 400 {
		return s[:400] + "…"
	}
	return s
}
