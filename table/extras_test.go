package table

import "testing"

func TestInPredicate(t *testing.T) {
	tb, _, _, status := mkTable(t, 4000, 30)
	got, _, err := tb.Select().Where(In[uint8]("status", 1, 3)).IDs()
	if err != nil {
		t.Fatal(err)
	}
	var want []uint32
	for i, v := range status {
		if v == 1 || v == 3 {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, got, want, "IN on unindexed")

	// IN over an indexed column.
	qty, _ := Column[int64](tb, "qty")
	members := []int64{qty[0], qty[100], qty[2000]}
	got, _, err = tb.Select().Where(In("qty", members...)).IDs()
	if err != nil {
		t.Fatal(err)
	}
	in := map[int64]bool{}
	for _, m := range members {
		in[m] = true
	}
	want = nil
	for i, v := range qty {
		if in[v] {
			want = append(want, uint32(i))
		}
	}
	equalIDs(t, got, want, "IN on imprinted")

	// Type mismatch is an error.
	if _, _, err := tb.Select().Where(In[int32]("qty", 5)).IDs(); err == nil {
		t.Error("IN with wrong element type accepted")
	}
}

func TestReadRow(t *testing.T) {
	tb, qty, price, status := mkTable(t, 100, 33)
	row, err := tb.ReadRow(42)
	if err != nil {
		t.Fatal(err)
	}
	if row["qty"] != qty[42] || row["price"] != price[42] || row["status"] != status[42] {
		t.Errorf("ReadRow(42) = %v", row)
	}
	if _, err := tb.ReadRow(100); err == nil {
		t.Error("out-of-range row read accepted")
	}
	if err := tb.Delete(10); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.ReadRow(10); err == nil {
		t.Error("deleted row read accepted")
	}
}
