package table

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// cancelTable builds a multi-segment table so the fan-out has segments
// to skip when a query is canceled.
func cancelTable(t *testing.T) *Table {
	t.Helper()
	const rows = 64 * 64 // 64 segments of 64 rows
	vals := make([]int64, rows)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	tb := NewWithOptions("cancel", TableOptions{SegmentRows: 64})
	if err := AddColumn(tb, "v", vals, Imprints, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestExpiredDeadlineDoesNoSegmentWork pins the acceptance criterion: a
// query whose deadline already expired returns a cancellation error
// without scanning any segment — QueryStats shows zero probes and zero
// comparisons because no worker ever started.
func TestExpiredDeadlineDoesNoSegmentWork(t *testing.T) {
	tb := cancelTable(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, par := range []int{1, 4} {
		opts := SelectOptions{Ctx: ctx, Parallelism: par}
		_, st, err := tb.Select().Where(Range[int64]("v", 100, 200)).Options(opts).Count()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("par=%d: want DeadlineExceeded, got %v", par, err)
		}
		if st.Probes != 0 || st.Comparisons != 0 || st.CachelinesScanned != 0 {
			t.Fatalf("par=%d: expired deadline still scanned: %+v", par, st)
		}
		_, st, err = tb.Select().Where(Range[int64]("v", 100, 200)).Options(opts).IDs()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("par=%d IDs: want DeadlineExceeded, got %v", par, err)
		}
		if st.Probes != 0 || st.Comparisons != 0 {
			t.Fatalf("par=%d IDs: expired deadline still scanned: %+v", par, st)
		}
	}
}

// TestCancelBetweenSegments cancels mid-iteration: the serial Rows path
// checks the context between segments, so yielded rows stop shortly
// after the cancel and Err reports the cancellation.
func TestCancelBetweenSegments(t *testing.T) {
	tb := cancelTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := tb.Select("v").Where(AtLeast[int64]("v", 0)).
		Options(SelectOptions{Ctx: ctx, Parallelism: 1})
	seen := 0
	for range q.Rows() {
		seen++
		if seen == 10 {
			cancel()
		}
	}
	if !errors.Is(q.Err(), context.Canceled) {
		t.Fatalf("want context.Canceled from Err, got %v", q.Err())
	}
	// Rows arrive a batch at a time, so the cancel lands while the first
	// batch is being consumed; everything after the segment boundary
	// following it must be skipped. Two segments (64 rows each) of slack
	// tolerate the already-collected one.
	if seen >= tb.Rows() || seen > rowBatchSize+2*64 {
		t.Fatalf("cancellation did not stop the iteration: saw %d of %d rows", seen, tb.Rows())
	}
}

// TestCancelSurfacesFromEveryExecutor runs each executor with an
// already-canceled context and checks the wrapped error surface.
func TestCancelSurfacesFromEveryExecutor(t *testing.T) {
	tb := cancelTable(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := SelectOptions{Ctx: ctx, Parallelism: 2}
	pred := Range[int64]("v", 0, 500)

	if _, _, err := tb.Select().Where(pred).Options(opts).Count(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count: %v", err)
	}
	if _, _, err := tb.Select().Where(pred).Options(opts).IDs(); !errors.Is(err, context.Canceled) {
		t.Fatalf("IDs: %v", err)
	}
	if _, _, err := tb.Select().Where(pred).Options(opts).Aggregate(Sum("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Aggregate: %v", err)
	}
	if _, _, err := tb.Select().Where(pred).Options(opts).GroupBy("v").Aggregate(CountAll()); !errors.Is(err, context.Canceled) {
		t.Fatalf("GroupBy: %v", err)
	}
	if _, _, err := tb.Select().Where(pred).Options(opts).OrderBy(Desc("v")).Limit(5).IDs(); !errors.Is(err, context.Canceled) {
		t.Fatalf("OrderBy: %v", err)
	}
	if _, _, err := tb.Select().Where(pred).Options(opts).Limit(7).Aggregate(CountAll()); !errors.Is(err, context.Canceled) {
		t.Fatalf("limited Aggregate: %v", err)
	}
	if _, err := tb.Select().Where(pred).Options(opts).Explain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Explain: %v", err)
	}

	// A nil context and a live context leave results untouched.
	want, _, err := tb.Select().Where(pred).Count()
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := tb.Select().Where(pred).
		Options(SelectOptions{Ctx: context.Background(), Parallelism: 2}).Count()
	if err != nil || got != want {
		t.Fatalf("live context changed the result: got %d want %d err %v", got, want, err)
	}
}
