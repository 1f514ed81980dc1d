package sim

import (
	"fmt"
	"testing"
)

// TestShardedCountersQueryableMidRun: every RunUntil is one window, the
// window counter is readable from a shard goroutine mid-run, and the window
// observer sees each window once, back to back, with nothing merged.
func TestShardedCountersQueryableMidRun(t *testing.T) {
	e := NewSharded(3, 4)
	for i := 0; i < 4; i++ {
		for j := 1; j <= 30; j++ {
			Schedule(e.Shard(i), Duration(j)*Duration(Millisecond), func() {})
		}
	}
	// Sample the counter on a shard's event loop during the second window.
	midWindows := ^uint64(0)
	Schedule(e.Shard(2), 15*Duration(Millisecond), func() { midWindows = e.Windows() })

	type window struct {
		start, end Time
		merged     int
	}
	var observed []window
	e.SetWindowObserver(func(start, end Time, merged int) {
		observed = append(observed, window{start, end, merged})
	})
	for _, limit := range []Time{10, 20, 40} {
		if err := e.RunUntil(limit * Time(Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if midWindows != 1 {
		t.Fatalf("mid-run Windows() = %d in the second window, want 1", midWindows)
	}
	want := []window{
		{0, 10 * Time(Millisecond), 0},
		{10 * Time(Millisecond), 20 * Time(Millisecond), 0},
		{20 * Time(Millisecond), 40 * Time(Millisecond), 0},
	}
	if fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Fatalf("observed windows %v, want one per RunUntil: %v", observed, want)
	}
	if e.Windows() != 3 || e.Merged() != 0 {
		t.Fatalf("Windows() = %d, Merged() = %d; want 3 and 0", e.Windows(), e.Merged())
	}
	if e.Executed() != 4*30+1 {
		t.Fatalf("Executed() = %d, want %d", e.Executed(), 4*30+1)
	}
}

// TestBatchObserver checks the serial engine's dispatch hook: one call per
// same-timestamp batch, with the batch length and the queue behind it, and
// installing it does not change execution order.
func TestBatchObserver(t *testing.T) {
	run := func(observe bool) (log []string, batches []string) {
		s := New(5)
		if observe {
			s.SetBatchObserver(func(at Time, batchLen, pending int) {
				batches = append(batches, fmt.Sprintf("t=%d n=%d q=%d", at, batchLen, pending))
			})
		}
		record := func(name string) func() { return func() { log = append(log, name) } }
		Schedule(s, 10, record("a"))
		Schedule(s, 10, record("b"))
		Schedule(s, 20, record("c"))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log, batches
	}
	plain, _ := run(false)
	observed, batches := run(true)
	if fmt.Sprint(plain) != fmt.Sprint(observed) {
		t.Fatalf("observer changed execution order: %v vs %v", plain, observed)
	}
	want := []string{"t=10 n=2 q=1", "t=20 n=1 q=0"}
	if fmt.Sprint(batches) != fmt.Sprint(want) {
		t.Fatalf("batch log = %v, want %v", batches, want)
	}
}
