package sim

import "testing"

// The event pool makes steady-state scheduling allocation-free: every fired
// event's struct is recycled for the next Schedule. This test pins that at
// exactly zero so the optimisation cannot silently rot.
func TestScheduleSteadyStateAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the pool and the queue's backing array.
	for i := 0; i < 64; i++ {
		Schedule(s, Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		Schedule(s, 10*Microsecond, fn)
		if err := s.RunFor(Millisecond); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire cycle allocated %v objects per run, want 0", allocs)
	}
}

// Cancelling pooled events must stay allocation-free too (Cancel only flips
// a flag or, at worst, compacts in place).
func TestCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		Schedule(s, Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		id := Schedule(s, 10*Microsecond, fn)
		id.Cancel()
		if err := s.RunFor(Millisecond); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel cycle allocated %v objects per run, want 0", allocs)
	}
}

// A stale EventID whose event struct has been recycled into a new event must
// not cancel the new incarnation.
func TestStaleEventIDCannotCancelReusedStruct(t *testing.T) {
	s := New(1)
	stale := Schedule(s, Microsecond, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fired := false
	fresh := Schedule(s, Microsecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("expected the pooled event struct to be reused")
	}
	stale.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("stale EventID cancelled a reused event")
	}
}

// Cancelled events are compacted out of the queue once they outnumber the
// live ones, so Ticker-stop/Cancel churn cannot grow the queue unboundedly.
func TestCancelCompaction(t *testing.T) {
	s := New(1)
	const n = 1000
	fired := 0
	ids := make([]EventID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, Schedule(s, Duration(i+1)*Microsecond, func() { fired++ }))
	}
	for i := 0; i < 600; i++ {
		ids[i].Cancel()
	}
	// Compaction triggers as soon as cancellations exceed half the queue
	// (at the 501st cancel here); the cancels after it stay resident until
	// the next threshold crossing, but the dead majority is gone.
	if s.Compactions() == 0 {
		t.Fatal("cancelling over half the queue did not trigger compaction")
	}
	if live := s.Pending() - s.CanceledPending(); live != n-600 {
		t.Fatalf("live events = %d, want %d", live, n-600)
	}
	if got := s.Pending(); got >= n-100 {
		t.Fatalf("Pending() = %d after compaction, expected the dead majority to be gone", got)
	}
	// Cancel of an already-compacted (recycled) event is a no-op.
	before := s.CanceledPending()
	ids[0].Cancel()
	if got := s.CanceledPending(); got != before {
		t.Fatalf("stale cancel after compaction bumped CanceledPending %d -> %d", before, got)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != n-600 {
		t.Fatalf("fired %d events, want %d", fired, n-600)
	}
}

// Compaction must preserve the deterministic (time, sequence) pop order.
func TestCompactionPreservesOrder(t *testing.T) {
	s := New(1)
	var order []int
	var ids []EventID
	for i := 0; i < 200; i++ {
		i := i
		ids = append(ids, Schedule(s, Duration(200-i)*Microsecond, func() { order = append(order, i) }))
	}
	// Cancel every odd-index event plus index 0 — one past half the queue,
	// forcing a compaction. Survivors must still fire in reverse index
	// order (their delays decrease with index).
	for i := 1; i < 200; i += 2 {
		ids[i].Cancel()
	}
	ids[0].Cancel()
	if s.Compactions() == 0 {
		t.Fatal("expected a compaction")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 99 {
		t.Fatalf("fired %d events, want 99", len(order))
	}
	for k, idx := range order {
		if want := 198 - 2*k; idx != want {
			t.Fatalf("order[%d] = %d, want %d", k, idx, want)
		}
	}
}

// Small queues are not compacted: skipping dead events on pop is cheaper
// than a rebuild below compactMinLen.
func TestNoCompactionBelowThreshold(t *testing.T) {
	s := New(1)
	var ids []EventID
	for i := 0; i < compactMinLen-1; i++ {
		ids = append(ids, Schedule(s, Duration(i+1), func() {}))
	}
	for _, id := range ids {
		id.Cancel()
	}
	if s.Compactions() != 0 {
		t.Fatalf("queue of %d events compacted %d times, want 0", compactMinLen-1, s.Compactions())
	}
	if got := s.CanceledPending(); got != compactMinLen-1 {
		t.Fatalf("CanceledPending() = %d, want %d", got, compactMinLen-1)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := s.CanceledPending(); got != 0 {
		t.Fatalf("after draining, CanceledPending() = %d, want 0", got)
	}
}
