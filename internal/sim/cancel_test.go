package sim

import "testing"

// TestCancelAfterFireIsNoOp cancels an event that already fired; the cancel
// must be harmless and the simulator must keep working.
func TestCancelAfterFireIsNoOp(t *testing.T) {
	s := New(1)
	fired := 0
	id := Schedule(s, 10, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	id.Cancel()
	id.Cancel()
	if fired != 1 {
		t.Fatalf("event fired %d times, want 1", fired)
	}
	Schedule(s, 10, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatalf("Run after late cancel: %v", err)
	}
	if fired != 2 {
		t.Fatalf("simulator broken after late cancel: fired=%d", fired)
	}
}

// TestCancelZeroValueEventID checks the zero EventID is safe to cancel.
func TestCancelZeroValueEventID(t *testing.T) {
	var id EventID
	id.Cancel() // must not panic
}

// TestCancelPreservesTieOrdering cancels the middle of three events
// scheduled at the same instant; the survivors must still fire in insertion
// order.
func TestCancelPreservesTieOrdering(t *testing.T) {
	s := New(1)
	var order []int
	Schedule(s, 10, func() { order = append(order, 1) })
	mid := Schedule(s, 10, func() { order = append(order, 2) })
	Schedule(s, 10, func() { order = append(order, 3) })
	mid.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("unexpected firing order %v", order)
	}
}

// TestCancelledEventStillCountsAsPendingUntilPopped documents that Cancel
// does not remove the event from the queue eagerly; it is discarded (without
// executing) when its time comes.
func TestCancelledEventStillCountsAsPendingUntilPopped(t *testing.T) {
	s := New(1)
	id := Schedule(s, 10, func() { t.Fatal("cancelled event executed") })
	id.Cancel()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d immediately after cancel, want 1 (lazy removal)", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", s.Pending())
	}
	if s.Executed() != 0 {
		t.Fatalf("cancelled event counted as executed (%d)", s.Executed())
	}
}

// TestTickerStopBeforeFirstTick stops a ticker before any tick fires.
func TestTickerStopBeforeFirstTick(t *testing.T) {
	s := New(1)
	count := 0
	stop := Ticker(s, 10, func() { count++ })
	stop()
	if err := s.RunFor(100); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 0 {
		t.Fatalf("stopped ticker still ticked %d times", count)
	}
}

// TestTickerStopIsIdempotentAcrossRuns stops a ticker between runs (from
// outside its own callback) and calls stop repeatedly.
func TestTickerStopIsIdempotentAcrossRuns(t *testing.T) {
	s := New(1)
	count := 0
	stop := Ticker(s, 10, func() { count++ })
	if err := s.RunFor(25); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 2 {
		t.Fatalf("expected 2 ticks in 25ns at period 10, got %d", count)
	}
	stop()
	stop()
	if err := s.RunFor(100); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 2 {
		t.Fatalf("ticks after stop: got %d, want 2", count)
	}
}

// TestTickerStopInsideCallbackCompletesCurrentTick checks that calling stop
// from within the callback lets the current invocation finish but prevents
// rescheduling.
func TestTickerStopInsideCallbackCompletesCurrentTick(t *testing.T) {
	s := New(1)
	count := 0
	ran := false
	var stop func()
	stop = Ticker(s, 10, func() {
		count++
		stop()
		ran = true // code after stop() still runs in the current tick
	})
	if err := s.RunFor(200); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 1 || !ran {
		t.Fatalf("expected exactly 1 completed tick, got count=%d ran=%v", count, ran)
	}
}

// TestTickerNonPositivePeriodPanics documents the constructor contract.
func TestTickerNonPositivePeriodPanics(t *testing.T) {
	s := New(1)
	for _, period := range []Duration{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ticker(%d) did not panic", period)
				}
			}()
			Ticker(s, period, func() {})
		}()
	}
}

// TestLatestEvent checks EventID.Latest: an event is the latest until
// anything else is scheduled on its simulator, and never once it has been
// cancelled or has fired.
func TestLatestEvent(t *testing.T) {
	s := New(1)
	if (EventID{}).Latest() {
		t.Fatal("the zero EventID is the latest")
	}
	a := Schedule(s, 10, func() {})
	if !a.Latest() {
		t.Fatal("a freshly scheduled event is not the latest")
	}
	b := Schedule(s, 5, func() {})
	if a.Latest() || !b.Latest() {
		t.Fatalf("after scheduling b: a latest %v, b latest %v", a.Latest(), b.Latest())
	}
	// Other engines over the same simulator schedule on it too.
	c := ScheduleArg(Uncounted(s), 20, func(Time, any) {}, nil)
	if b.Latest() || !c.Latest() {
		t.Fatalf("after an uncounted event: b latest %v, c latest %v", b.Latest(), c.Latest())
	}
	c.Cancel()
	if c.Latest() {
		t.Fatal("a cancelled event is the latest")
	}
	d := Schedule(s, 1, func() {})
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if d.Latest() {
		t.Fatal("a fired event is the latest")
	}
	// Its recycled struct now carries a new event; the old ID must not
	// mistake it for its own.
	e := Schedule(s, 1, func() {})
	if d.Latest() || !e.Latest() {
		t.Fatalf("after reuse: d latest %v, e latest %v", d.Latest(), e.Latest())
	}
}
