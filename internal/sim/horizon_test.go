package sim

import (
	"math"
	"testing"
)

// horizonAt runs s until limit (negative: Run) with one probe event at time
// at, scheduled after the events already queued, and returns what Horizon
// reported inside it.
func horizonAt(t *testing.T, s *Simulator, at, limit Time) Time {
	t.Helper()
	got := Time(-1)
	ScheduleAt(s, at, func() { got = s.Horizon() })
	var err error
	if limit < 0 {
		err = s.Run()
	} else {
		err = s.RunUntil(limit)
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got < 0 {
		t.Fatal("probe event never ran")
	}
	return got
}

// TestHorizonIsNextEvent: with no limit the horizon is the next pending
// event's time, and it does not disturb the run.
func TestHorizonIsNextEvent(t *testing.T) {
	s := New(1)
	var order []Time
	for _, at := range []Time{300, 700} {
		ScheduleAt(s, at, func() { order = append(order, s.Now()) })
	}
	if h := horizonAt(t, s, 100, -1); h != 300 {
		t.Fatalf("horizon %v, want the next event at 300", h)
	}
	if len(order) != 2 || order[0] != 300 || order[1] != 700 {
		t.Fatalf("events after the probe fired at %v, want [300 700]", order)
	}
}

// TestHorizonSameTimeBatch: while events of the running batch are left, the
// horizon is Now(); the batch's last event sees the next timestamp.
func TestHorizonSameTimeBatch(t *testing.T) {
	s := New(1)
	var first, last Time
	ScheduleAt(s, 100, func() { first = s.Horizon() })
	ScheduleAt(s, 100, func() { last = s.Horizon() })
	ScheduleAt(s, 250, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 100 {
		t.Errorf("horizon %v with an event of the batch left, want Now() = 100", first)
	}
	if last != 250 {
		t.Errorf("horizon %v in the batch's last event, want 250", last)
	}
	// An event scheduled at the current time from inside the batch is next.
	s = New(1)
	var h Time
	ScheduleAt(s, 100, func() {
		Schedule(s, 0, func() {})
		h = s.Horizon()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if h != 100 {
		t.Errorf("horizon %v with an event due now, want 100", h)
	}
}

// TestHorizonCancelledHead: a cancelled event still in the queue may bound
// the horizon early, but never past the true next event.
func TestHorizonCancelledHead(t *testing.T) {
	s := New(1)
	dead := ScheduleAt(s, 200, func() { t.Error("cancelled event ran") })
	ScheduleAt(s, 500, func() {})
	dead.Cancel()
	if h := horizonAt(t, s, 100, -1); h > 500 || h <= 100 {
		t.Fatalf("horizon %v past a cancelled head at 200 and the next event at 500", h)
	}
}

// TestHorizonRunUntilLimit: the running RunUntil's limit caps the horizon at
// one past it, so an instant at the limit still belongs to the run.
func TestHorizonRunUntilLimit(t *testing.T) {
	s := New(1)
	ScheduleAt(s, 10_000, func() {})
	if h := horizonAt(t, s, 100, 400); h != 401 {
		t.Fatalf("horizon %v under RunUntil(400), want 401", h)
	}
	// A nearer event still wins.
	s = New(1)
	ScheduleAt(s, 300, func() {})
	if h := horizonAt(t, s, 100, 400); h != 300 {
		t.Fatalf("horizon %v with an event at 300 under RunUntil(400), want 300", h)
	}
}

// TestHorizonStop: once Stop is called the run owns nothing ahead.
func TestHorizonStop(t *testing.T) {
	s := New(1)
	var h Time
	ScheduleAt(s, 100, func() {
		s.Stop()
		h = s.Horizon()
	})
	ScheduleAt(s, 900, func() {})
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run returned %v, want ErrStopped", err)
	}
	if h != 100 {
		t.Fatalf("horizon %v after Stop, want Now() = 100", h)
	}
}

// TestHorizonEmptyQueue: with nothing pending the horizon is unbounded under
// Run, one past the limit under RunUntil, and Now() outside a run.
func TestHorizonEmptyQueue(t *testing.T) {
	if h := horizonAt(t, New(1), 100, -1); h != math.MaxInt64 {
		t.Errorf("horizon %v on an empty queue under Run, want MaxInt64", h)
	}
	if h := horizonAt(t, New(1), 100, 5000); h != 5001 {
		t.Errorf("horizon %v on an empty queue under RunUntil(5000), want 5001", h)
	}
	s := New(1)
	ScheduleAt(s, 700, func() {})
	if h := s.Horizon(); h != s.Now() {
		t.Errorf("horizon %v outside a run, want Now() = %v", h, s.Now())
	}
	if h := NewSharded(1, 2).Horizon(); h != 0 {
		t.Errorf("sharded engine horizon %v, want its Now() = 0", h)
	}
}

// TestViewHorizonIsItsOwn: a WithRNG view's horizon is its own next live
// event (or one past the RunUntil limit). Other views' events, Untracked
// events and cancelled events do not bound it; an event scheduled on the
// simulator itself, which belongs to no view, makes it the simulator's.
func TestViewHorizonIsItsOwn(t *testing.T) {
	s := New(1)
	a, b := WithRNG(s, NewRNG(1)), WithRNG(s, NewRNG(2))
	quiet := Untracked(a)
	ScheduleAt(b, 200, func() {})
	ScheduleAt(quiet, 100, func() {})
	ScheduleAt(a, 500, func() {})
	ScheduleAt(a, 300, func() { t.Error("cancelled event ran") }).Cancel()
	var ha, hb, hLoose, hLimit Time
	ScheduleAt(quiet, 50, func() {
		ha, hb = a.Horizon(), b.Horizon()
		loose := ScheduleAt(s, 400, func() {})
		hLoose = a.Horizon()
		loose.Cancel()
	})
	if err := s.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	if ha != 500 || hb != 200 {
		t.Errorf("view horizons %v and %v, want their own next events 500 and 200", ha, hb)
	}
	if hLoose != 100 {
		t.Errorf("view horizon %v with an event on no view pending, want the simulator's 100", hLoose)
	}
	if h := a.Horizon(); h != s.Now() {
		t.Errorf("view horizon %v outside a run, want Now() = %v", h, s.Now())
	}
	s = New(1)
	a = WithRNG(s, NewRNG(1))
	ScheduleAt(a, 500, func() {})
	ScheduleAt(Untracked(a), 250, func() { hLimit = a.Horizon() })
	if err := s.RunUntil(450); err != nil {
		t.Fatal(err)
	}
	if hLimit != 451 {
		t.Errorf("view horizon %v under RunUntil(450), want 451", hLimit)
	}
}

// TestViewHorizonSameTimeBatch: a view's own event left in the running batch
// bounds its horizon at Now(); another view's does not.
func TestViewHorizonSameTimeBatch(t *testing.T) {
	s := New(1)
	a, b := WithRNG(s, NewRNG(1)), WithRNG(s, NewRNG(2))
	var ha, hb Time
	ScheduleAt(Untracked(a), 100, func() { ha, hb = a.Horizon(), b.Horizon() })
	ScheduleAt(a, 100, func() {})
	ScheduleAt(b, 900, func() {})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ha != 100 || hb != 900 {
		t.Errorf("horizons %v and %v, want 100 (own event left in the batch) and 900", ha, hb)
	}
}

// TestViewTrackingAllocFree: scheduling, firing and cancelling through a view
// allocate nothing once its heap has grown.
func TestViewTrackingAllocFree(t *testing.T) {
	s := New(1)
	v := WithRNG(s, NewRNG(1))
	fn := func() {}
	for i := 0; i < 64; i++ {
		Schedule(v, Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		Schedule(v, 10*Microsecond, fn)
		Schedule(v, 20*Microsecond, fn).Cancel()
		if err := s.RunFor(Millisecond); err != nil {
			t.Fatalf("RunFor: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("view schedule+cancel+fire cycle allocated %v objects per run, want 0", allocs)
	}
}
