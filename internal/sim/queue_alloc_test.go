package sim

import (
	"errors"
	"testing"
)

// onHeap runs run as the subtest "heap" on a fresh Simulator, whose pending
// events wait in its event heap.
func onHeap(t *testing.T, run func(t *testing.T, s *Simulator)) {
	t.Run("heap", func(t *testing.T) { run(t, New(1)) })
}

// TestTickerStopAfterEngineStop pins the repaired stop semantics: stopping a
// ticker after the engine has already halted must cancel the pending tick (no
// stale tick on the next run) and stay idempotent.
func TestTickerStopAfterEngineStop(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Simulator) {
		count := 0
		stop := Ticker(s, 10*Microsecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
		if err := s.Run(); !errors.Is(err, ErrStopped) {
			t.Fatalf("Run returned %v, want ErrStopped", err)
		}
		if count != 3 {
			t.Fatalf("ticked %d times before stop, want 3", count)
		}
		// The rearmed tick is still pending; stopping now must cancel it.
		if s.Pending() != 1 {
			t.Fatalf("Pending() = %d after engine stop, want the rearmed tick", s.Pending())
		}
		stop()
		stop() // idempotent
		if err := s.RunFor(Second); err != nil {
			t.Fatalf("RunFor after stop: %v", err)
		}
		if count != 3 {
			t.Fatalf("stale tick fired after stop: count = %d, want 3", count)
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", s.Pending())
		}
	})
}

// warmSteadyState drives a simulator through enough scheduling traffic that
// every reusable buffer (event pool, heap) has grown to its steady-state
// size.
func warmSteadyState(s *Simulator) error {
	fn := func() {}
	for i := 0; i < 256; i++ {
		Schedule(s, Duration(i)*Microsecond, fn)
		// Far events keep a deep heap behind the near ones.
		Schedule(s, Duration(i+1)*100*Millisecond, fn)
	}
	return s.Run()
}

// TestQueueScheduleSteadyStateAllocFree pins the insert→fire cycle at zero
// allocations.
func TestQueueScheduleSteadyStateAllocFree(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Simulator) {
		if err := warmSteadyState(s); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		fn := func() {}
		allocs := testing.AllocsPerRun(200, func() {
			// One near event and one far.
			Schedule(s, 10*Microsecond, fn)
			Schedule(s, 100*Millisecond, fn)
			if err := s.RunFor(Second); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("schedule+fire cycle allocated %v objects per run, want 0", allocs)
		}
	})
}

// TestQueueCancelSteadyStateAllocFree pins the insert→cancel→compact cycle at
// zero allocations.
func TestQueueCancelSteadyStateAllocFree(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Simulator) {
		if err := warmSteadyState(s); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		fn := func() {}
		allocs := testing.AllocsPerRun(200, func() {
			id := Schedule(s, 10*Microsecond, fn)
			far := Schedule(s, 100*Millisecond, fn)
			id.Cancel()
			far.Cancel()
			if err := s.RunFor(Second); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("schedule+cancel cycle allocated %v objects per run, want 0", allocs)
		}
	})
}

// TestTickerSteadyStateAllocFree pins the self-rearming ticker at zero
// allocations per tick: no per-tick closure, no box.
func TestTickerSteadyStateAllocFree(t *testing.T) {
	onHeap(t, func(t *testing.T, s *Simulator) {
		if err := warmSteadyState(s); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		ticks := 0
		stop := Ticker(s, 10*Microsecond, func() { ticks++ })
		defer stop()
		if err := s.RunFor(Millisecond); err != nil {
			t.Fatalf("ticker warmup: %v", err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.RunFor(Millisecond); err != nil {
				t.Fatalf("RunFor: %v", err)
			}
		})
		if allocs != 0 {
			t.Fatalf("ticking allocated %v objects per run, want 0", allocs)
		}
		if ticks == 0 {
			t.Fatal("ticker never fired")
		}
	})
}

// TestReadyRunStaysBounded pins the queue's storage while near events keep
// landing in front of a far one: the heap holds at most the far event and
// the next tick, so its backing array never grows past a small capacity.
// (On the timing wheel this workload kept its sorted ready run from growing
// by one slot per tick.)
func TestReadyRunStaysBounded(t *testing.T) {
	s := New(1)
	Schedule(s, Second, func() {})
	const ticks = 100_000
	n := 0
	var tick func()
	tick = func() {
		if n++; n < ticks {
			Schedule(s, Microsecond, tick)
		}
	}
	Schedule(s, 0, tick)
	maxCap := 0
	for n < ticks {
		if !s.step(-1) {
			t.Fatal("queue drained before the ticks finished")
		}
		maxCap = max(maxCap, cap(s.q))
	}
	if s.Pending() != 1 || s.Now() >= Time(Second) {
		t.Fatalf("Pending() = %d at %v, want only the far event left", s.Pending(), s.Now())
	}
	if maxCap > 256 {
		t.Fatalf("heap grew to capacity %d over %d ticks, want <= 256", maxCap, ticks)
	}
}
