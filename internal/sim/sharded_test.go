package sim

import (
	"errors"
	"fmt"
	"testing"
)

// randomWalks runs four entities, each a chain of 50 events whose gaps it
// draws from a stream pinned to its entity ID, on one serial Simulator
// (shards 0) or spread over a sharded engine, and returns every entity's
// firing times.
func randomWalks(t *testing.T, seed int64, shards int) [4][]Time {
	t.Helper()
	const steps = 50
	var (
		run  func() error
		host func(i int) Engine
	)
	if shards == 0 {
		s := New(seed)
		run, host = s.Run, func(int) Engine { return s }
	} else {
		e := NewSharded(seed, shards)
		run, host = e.Run, func(i int) Engine { return e.Shard(i % shards) }
	}
	var log [4][]Time
	for i := range log {
		i := i
		eng := WithRNG(host(i), NewRNG(DeriveSeed(seed, uint64(i))))
		var step ArgHandler
		step = func(now Time, _ any) {
			log[i] = append(log[i], now)
			if len(log[i]) < steps {
				ScheduleArg(eng, Duration(1+eng.RNG().Intn(1000)), step, nil)
			}
		}
		ScheduleArg(eng, 0, step, nil)
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestShardedRunRepeatable runs the same independent entities twice on 1,
// 2 and 4 shards and requires the serial engine's firing times every time:
// goroutine timing must never leak into results.
func TestShardedRunRepeatable(t *testing.T) {
	want := fmt.Sprint(randomWalks(t, 7, 0))
	for _, shards := range []int{1, 2, 4, 2} {
		if got := fmt.Sprint(randomWalks(t, 7, shards)); got != want {
			t.Fatalf("%d shards fired at\n%s\nserial fired at\n%s", shards, got, want)
		}
	}
}

// TestShardedRunPublishesLatestClock: after Run the engine clock is the
// latest shard clock, as the serial engine's is the time of its last event,
// and later relative scheduling and RunFor pick up from there.
func TestShardedRunPublishesLatestClock(t *testing.T) {
	serial := New(1)
	e := NewSharded(1, 2)
	Schedule(serial, 10, func() {})
	Schedule(serial, 20, func() {})
	Schedule(e.Shard(0), 10, func() {})
	Schedule(e.Shard(1), 20, func() {})
	for _, eng := range []Engine{serial, e} {
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Now() != serial.Now() || e.Now() != 20 {
		t.Fatalf("after Run: sharded Now() = %d, serial Now() = %d, want 20", e.Now(), serial.Now())
	}
	var firedSerial, firedSharded Time
	Schedule(serial, 3, func() { firedSerial = serial.Now() })
	Schedule(e.Shard(0), 3, func() { firedSharded = e.Shard(0).Now() })
	for _, eng := range []Engine{serial, e} {
		if err := eng.RunFor(5); err != nil {
			t.Fatal(err)
		}
	}
	if e.Now() != serial.Now() || e.Now() != 25 {
		t.Fatalf("after RunFor(5): sharded Now() = %d, serial Now() = %d, want 25", e.Now(), serial.Now())
	}
	if firedSharded != firedSerial || firedSharded != 23 {
		t.Fatalf("event scheduled 3 ns after Run fired at %d sharded, %d serial, want 23", firedSharded, firedSerial)
	}
}

// TestShardedRunUntilAdvancesClock mirrors the serial contract: after
// RunUntil the engine-wide clock sits exactly at the limit, even when the
// queues drained early, and independent shards both reach it.
func TestShardedRunUntilAdvancesClock(t *testing.T) {
	e := NewSharded(1, 2)
	fired := [2]Time{}
	Schedule(e.Shard(0), Duration(Millisecond), func() { fired[0] = e.Shard(0).Now() })
	Schedule(e.Shard(1), 2*Duration(Millisecond), func() { fired[1] = e.Shard(1).Now() })
	limit := Time(DurationSeconds(0.01))
	if err := e.RunUntil(limit); err != nil {
		t.Fatal(err)
	}
	if e.Now() != limit {
		t.Fatalf("Now() = %v after RunUntil(%v)", e.Now(), limit)
	}
	if fired[0] != Time(Millisecond) || fired[1] != Time(2*Millisecond) {
		t.Fatalf("events fired at %v, want 1ms and 2ms", fired)
	}
	if e.Executed() != 2 {
		t.Fatalf("Executed() = %d, want 2", e.Executed())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// TestShardedStop: the engine-level Stop makes the run report ErrStopped
// when its window ends (shards never wait on one another, so it does not cut
// the window short), while a shard's own Stop halts that shard at once and
// keeps its pending events for the next run.
func TestShardedStop(t *testing.T) {
	e := NewSharded(1, 2)
	finished := false
	Schedule(e.Shard(0), Duration(Millisecond), func() { e.Stop() })
	Schedule(e.Shard(0), 2*Duration(Millisecond), func() { finished = true })
	Schedule(e.Shard(1), Duration(Millisecond), func() { e.Shard(1).Stop() })
	late := false
	Schedule(e.Shard(1), 3600*Duration(Second), func() { late = true })
	err := e.RunUntil(Time(7200 * Second))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("RunUntil returned %v, want ErrStopped", err)
	}
	if !finished {
		t.Fatal("the engine-level Stop cut shard 0's window short")
	}
	if late || e.Pending() != 1 {
		t.Fatalf("the far-future event should survive shard 1's Stop: fired %v, %d pending", late, e.Pending())
	}
	if err := e.RunUntil(Time(7200 * Second)); err != nil {
		t.Fatal(err)
	}
	if !late {
		t.Fatal("the next run did not fire the event the stopped shard kept")
	}
}

func TestShardedEngineRestrictedSurface(t *testing.T) {
	e := NewSharded(1, 2)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("ShardedEngine.RNG", func() { e.RNG() })
	expectPanic("ShardedEngine.ScheduleArgAt", func() { e.ScheduleArgAt(0, func(Time, any) {}, nil) })
	expectPanic("Schedule on ShardedEngine", func() { Schedule(e, 0, func() {}) })
	expectPanic("ScheduleAt on ShardedEngine", func() { ScheduleAt(e, 0, func() {}) })
	expectPanic("Ticker on ShardedEngine", func() { Ticker(e, Duration(Millisecond), func() {}) })
}

func TestNewShardedRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded(1, 0) did not panic")
		}
	}()
	NewSharded(1, 0)
}

// TestWithRNG pins a private stream onto an engine view and checks both that
// draws come from the pinned stream and that scheduling passes through.
func TestWithRNG(t *testing.T) {
	s := New(1)
	pinned := WithRNG(s, NewRNG(42))
	reference := NewRNG(42)
	for i := 0; i < 10; i++ {
		if got, want := pinned.RNG().Float64(), reference.Float64(); got != want {
			t.Fatalf("draw %d: pinned stream %v, want %v", i, got, want)
		}
	}
	fired := false
	Schedule(pinned, Duration(Millisecond), func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event scheduled through the RNG view never fired")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithRNG(nil) did not panic")
		}
	}()
	WithRNG(s, nil)
}

// TestDeriveSeed checks the properties the per-link streams rely on:
// determinism, sensitivity to every coordinate, and no additive collisions.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Fatal("DeriveSeed is not deterministic")
	}
	seen := map[int64]string{}
	for base := int64(0); base < 8; base++ {
		for w := uint64(0); w < 8; w++ {
			s := DeriveSeed(base, w)
			id := fmt.Sprintf("(%d,%d)", base, w)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, id)
			}
			seen[s] = id
		}
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Fatal("DeriveSeed ignores coordinate order")
	}
}

// TestShardedNoCrossRunsIndependently: a Run is one window — every shard
// drains fully in parallel.
func TestShardedNoCrossRunsIndependently(t *testing.T) {
	e := NewSharded(1, 4)
	total := 0
	for i := 0; i < 4; i++ {
		s := e.Shard(i)
		for j := 0; j < 25; j++ {
			Schedule(s, Duration(j)*Duration(Millisecond), func() {})
			total++
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != uint64(total) {
		t.Fatalf("Executed() = %d, want %d", e.Executed(), total)
	}
	if e.Merged() != 0 {
		t.Fatalf("Merged() = %d with no cross edges", e.Merged())
	}
}
