package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	Schedule(s, 30, func() { order = append(order, 3) })
	Schedule(s, 10, func() { order = append(order, 1) })
	Schedule(s, 20, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock should end at 30, got %v", s.Now())
	}
}

func TestScheduleTieBreakInsertionOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		Schedule(s, 5, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order violated at %d: %v", i, order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	fired := 0
	Schedule(s, 10, func() {
		fired++
		Schedule(s, 5, func() { fired++ })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Fatalf("expected 2 events, got %d", fired)
	}
	if s.Now() != 15 {
		t.Fatalf("expected clock 15, got %v", s.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	fired := false
	Schedule(s, 100, func() { fired = true })
	if err := s.RunUntil(50); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired {
		t.Fatal("event at t=100 should not fire before t=50")
	}
	if s.Now() != 50 {
		t.Fatalf("clock should advance to limit, got %v", s.Now())
	}
	if err := s.RunUntil(200); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !fired {
		t.Fatal("event at t=100 should fire by t=200")
	}
	if s.Now() != 200 {
		t.Fatalf("clock should be 200, got %v", s.Now())
	}
}

func TestRunForRelative(t *testing.T) {
	s := New(1)
	count := 0
	Ticker(s, 10, func() { count++ })
	if err := s.RunFor(100); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 10 {
		t.Fatalf("expected 10 ticks in 100ns at period 10, got %d", count)
	}
	if err := s.RunFor(50); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 15 {
		t.Fatalf("expected 15 ticks total, got %d", count)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	id := Schedule(s, 10, func() { fired = true })
	id.Cancel()
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	count := 0
	Ticker(s, 1, func() {
		count++
		if count == 5 {
			s.Stop()
		}
	})
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("expected ErrStopped, got %v", err)
	}
	if count != 5 {
		t.Fatalf("expected to stop after 5 events, got %d", count)
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	count := 0
	var stop func()
	stop = Ticker(s, 10, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	if err := s.RunFor(1000); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 3 {
		t.Fatalf("ticker should have stopped after 3 ticks, got %d", count)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	Schedule(s, -5, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || s.Now() != 0 {
		t.Fatalf("negative delay should fire at t=0; fired=%v now=%v", fired, s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		var samples []float64
		Ticker(s, 10, func() { samples = append(samples, s.RNG().Float64()) })
		_ = s.RunFor(1000)
		return samples
	}
	a := run(42)
	b := run(42)
	c := run(43)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("unequal sample counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDurationHelpers(t *testing.T) {
	if DurationSeconds(1.5) != Duration(1_500_000_000) {
		t.Fatalf("DurationSeconds wrong: %d", DurationSeconds(1.5))
	}
	if DurationMicroseconds(10.12) != Duration(10_120) {
		t.Fatalf("DurationMicroseconds wrong: %d", DurationMicroseconds(10.12))
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("Seconds wrong: %v", got)
	}
	if got := Time(3 * Second).Seconds(); got != 3.0 {
		t.Fatalf("Time.Seconds wrong: %v", got)
	}
	if Time(100).Add(50) != Time(150) {
		t.Fatal("Add wrong")
	}
	if Time(150).Sub(Time(100)) != Duration(50) {
		t.Fatal("Sub wrong")
	}
}

func TestBernoulliEdges(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency off: %v", freq)
	}
}

func TestPoissonMean(t *testing.T) {
	g := NewRNG(11)
	for _, mean := range []float64{0.5, 3, 50} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += g.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > 0.1*mean+0.05 {
			t.Fatalf("Poisson(%v) mean off: %v", mean, got)
		}
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(13)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exponential(2) mean off: %v", mean)
	}
}

func TestChoiceWeighted(t *testing.T) {
	g := NewRNG(17)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Choice(weights)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio off: %v", ratio)
	}
	if g.Choice([]float64{0, 0}) != 0 {
		t.Fatal("all-zero weights should return index 0")
	}
}

func TestEventCountTracking(t *testing.T) {
	s := New(1)
	for i := 0; i < 5; i++ {
		Schedule(s, Duration(i), func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", s.Pending())
	}
	_ = s.Run()
	if s.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", s.Executed())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", s.Pending())
	}
}

// Events scheduled through an Uncounted view keep their place in the
// (time, insertion order) sequence, but Executed skips them; the pooled event
// structs they used count normally once reused.
func TestUncountedEvents(t *testing.T) {
	s := New(1)
	quiet := Uncounted(s)
	var order []int
	for i := 0; i < 6; i++ {
		eng := Engine(s)
		if i%2 == 1 {
			eng = quiet
		}
		Schedule(eng, Duration(10-i%3), func() { order = append(order, i) })
	}
	_ = s.Run()
	if want := []int{2, 5, 1, 4, 0, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if s.Executed() != 3 {
		t.Fatalf("Executed = %d, want the 3 counted events", s.Executed())
	}
	Schedule(s, 1, func() {})
	_ = s.Run()
	if s.Executed() != 4 {
		t.Fatalf("a reused event struct stayed uncounted: Executed = %d, want 4", s.Executed())
	}
}

// Property: for any set of non-negative delays, events fire in non-decreasing
// time order and the clock ends at the maximum delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		s := New(99)
		var fireTimes []Time
		var maxDelay Duration
		for _, d := range delays {
			dur := Duration(d)
			if dur > maxDelay {
				maxDelay = dur
			}
			Schedule(s, dur, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return s.Now() == Time(maxDelay) && len(fireTimes) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Poisson samples are never negative and Bernoulli respects bounds.
func TestPropertyRNGBounds(t *testing.T) {
	g := NewRNG(3)
	f := func(mean float64, p float64) bool {
		mean = math.Mod(math.Abs(mean), 100)
		p = math.Mod(math.Abs(p), 1)
		if g.Poisson(mean) < 0 {
			return false
		}
		v := g.Float64()
		return v >= 0 && v < 1 && (p != 0 || !g.Bernoulli(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
