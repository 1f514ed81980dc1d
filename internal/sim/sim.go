// Package sim provides a small, deterministic discrete-event simulation
// kernel used by the quantum network stack reproduction.
//
// The kernel models simulated time as int64 nanoseconds. Events are
// callbacks scheduled at absolute times and executed in time order; ties are
// broken by insertion order so that runs are fully deterministic for a given
// random seed. The design mirrors the event-driven core of the purpose-built
// simulator described in the paper (NetSquid/DynAA): entities register
// handlers, schedule future work, and communicate through delayed delivery
// (see the channel helpers in this package and internal/classical).
//
// Scheduling is built on one canonical primitive — Engine.ScheduleArgAt — an
// argument-carrying event at an absolute time. The package-level Schedule,
// ScheduleAt, ScheduleArg and Ticker helpers are thin wrappers over it (see
// engine.go). Pending events wait in a binary min-heap (queue.go) that pops
// in exact (time, insertion order), so every run is reproducible.
package sim

import (
	"errors"
	"math"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration constants but for simulated time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String renders the duration using the standard library formatting.
func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the absolute simulated time as seconds since run start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns the time offset by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed between t and earlier.
func (t Time) Sub(earlier Time) Duration { return Duration(t - earlier) }

// String renders the time as a duration since the start of the run.
func (t Time) String() string { return time.Duration(t).String() }

// DurationSeconds builds a Duration from a floating point number of seconds.
func DurationSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// DurationMicroseconds builds a Duration from a floating point number of
// microseconds.
func DurationMicroseconds(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Handler is a parameterless callback executed when an event fires. Handlers
// ride the canonical argument-carrying event as the argument itself (func
// values are pointer-shaped, so the conversion does not allocate).
type Handler func()

// ArgHandler is the canonical event callback: it receives the event's
// timestamp and the argument it was scheduled with. Hot paths that deliver a
// value into a fixed handler (e.g. one classical message into one channel's
// delivery function) build the handler once and schedule pooled
// argument-carrying events, instead of allocating a fresh capturing closure
// per event. The now argument is the firing event's absolute time, equal to
// Engine.Now() inside the callback.
type ArgHandler func(now Time, arg any)

// event is a single scheduled callback. Event structs are pooled: once an
// event has fired (or been compacted away) its struct is recycled by the
// owning simulator, so the hot scheduling path allocates nothing in steady
// state. The gen counter is bumped on every recycle so that stale EventIDs
// held by callers can never cancel an unrelated reuse of the same struct.
type event struct {
	at       Time
	seq      uint64 // insertion order, breaks ties deterministically
	gen      uint64 // incarnation counter, guards pooled reuse
	fn       ArgHandler
	arg      any
	canceled bool
	// uncounted events run like any other but are not counted by Executed
	// (see Uncounted).
	uncounted bool
	// loose marks a live event scheduled on the simulator itself, which
	// belongs to no view: while one is pending, every view's horizon is the
	// simulator's (see WithRNG). view is the WithRNG view whose horizon waits
	// for the event, nil when none does; vi is its index in the view's heap.
	loose bool
	vi    int32
	view  *rngEngine
}

// EventID identifies a scheduled event so it can be cancelled.
type EventID struct {
	s   *Simulator
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. When cancellations accumulate beyond
// half the pending queue the simulator compacts them out immediately (see
// Simulator.maybeCompact), so Ticker-stop/Cancel churn cannot grow the queue
// unboundedly on long runs.
func (id EventID) Cancel() {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.canceled {
		return
	}
	ev.canceled = true
	id.s.release(ev)
	id.s.canceledPending++
	id.s.maybeCompact()
}

// ErrStopped is returned by Run when the simulation was halted explicitly.
var ErrStopped = errors.New("sim: stopped")

// Simulator is a deterministic discrete-event scheduler.
//
// A Simulator is not safe for concurrent use; the entire simulated network
// runs single-threaded, which matches the determinism requirements of the
// protocols under test (both nodes must make identical scheduling decisions).
type Simulator struct {
	now     Time
	q       eventHeap
	nextSeq uint64
	rng     *RNG
	stopped bool
	// running is set inside Run and RunUntil; limit is the running
	// RunUntil's limit, −1 under Run.
	running bool
	limit   Time
	// executed counts events that have fired since construction.
	executed uint64
	// loose counts the live loose events (see event.loose).
	loose int
	// free is the recycled-event pool; see the event type.
	free []*event
	// canceledPending counts cancelled events not yet removed (resident in
	// the queue or awaiting dispatch in the current batch); once they
	// outnumber the live queue residents the queue is compacted.
	canceledPending int
	// compactions counts how many times the queue was compacted.
	compactions uint64
	// batch is the reusable same-timestamp dispatch buffer; batchRemaining
	// counts its not-yet-fired events so Pending stays exact mid-callback.
	batch          []*event
	batchRemaining int
	// batchObs, when set, observes every same-timestamp dispatch batch.
	// Kept nil by default so the dispatch loop pays one predictable branch.
	batchObs func(at Time, batchLen, pending int)
}

// compactMinLen is the queue size below which compaction is not worth the
// rebuild: popping a few dead events is cheaper than rebuilding the queue.
const compactMinLen = 64

// maybeCompact removes cancelled events from the queue once they outnumber
// the live ones. Pop order is unaffected: events are totally ordered by
// (time, sequence), so any queue over the same live set pops identically.
func (s *Simulator) maybeCompact() {
	if s.canceledPending*2 <= s.q.len() || s.q.len() < compactMinLen {
		return
	}
	s.canceledPending -= s.q.compact(s.recycle)
	s.compactions++
}

// Compactions reports how many times cancelled events were compacted out of
// the queue.
func (s *Simulator) Compactions() uint64 { return s.compactions }

// CanceledPending reports how many cancelled events are still resident (they
// are skipped when popped, or removed by compaction).
func (s *Simulator) CanceledPending() int { return s.canceledPending }

// newEvent returns a pooled (or fresh) event initialised for scheduling.
func (s *Simulator) newEvent(at Time, fn ArgHandler, arg any) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.seq = s.nextSeq
	ev.fn = fn
	ev.arg = arg
	ev.canceled = false
	ev.uncounted = false
	s.nextSeq++
	return ev
}

// release stops counting a live event towards any horizon: it has fired or
// been cancelled.
func (s *Simulator) release(ev *event) {
	if ev.loose {
		ev.loose = false
		s.loose--
	}
	if ev.view != nil {
		ev.view.remove(ev)
	}
}

// recycle returns a popped (or compacted) event to the pool, invalidating
// every EventID that still points at it.
func (s *Simulator) recycle(ev *event) {
	s.release(ev)
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// New creates a simulator seeded with seed. Its pending events wait in a
// binary min-heap, popped in exact (time, insertion order).
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRNG(seed)}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// Executed reports how many events have fired so far, not counting events
// scheduled through an Uncounted view (netsim's MHP clock ticks).
func (s *Simulator) Executed() uint64 { return s.executed }

// Pending reports how many events are scheduled and not yet fired (including
// cancelled events awaiting lazy removal).
func (s *Simulator) Pending() int { return s.q.len() + s.batchRemaining }

// SetBatchObserver installs fn to be called once per same-timestamp dispatch
// batch with the batch timestamp, the batch length, and the events still
// queued behind it. The observer must not schedule events or draw
// randomness; it exists for flight-recorder tracing, which records into a
// fixed ring and therefore cannot perturb the trajectory. A nil fn (the
// default) restores the zero-cost path: one predictable branch per batch.
func (s *Simulator) SetBatchObserver(fn func(at Time, batchLen, pending int)) { s.batchObs = fn }

// ScheduleArgAt registers an argument-carrying event at absolute time at;
// times in the past are clamped to the present. This is the one canonical
// scheduling primitive: Schedule, ScheduleAt, ScheduleArg and Ticker are
// package-level wrappers over it. The event belongs to no view, so until it
// fires or is cancelled every view's horizon is the simulator's (WithRNG).
func (s *Simulator) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	ev := s.schedule(at, fn, arg)
	ev.loose = true
	s.loose++
	return EventID{s: s, ev: ev, gen: ev.gen}
}

// schedule queues an event that no horizon tracks; the caller marks it.
func (s *Simulator) schedule(at Time, fn ArgHandler, arg any) *event {
	if at < s.now {
		at = s.now
	}
	ev := s.newEvent(at, fn, arg)
	s.q.push(ev)
	return ev
}

// Stop halts the simulation; Run and RunUntil return promptly after the
// current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Horizon returns the earliest time at which anything but the running event
// may happen: the time of the next pending event, or one past the running
// RunUntil's limit, whichever comes first. A cancelled event still waiting in
// the queue counts, so the horizon is never later than the true next event.
// It is Now() while events of the current batch are still to run, once Stop
// has been called, and outside Run and RunUntil. An event handler owns every
// instant strictly before the horizon: nothing else runs before it. The
// query changes nothing a run can observe. A WithRNG view answers a later
// horizon of its own, past the events that cannot touch its entity.
func (s *Simulator) Horizon() Time {
	if !s.running || s.stopped || s.batchRemaining > 0 {
		return s.now
	}
	h := Time(math.MaxInt64)
	if s.limit >= 0 && s.limit < math.MaxInt64 {
		h = s.limit + 1
	}
	if next := s.q.peek(); next != nil && next.at < h {
		h = next.at
	}
	return h
}

// step executes every pending event sharing the earliest timestamp within
// limit, as one batch: the clock is set once, cancelled events are drained,
// and the callbacks run in (time, sequence) order. Batching is semantically
// identical to popping one event at a time — an event scheduled from inside
// a batch callback at the same timestamp has a larger sequence number, so it
// fires after the batch either way — but saves one queue descent per
// same-timestamp event. Returns false when no event within limit remains.
func (s *Simulator) step(limit Time) bool {
	// Find the earliest live event, lazily removing cancelled heads.
	var head *event
	for {
		next := s.q.peek()
		if next == nil {
			return false
		}
		if limit >= 0 && next.at > limit {
			return false
		}
		s.q.pop()
		if next.canceled {
			s.canceledPending--
			s.recycle(next)
			continue
		}
		head = next
		break
	}
	// Collect the rest of its timestamp batch.
	batch := append(s.batch[:0], head)
	for {
		next := s.q.peek()
		if next == nil || next.at != head.at {
			break
		}
		s.q.pop()
		if next.canceled {
			s.canceledPending--
			s.recycle(next)
			continue
		}
		batch = append(batch, next)
	}
	s.batch = batch
	s.now = head.at
	s.batchRemaining = len(batch)
	if s.batchObs != nil {
		s.batchObs(head.at, len(batch), s.q.len())
	}
	for i, ev := range batch {
		if s.stopped {
			// Re-push the unexecuted remainder; sequence numbers are
			// preserved, so a later run pops it in the original order.
			for j := i; j < len(batch); j++ {
				s.q.push(batch[j])
				batch[j] = nil
			}
			s.batchRemaining = 0
			return true
		}
		batch[i] = nil
		s.batchRemaining--
		if ev.canceled {
			// Cancelled by an earlier callback in this batch.
			s.canceledPending--
			s.recycle(ev)
			continue
		}
		fn, arg, at := ev.fn, ev.arg, ev.at
		if !ev.uncounted {
			s.executed++
		}
		// Recycle before running: the callback may schedule new events,
		// which can then reuse this struct immediately (stale EventIDs are
		// gen-guarded).
		s.recycle(ev)
		fn(at, arg)
	}
	return true
}

// Run executes events until the queue is empty or Stop is called. It returns
// ErrStopped when halted by Stop, nil otherwise.
func (s *Simulator) Run() error {
	s.stopped, s.running, s.limit = false, true, -1
	defer func() { s.running = false }()
	for !s.stopped {
		if !s.step(-1) {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events until the simulated clock would pass t, the queue
// empties, or Stop is called. After returning, Now() is at most t; if events
// remain beyond t the clock is advanced to exactly t.
func (s *Simulator) RunUntil(t Time) error {
	s.stopped, s.running, s.limit = false, true, t
	defer func() { s.running = false }()
	for !s.stopped {
		if !s.step(t) {
			if s.now < t {
				s.now = t
			}
			return nil
		}
	}
	return ErrStopped
}

// RunFor executes events for d simulated time starting from the current
// clock value.
func (s *Simulator) RunFor(d Duration) error { return s.RunUntil(s.now.Add(d)) }

// RNG wraps math/rand with convenience samplers used across the simulation.
// All stochastic behaviour in the reproduction flows through one RNG per run
// so that scenarios are reproducible from their seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG creates a deterministic random source from seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Float64Batch fills dst with uniform samples in [0,1), drawn in the same
// order as repeated Float64 calls. Hot loops that need several samples per
// iteration (the per-attempt optical sampling draws five) use it to amortise
// the interface-call overhead of drawing one at a time.
func (g *RNG) Float64Batch(dst []float64) {
	for i := range dst {
		dst[i] = g.r.Float64()
	}
}

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint64 returns a pseudo-random 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Exponential returns an exponentially distributed sample with the given
// rate (events per unit); the mean of the distribution is 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("sim: non-positive exponential rate")
	}
	return g.r.ExpFloat64() / rate
}

// Poisson returns a Poisson distributed sample with the given mean using
// Knuth's algorithm for small means and a normal approximation for large
// ones. It is used for detector dark-count modelling.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation with continuity correction.
		v := g.r.NormFloat64()*math.Sqrt(mean) + mean + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		k++
		p *= g.r.Float64()
		if p <= l {
			return k - 1
		}
	}
}

// Choice returns a uniformly random index in [0, n) weighted by weights.
// All weights must be non-negative; if they sum to zero the first index is
// returned.
func (g *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if total == 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
