package sim

import (
	"fmt"
	"math"
)

// Engine is the scheduling surface of a discrete-event simulation core. It
// is extracted from Simulator so that protocol entities (channels, EGP/MHP
// instances, traffic streams, tickers) can run unchanged on either the
// serial Simulator — still the default — or on one shard of a ShardedEngine,
// where every entity schedules against the event loop of the shard that owns
// its state.
//
// The interface keeps exactly one scheduling primitive, ScheduleArgAt: an
// argument-carrying callback at an absolute time. Everything else callers
// historically reached for — relative delays, parameterless handlers,
// periodic tickers — is a thin package-level wrapper (Schedule, ScheduleAt,
// ScheduleArg, Ticker) composed from it. One primitive means one code path
// to make deterministic and one to make fast.
//
// The contract every implementation honours:
//
//   - Events fire in nondecreasing (time, insertion order) within one
//     engine; ties are broken deterministically, and events sharing a
//     timestamp are dispatched as one batch in insertion order.
//   - Now() is the scheduling reference clock: the timestamp of the event
//     being executed while inside a callback. ArgHandlers also receive it
//     as their now argument.
//   - RNG() is the deterministic random source entities should draw from.
//     Entities that must stay reproducible independent of how the topology
//     is sharded are given a stream-pinned view via WithRNG.
type Engine interface {
	// Now returns the engine's scheduling reference clock (see above).
	Now() Time
	// RNG returns the engine's deterministic random source.
	RNG() *RNG
	// ScheduleArgAt registers fn to run at absolute time at with the given
	// argument; times in the past clamp to the present. The returned
	// EventID cancels the event (Cancel on the zero EventID is a no-op).
	ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID
	// Run executes events until none remain or Stop is called.
	Run() error
	// RunUntil executes events until the clock would pass t.
	RunUntil(t Time) error
	// RunFor executes events for d simulated time from the current clock.
	RunFor(d Duration) error
	// Stop halts the run in progress.
	Stop()
	// Horizon returns the earliest time at which anything but the running
	// event may happen (see Simulator.Horizon); on a WithRNG view, anything
	// that can touch the view's entity.
	Horizon() Time
	// Executed reports how many events have fired since construction.
	Executed() uint64
	// Pending reports how many events are scheduled and not yet fired.
	Pending() int
}

// Compile-time checks that every engine flavour satisfies the interface.
var (
	_ Engine = (*Simulator)(nil)
	_ Engine = (*ShardedEngine)(nil)
	_ Engine = (*rngEngine)(nil)
	_ Engine = uncountedEngine{}
	_ Engine = (*untrackedEngine)(nil)
)

// runHandler is the trampoline that lets parameterless Handlers ride the
// canonical argument-carrying event: the handler itself is the argument.
// Func values are pointer-shaped, so boxing one into the arg interface does
// not allocate — Schedule/ScheduleAt cost exactly what ScheduleArg does.
func runHandler(_ Time, arg any) { arg.(Handler)() }

// Schedule registers fn to run after delay on e. A negative delay is treated
// as zero (the event runs at the current time, after already-queued events
// for the same instant).
func Schedule(e Engine, delay Duration, fn Handler) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleArgAt(e.Now().Add(delay), runHandler, fn)
}

// ScheduleAt registers fn to run at absolute time at on e. Times in the past
// are clamped to the present.
func ScheduleAt(e Engine, at Time, fn Handler) EventID {
	return e.ScheduleArgAt(at, runHandler, fn)
}

// ScheduleArg registers fn to run after delay with the given argument. It
// behaves exactly like Schedule but carries the argument in the pooled event
// itself, so callers with a long-lived handler avoid allocating a capturing
// closure per event.
func ScheduleArg(e Engine, delay Duration, fn ArgHandler, arg any) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleArgAt(e.Now().Add(delay), fn, arg)
}

// tickerEvent is the self-rearming state behind Ticker: one struct per
// ticker, rescheduled in place by tickerFire, so steady-state ticking
// allocates nothing — no per-tick closure, no per-tick box.
type tickerEvent struct {
	eng     Engine
	period  Duration
	fn      Handler
	id      EventID
	stopped bool
}

// tickerFire runs one tick and rearms the ticker relative to the firing
// time, mirroring a chain of Schedule(period, ...) calls exactly.
func tickerFire(now Time, arg any) {
	t := arg.(*tickerEvent)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.id = t.eng.ScheduleArgAt(now.Add(t.period), tickerFire, t)
	}
}

// Ticker invokes fn every period on e until the returned stop function is
// called. The first invocation happens after one full period. Stopping is
// idempotent and cancels the pending tick, so a ticker stopped after the
// engine halted (mid-run Stop, or a RunUntil horizon) leaves no event
// behind — the next run will not fire a stale tick.
func Ticker(e Engine, period Duration, fn Handler) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %d", period))
	}
	t := &tickerEvent{eng: e, period: period, fn: fn}
	t.id = e.ScheduleArgAt(e.Now().Add(period), tickerFire, t)
	return func() {
		if t.stopped {
			return
		}
		t.stopped = true
		t.id.Cancel()
	}
}

// WithRNG returns a view of eng whose RNG() is the given stream instead of
// the engine's own. Time, counters and the Run methods pass straight
// through.
//
// This is how per-entity random streams are pinned: a netsim link draws all
// of its randomness (channel loss, optical sampling, readout) from a stream
// derived from its stable link ID, so its trajectory is byte-identical no
// matter which shard — or how many shards — the topology is split into.
//
// On a Simulator the view also keeps track of the events scheduled through
// it, and its Horizon is the entity's own: the earliest of its next live
// event and one past the running RunUntil's limit. Events of other views and
// of Untracked views do not bound it, so an entity that commutes with every
// other view's entity (a netsim link with the others) owns every instant
// before that horizon. An event scheduled on the Simulator itself belongs to
// no view and may touch anything: while one is pending, the view's Horizon
// is the Simulator's. Cancelled events stop counting at once, and tracking
// allocates nothing once the view's heap has grown to its peak.
func WithRNG(eng Engine, rng *RNG) Engine {
	if rng == nil {
		panic("sim: WithRNG needs a non-nil RNG")
	}
	s, _ := eng.(*Simulator)
	return &rngEngine{Engine: eng, rng: rng, s: s}
}

// rngEngine is the WithRNG view. When s is set, live holds the view's live
// events as a min-heap on time.
type rngEngine struct {
	Engine
	rng  *RNG
	s    *Simulator
	live []*event
}

func (e *rngEngine) RNG() *RNG { return e.rng }

func (e *rngEngine) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	if e.s == nil {
		return e.Engine.ScheduleArgAt(at, fn, arg)
	}
	ev := e.s.schedule(at, fn, arg)
	ev.view, ev.vi = e, int32(len(e.live))
	e.live = append(e.live, ev)
	e.up(len(e.live) - 1)
	return EventID{s: e.s, ev: ev, gen: ev.gen}
}

// Horizon returns the view's own horizon (see WithRNG).
func (e *rngEngine) Horizon() Time {
	s := e.s
	if s == nil || s.loose > 0 {
		return e.Engine.Horizon()
	}
	if !s.running || s.stopped {
		return s.now
	}
	h := Time(math.MaxInt64)
	if s.limit >= 0 && s.limit < math.MaxInt64 {
		h = s.limit + 1
	}
	if len(e.live) > 0 && e.live[0].at < h {
		h = e.live[0].at
	}
	return h
}

// remove takes a fired or cancelled event out of the view's heap.
func (e *rngEngine) remove(ev *event) {
	i, last := int(ev.vi), len(e.live)-1
	ev.view = nil
	if i != last {
		e.live[i] = e.live[last]
		e.live[i].vi = int32(i)
	}
	e.live[last] = nil
	e.live = e.live[:last]
	if i < last {
		e.down(i)
		e.up(i)
	}
}

func (e *rngEngine) up(i int) {
	h := e.live
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			return
		}
		h[p], h[i] = h[i], h[p]
		h[p].vi, h[i].vi = int32(p), int32(i)
		i = p
	}
}

func (e *rngEngine) down(i int) {
	h := e.live
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].at < h[c].at {
			c = r
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		h[i].vi, h[c].vi = int32(i), int32(c)
		i = c
	}
}

// Untracked returns a view of eng whose events no horizon waits for; time,
// random stream and Horizon are eng's. A netsim link schedules through it its
// GEN, hold and REPLY deliveries, which the fold of failed attempts rules out
// by itself (mhp.Clock), and its queue sampler, which only reads what a fold
// leaves unchanged, so the link's horizon need not stop at them. On an
// engine that is not a WithRNG view of a Simulator it returns eng.
func Untracked(eng Engine) Engine {
	if v, ok := eng.(*rngEngine); ok && v.s != nil {
		return &untrackedEngine{Simulator: v.s, view: v}
	}
	return eng
}

// untrackedEngine is the Untracked view: the simulator's clock and runs,
// the view's stream and horizon.
type untrackedEngine struct {
	*Simulator
	view *rngEngine
}

func (e *untrackedEngine) RNG() *RNG { return e.view.rng }

func (e *untrackedEngine) Horizon() Time { return e.view.Horizon() }

func (e *untrackedEngine) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	ev := e.schedule(at, fn, arg)
	return EventID{s: e.Simulator, ev: ev, gen: ev.gen}
}

// Uncounted returns a view of s whose events run like any other — same
// queue, same (time, insertion order) — but are not counted by Executed.
// netsim schedules every copy of the network's MHP cycle clock through it:
// each shard's copy skips the cycles that poll no one on that shard, so the
// copies fire different ticks, and Executed, which counts none of them, is
// the same at every shard count. Like Untracked's, its events bound no
// view's horizon.
func Uncounted(s *Simulator) Engine { return uncountedEngine{s} }

type uncountedEngine struct{ *Simulator }

func (e uncountedEngine) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	ev := e.Simulator.schedule(at, fn, arg)
	ev.uncounted = true
	return EventID{s: e.Simulator, ev: ev, gen: ev.gen}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche mix in which every input bit affects roughly half the output
// bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed chains the base seed with any number of stream coordinates
// through splitmix64, decorrelating nearby streams (unlike additive
// derivation, where (link 3, seed s) and (link 2, seed s+1) would collide).
// netsim uses it to give every link its own RNG stream keyed by the stable
// link ID, and the experiments and `repro run` one stream per trial.
func DeriveSeed(base int64, words ...uint64) int64 {
	h := splitmix64(uint64(base))
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return int64(h)
}
