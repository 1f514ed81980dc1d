package sim

import "fmt"

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
// the engine's own. Scheduling, time and counters pass straight through.
//
// This is how per-entity random streams are pinned: a netsim link draws all
// of its randomness (channel loss, optical sampling, readout) from a stream
// derived from its stable link ID, so its trajectory is byte-identical no
// matter which shard — or how many shards — the topology is split into.
func WithRNG(eng Engine, rng *RNG) Engine {
	if rng == nil {
		panic("sim: WithRNG needs a non-nil RNG")
	}
	return &rngEngine{Engine: eng, rng: rng}
}

type rngEngine struct {
	Engine
	rng *RNG
}

func (e *rngEngine) RNG() *RNG { return e.rng }

// Uncounted returns a view of s whose events run like any other — same
// queue, same (time, insertion order) — but are not counted by Executed.
// netsim runs the network's one MHP cycle clock as one tick event per engine
// shard; scheduling every copy but the first through this view keeps
// Executed the same at every shard count.
func Uncounted(s *Simulator) Engine { return uncountedEngine{s} }

type uncountedEngine struct{ *Simulator }

func (e uncountedEngine) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	id := e.Simulator.ScheduleArgAt(at, fn, arg)
	id.ev.uncounted = true
	return id
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
