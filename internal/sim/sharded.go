package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ShardedEngine runs N worker shards in parallel, each a plain serial
// Simulator owning a disjoint subset of the simulated entities. Shards never
// exchange events: every entity schedules only on the shard that owns it. A
// run (Run, RunUntil, RunFor) is therefore one window in which every shard
// advances to the run's limit on its own goroutine; the shards meet only
// when the window ends.
//
// Determinism across shard counts is a joint property of this engine and how
// entities are partitioned onto it: every entity must schedule only on its
// own shard and draw randomness only from streams pinned to stable entity
// IDs (WithRNG + DeriveSeed), never from a shard's own RNG. internal/netsim
// gives each shard whole links this way (events on different links commute),
// which is what makes its tables and counters byte-identical from 1 shard
// to N.
type ShardedEngine struct {
	shards []*Simulator

	// now is the engine-wide clock: the latest shard clock at the end of
	// the last window.
	now Time

	stopReq atomic.Bool

	// windows counts completed windows. It is an atomic so observers
	// running on shard goroutines (tracing hooks, progress displays) can
	// read it mid-run.
	windows atomic.Uint64

	// windowObs, when set, observes every completed window. It runs on the
	// coordinating goroutine after the shards have parked, so it may read
	// shard state but must not schedule events or draw randomness.
	windowObs func(start, end Time, merged int)
}

// NewSharded creates a sharded engine with n worker shards, each a Simulator
// with its own timing wheel. Each shard's own RNG is seeded from (seed, shard
// index), but partitioned workloads should not consume shard RNGs at all —
// per-entity streams via WithRNG keep results independent of the
// partitioning.
func NewSharded(seed int64, n int) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 shard, got %d", n))
	}
	e := &ShardedEngine{shards: make([]*Simulator, n)}
	for i := range e.shards {
		e.shards[i] = New(DeriveSeed(seed, 0x5ead, uint64(i)))
	}
	return e
}

// Shards returns the number of worker shards.
func (e *ShardedEngine) Shards() int { return len(e.shards) }

// Shard returns worker shard i. Entities owned by that shard schedule
// directly on it.
func (e *ShardedEngine) Shard(i int) *Simulator { return e.shards[i] }

// Merged always reports 0: shards exchange no events, so no message is ever
// merged between them. It is kept for the benchmark's
// sim.cross_msgs_per_window metric.
func (e *ShardedEngine) Merged() uint64 { return 0 }

// Windows reports how many windows have completed: one per Run, RunUntil or
// RunFor. Safe to call mid-run from any goroutine.
func (e *ShardedEngine) Windows() uint64 { return e.windows.Load() }

// SetWindowObserver installs fn to be called at the end of every window with
// the window's start and end times; merged is always 0 (see Merged). It runs
// on the coordinating goroutine while all shards are parked, so it may read
// shard state, but it must not schedule events or draw randomness
// (flight-recorder tracing only). A nil fn (the default) restores the
// zero-cost path. Must be set before Run.
func (e *ShardedEngine) SetWindowObserver(fn func(start, end Time, merged int)) { e.windowObs = fn }

// Now returns the engine-wide clock: the latest shard clock at the end of
// the last window.
func (e *ShardedEngine) Now() Time { return e.now }

// RNG panics: a sharded engine has no global random stream by design.
// Entities needing randomness must pin a per-entity stream with WithRNG and
// DeriveSeed so their draws are independent of the partitioning.
func (e *ShardedEngine) RNG() *RNG {
	panic("sim: ShardedEngine has no global RNG; pin per-entity streams with WithRNG(shard, NewRNG(DeriveSeed(seed, entityID)))")
}

// ScheduleArgAt panics: events must be scheduled on the owning shard
// (Shard). Periodic work likewise belongs to the shard that owns the state
// it samples (netsim runs one queue-sampling ticker per link).
func (e *ShardedEngine) ScheduleArgAt(Time, ArgHandler, any) EventID {
	panic("sim: schedule on an owning shard (ShardedEngine.Shard), not on the sharded engine itself")
}

// Stop requests a halt: the run in progress returns ErrStopped when its
// window ends. Shards do not wait on one another, so the request does not
// cut the window short; an entity that must halt its own shard at once
// stops that shard (Shard(i).Stop()).
func (e *ShardedEngine) Stop() { e.stopReq.Store(true) }

// Executed reports the total events fired across all shards.
func (e *ShardedEngine) Executed() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Executed()
	}
	return n
}

// Pending reports scheduled-but-unfired events across all shards.
func (e *ShardedEngine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.Pending()
	}
	return n
}

// window runs every shard in parallel with run, then publishes the latest
// shard clock as the engine clock.
func (e *ShardedEngine) window(run func(*Simulator) error) error {
	e.stopReq.Store(false)
	start := e.now
	errs := make([]error, len(e.shards))
	if len(e.shards) == 1 {
		errs[0] = run(e.shards[0])
	} else {
		var wg sync.WaitGroup
		for i, s := range e.shards {
			wg.Add(1)
			go func(i int, s *Simulator) {
				defer wg.Done()
				errs[i] = run(s)
			}(i, s)
		}
		wg.Wait()
	}
	for _, s := range e.shards {
		if s.now > e.now {
			e.now = s.now
		}
	}
	e.windows.Add(1)
	if e.windowObs != nil {
		e.windowObs(start, e.now, 0)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if e.stopReq.Load() {
		return ErrStopped
	}
	return nil
}

// Run executes events until every shard's queue is empty or Stop is called.
// As on the serial engine, Now() is then the time of the last event fired;
// every drained shard's clock is brought up to it, so an entity scheduling
// relative to its shard's clock after Run lands where it would serially.
func (e *ShardedEngine) Run() error {
	if err := e.window((*Simulator).Run); err != nil {
		return err
	}
	for _, s := range e.shards {
		s.now = e.now
	}
	return nil
}

// RunUntil executes events until the engine-wide clock would pass t. After
// returning, Now() is exactly t (as with the serial engine, the clock is
// advanced to the limit even when the queues drain early).
func (e *ShardedEngine) RunUntil(t Time) error {
	return e.window(func(s *Simulator) error { return s.RunUntil(t) })
}

// RunFor executes events for d simulated time from the current clock.
func (e *ShardedEngine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }
