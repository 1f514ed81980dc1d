package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// ShardedEngine is a conservative parallel discrete-event engine: N worker
// shards, each a plain serial Simulator owning a disjoint subset of the
// simulated entities, advancing together in lock-step windows.
//
// The synchronisation model is null-message-free barrier sync. All
// cross-shard interaction goes through engines registered with Cross, each
// declaring a strictly positive minimum delay; the engine-wide lookahead L is
// the minimum of those delays. A window runs every shard in parallel up to a
// shared horizon chosen so that no message sent inside the window can arrive
// inside it (any send at τ arrives at τ+delay ≥ t+L, one past the horizon
// t+L−1). At the barrier the per-crosslink outboxes are merged into the
// destination shards in a deterministic order — (timestamp, stable key,
// send order) — so the merged schedule is independent of goroutine timing.
// With no cross engines registered the lookahead is infinite and each run is
// a single window: the shards are fully independent and simply run in
// parallel.
//
// Determinism across shard counts is a joint property of this engine and how
// entities are partitioned onto it: every entity must schedule only on its
// own shard and draw randomness only from streams pinned to stable entity
// IDs (WithRNG + DeriveSeed), never from a shard's own RNG. internal/netsim
// partitions whole links this way, which is what makes its tables and
// counters byte-identical from 1 shard to N.
type ShardedEngine struct {
	seed   int64
	shards []*Simulator

	// cross holds the registered cross-shard engines; lookahead caches the
	// minimum of their delays (noLookahead when none are registered).
	cross     []*crossEngine
	lookahead Duration

	// now is the last barrier (or run limit) reached; between runs it is the
	// engine-wide clock.
	now Time

	running bool
	stopReq atomic.Bool

	// scratch is the reusable merge buffer; merged counts messages moved
	// across shards over the engine's lifetime and windows counts completed
	// barrier windows. Both are atomics so observers running on shard
	// goroutines (tracing hooks, progress displays) can read them mid-run.
	scratch []mergedMsg
	merged  atomic.Uint64
	windows atomic.Uint64

	// windowObs, when set, observes every completed barrier window. It runs
	// on the coordinating goroutine after the shards have parked, so it may
	// read shard state but must not schedule events or draw randomness.
	windowObs func(start, end Time, merged int)
}

// noLookahead marks "no cross-shard engines registered": windows are
// unbounded and shards run fully independently.
const noLookahead = Duration(math.MaxInt64)

// NewSharded creates a sharded engine with n worker shards, each a Simulator
// with its own timing wheel. Each shard's own RNG is seeded from (seed, shard
// index), but partitioned workloads should not consume shard RNGs at all —
// per-entity streams via WithRNG keep results independent of the
// partitioning.
func NewSharded(seed int64, n int) *ShardedEngine {
	if n < 1 {
		panic(fmt.Sprintf("sim: sharded engine needs at least 1 shard, got %d", n))
	}
	e := &ShardedEngine{seed: seed, lookahead: noLookahead}
	e.shards = make([]*Simulator, n)
	for i := range e.shards {
		e.shards[i] = New(DeriveSeed(seed, 0x5ead, uint64(i)))
	}
	return e
}

// Shards returns the number of worker shards.
func (e *ShardedEngine) Shards() int { return len(e.shards) }

// Shard returns worker shard i. Entities owned by that shard schedule
// directly on it; its clock advances to each window horizon in turn.
func (e *ShardedEngine) Shard(i int) *Simulator { return e.shards[i] }

// Lookahead returns the current conservative lookahead: the minimum delay
// over all registered cross-shard engines, or noLookahead's value when none
// are registered.
func (e *ShardedEngine) Lookahead() Duration { return e.lookahead }

// Merged reports how many cross-shard messages have been merged at barriers.
// Safe to call mid-run from any goroutine (e.g. a shard-side tracing hook):
// the count is published atomically at each barrier.
func (e *ShardedEngine) Merged() uint64 { return e.merged.Load() }

// Windows reports how many barrier windows have completed. Like Merged it is
// queryable mid-run from any goroutine.
func (e *ShardedEngine) Windows() uint64 { return e.windows.Load() }

// SetWindowObserver installs fn to be called at every barrier with the
// window's start and end times and the number of cross-shard messages merged
// at that barrier. It runs on the coordinating goroutine while all shards
// are parked, so it may read shard state, but it must not schedule events or
// draw randomness (flight-recorder tracing only). A nil fn (the default)
// restores the zero-cost path. Must be set before Run.
func (e *ShardedEngine) SetWindowObserver(fn func(start, end Time, merged int)) { e.windowObs = fn }

// Cross registers a cross-shard edge from shard src to shard dst and returns
// the restricted Engine entities must use to talk across it. The returned
// engine supports exactly the split a delayed message channel needs:
//
//   - ScheduleArgAt, callable only from src's event loop, enqueues the
//     delivery into the edge's outbox (arrival times closer than the
//     registered minimum delay are rejected — they would break the
//     lookahead proof);
//   - Now reports src's clock, the sender's scheduling reference (delivery
//     handlers read the arrival time from their ArgHandler now argument);
//   - RNG is a private stream derived from (engine seed, key).
//
// key must be stable across runs and unique per registered edge; it is the
// secondary merge sort key, so it — not goroutine timing — decides the order
// of same-timestamp arrivals from different edges. Registration is rejected
// once the engine has started running, and a non-positive delay is rejected
// loudly: a zero-delay cross-shard edge would make conservative lookahead
// unsound.
func (e *ShardedEngine) Cross(src, dst int, delay Duration, key uint64) (Engine, error) {
	if e.running {
		return nil, fmt.Errorf("sim: cross-shard registration after the engine started running")
	}
	if src < 0 || src >= len(e.shards) || dst < 0 || dst >= len(e.shards) {
		return nil, fmt.Errorf("sim: cross-shard edge %d->%d out of range (have %d shards)", src, dst, len(e.shards))
	}
	if src == dst {
		return nil, fmt.Errorf("sim: cross-shard edge %d->%d does not cross shards", src, dst)
	}
	if delay <= 0 {
		return nil, fmt.Errorf("sim: non-positive cross-shard delay %v on edge %d->%d: conservative lookahead requires every cross-shard delay to be strictly positive", delay, src, dst)
	}
	c := &crossEngine{
		eng:      e,
		src:      src,
		dst:      dst,
		minDelay: delay,
		key:      key,
		rng:      NewRNG(DeriveSeed(e.seed, 0xc405, key)),
	}
	e.cross = append(e.cross, c)
	if delay < e.lookahead {
		e.lookahead = delay
	}
	return c, nil
}

// Now returns the engine-wide clock: the last barrier or run limit reached.
func (e *ShardedEngine) Now() Time { return e.now }

// RNG panics: a sharded engine has no global random stream by design.
// Entities needing randomness must pin a per-entity stream with WithRNG and
// DeriveSeed so their draws are independent of the partitioning.
func (e *ShardedEngine) RNG() *RNG {
	panic("sim: ShardedEngine has no global RNG; pin per-entity streams with WithRNG(shard, NewRNG(DeriveSeed(seed, entityID)))")
}

// ScheduleArgAt panics: events must be scheduled on the owning shard (Shard)
// or across a registered cross-shard engine (Cross). Periodic work likewise
// belongs to the shard that owns the state it samples (netsim runs one
// queue-sampling ticker per link).
func (e *ShardedEngine) ScheduleArgAt(Time, ArgHandler, any) EventID { panic(errShardedSchedule) }

const errShardedSchedule = "sim: schedule on an owning shard (ShardedEngine.Shard) or a registered cross-shard engine (ShardedEngine.Cross), not on the sharded engine itself"

// Stop requests a halt; the run in progress returns ErrStopped at the next
// window barrier.
func (e *ShardedEngine) Stop() { e.stopReq.Store(true) }

// Executed reports the total events fired across all shards.
func (e *ShardedEngine) Executed() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Executed()
	}
	return n
}

// Pending reports scheduled-but-unfired events across all shards plus
// cross-shard messages still waiting in outboxes.
func (e *ShardedEngine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += s.Pending()
	}
	for _, c := range e.cross {
		n += len(c.buf)
	}
	return n
}

// nextEventTime returns the earliest pending event time across all shards
// (a lower bound: the head event may be cancelled, which only makes the
// window conservative, never unsound).
func (e *ShardedEngine) nextEventTime() (Time, bool) {
	var min Time
	found := false
	for _, s := range e.shards {
		if at, ok := s.nextEventAt(); ok && (!found || at < min) {
			min, found = at, true
		}
	}
	return min, found
}

// window advances every shard to horizon w in parallel, then merges the
// cross-shard outboxes at the barrier and publishes w as the engine clock.
func (e *ShardedEngine) window(w Time) error {
	start := e.now
	errs := make([]error, len(e.shards))
	if len(e.shards) == 1 {
		errs[0] = e.shards[0].RunUntil(w)
	} else {
		var wg sync.WaitGroup
		for i, s := range e.shards {
			wg.Add(1)
			go func(i int, s *Simulator) {
				defer wg.Done()
				errs[i] = s.RunUntil(w)
			}(i, s)
		}
		wg.Wait()
	}
	e.now = w
	merged := e.mergeOutboxes()
	e.windows.Add(1)
	if e.windowObs != nil {
		e.windowObs(start, w, merged)
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

// mergedMsg is one cross-shard message staged for the barrier merge, carrying
// its deterministic sort coordinates.
type mergedMsg struct {
	at  Time
	key uint64
	seq int // send order within the edge's outbox
	c   *crossEngine
	msg crossMsg
}

// mergeOutboxes drains every cross edge's outbox into the destination shards
// in (timestamp, edge key, send order) order, returning how many messages it
// moved. The order the messages are *scheduled* in fixes their queue sequence
// numbers, so same-timestamp arrivals execute in this deterministic order
// regardless of which goroutine finished its window first.
func (e *ShardedEngine) mergeOutboxes() int {
	staged := e.scratch[:0]
	for _, c := range e.cross {
		for i, m := range c.buf {
			staged = append(staged, mergedMsg{at: m.at, key: c.key, seq: i, c: c, msg: m})
		}
	}
	if len(staged) == 0 {
		e.scratch = staged
		return 0
	}
	sort.Slice(staged, func(i, j int) bool {
		a, b := staged[i], staged[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.seq < b.seq
	})
	for _, m := range staged {
		e.shards[m.c.dst].ScheduleArgAt(m.at, m.msg.fn, m.msg.arg)
	}
	e.merged.Add(uint64(len(staged)))
	for _, c := range e.cross {
		for i := range c.buf {
			c.buf[i] = crossMsg{} // drop payload references, keep capacity
		}
		c.buf = c.buf[:0]
	}
	n := len(staged)
	for i := range staged {
		staged[i] = mergedMsg{}
	}
	e.scratch = staged[:0]
	return n
}

// Run executes events until every shard's queue (and every outbox) is empty
// or Stop is called.
func (e *ShardedEngine) Run() error {
	e.stopReq.Store(false)
	e.running = true
	for {
		nt, ok := e.nextEventTime()
		if !ok {
			return nil
		}
		w := Time(math.MaxInt64)
		if e.lookahead != noLookahead && w-nt > Time(e.lookahead-1) {
			w = nt + Time(e.lookahead-1)
		}
		if err := e.window(w); err != nil {
			return err
		}
	}
}

// RunUntil executes events until the engine-wide clock would pass t. After
// returning, Now() is exactly t (as with the serial engine, the clock is
// advanced to the limit even when the queues drain early).
func (e *ShardedEngine) RunUntil(t Time) error {
	e.stopReq.Store(false)
	e.running = true
	for {
		w := t
		if e.lookahead != noLookahead {
			if nt, ok := e.nextEventTime(); ok && nt < t && Duration(t-nt) > e.lookahead-1 {
				w = nt + Time(e.lookahead-1)
			}
		}
		if err := e.window(w); err != nil {
			return err
		}
		if w >= t {
			return nil
		}
	}
}

// RunFor executes events for d simulated time from the current clock.
func (e *ShardedEngine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }

// crossMsg is one message staged in a cross edge's outbox.
type crossMsg struct {
	at  Time
	fn  ArgHandler
	arg any
}

// crossEngine is the restricted Engine handed out by Cross. It deliberately
// supports only the calls a delayed message channel makes, each pinned to
// the side of the edge it may run on:
//
//   - ScheduleArgAt runs on the source shard's loop (the sender's context)
//     and stages the delivery in the outbox; the arrival time must be at
//     least the registered minimum delay past the sender's clock;
//   - Now reports the source shard's clock — the sender's scheduling
//     reference, which is what the ScheduleArg wrapper adds the delay to.
//     Delivery handlers run on the destination shard and must read the
//     arrival time from their ArgHandler now argument, never from this
//     engine (so "send time = now − delay" holds at delivery);
//   - RNG is the edge's private stream, drawn from the sender's context.
//
// Everything else panics: a cross edge is a wire, not a scheduler.
type crossEngine struct {
	eng      *ShardedEngine
	src, dst int
	minDelay Duration
	key      uint64
	rng      *RNG
	buf      []crossMsg
}

// Now reports the source shard's clock (the sender's context). Delivery
// handlers must use their ArgHandler now argument instead.
func (c *crossEngine) Now() Time { return c.eng.shards[c.src].now }

// RNG returns the edge's private random stream (sender-side use only).
func (c *crossEngine) RNG() *RNG { return c.rng }

// ScheduleArgAt stages a delivery in the edge's outbox. It may only be
// called from the source shard's event loop, and the arrival time must be at
// least the registered minimum delay past the sender's clock — anything
// shorter would invalidate the lookahead the window barrier is built on.
func (c *crossEngine) ScheduleArgAt(at Time, fn ArgHandler, arg any) EventID {
	if delay := at.Sub(c.eng.shards[c.src].now); delay < c.minDelay {
		panic(fmt.Sprintf("sim: cross-shard send with delay %v below the registered minimum %v on edge %d->%d", delay, c.minDelay, c.src, c.dst))
	}
	c.buf = append(c.buf, crossMsg{at: at, fn: fn, arg: arg})
	// Cross-shard deliveries cannot be cancelled; the zero EventID's Cancel
	// is a documented no-op.
	return EventID{}
}

const errCrossEngine = "sim: cross-shard engine supports only Now, RNG and ScheduleArgAt"

func (c *crossEngine) Run() error          { panic(errCrossEngine) }
func (c *crossEngine) RunUntil(Time) error { panic(errCrossEngine) }
func (c *crossEngine) RunFor(Duration) error {
	panic(errCrossEngine)
}
func (c *crossEngine) Stop()            { panic(errCrossEngine) }
func (c *crossEngine) Executed() uint64 { panic(errCrossEngine) }
func (c *crossEngine) Pending() int     { panic(errCrossEngine) }
