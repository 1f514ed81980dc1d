package egp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestQuietPollsChangeNothing drives one EGP by hand, polled every cycle as
// a node's own ticker would, under random CREATEs (CK, MD and NL, some with
// a deadline) and random attempt outcomes (failure, success, or a REPLY
// lost, which leaves the attempt outstanding until reapLostAttempts). After
// every poll that attempts nothing it asks Quiet for the next cycle that
// can act; every poll strictly between the two, up to the next event, must
// attempt nothing and leave the queue, the scheduler's WFQ virtual time,
// the counters, the outstanding attempts, the M ring and the busy and
// resume marks as they were. It runs under FCFS and HigherWFQ, with and
// without emission multiplexing. The stretches end at an outstanding
// attempt's deadline, a carbon re-initialisation window, the busy move to
// carbon, an item's timeout or schedule cycle: a bound past any of these
// fails.
func TestQuietPollsChangeNothing(t *testing.T) {
	period := nv.LabPlatform().CycleTime[nv.RequestMeasure]
	for _, tc := range []struct {
		name      string
		sched     func() Scheduler
		multiplex bool
	}{
		{"fcfs", func() Scheduler { return NewFCFS() }, true},
		{"fcfs-no-multiplexing", func() Scheduler { return NewFCFS() }, false},
		{"higherwfq", func() Scheduler { return NewHigherWFQ() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newEGPFixtureWith(t, tc.multiplex, tc.sched())
			e := f.egp
			rng := sim.NewRNG(11)
			state := func() string {
				var items []string
				for _, it := range e.queue.AllItems() {
					items = append(items, fmt.Sprintf("%v/%d/%v", it.ID, it.PairsLeft, it.confirmed))
				}
				ring := make([]sim.Time, e.outstandingM)
				for i := range ring {
					ring[i] = e.mAttemptTimes[(e.mHead+i)%len(e.mAttemptTimes)]
				}
				var vt float64
				if w, ok := e.cfg.Scheduler.(*WFQScheduler); ok {
					vt = w.virtualTime
				}
				creates, oks, errs, sent, recv := e.Stats()
				alloc, rel := e.qmm.Stats()
				return fmt.Sprintf("queue %v vt %v counters %d/%d/%d/%d/%d qmm %d/%d K %v %v M %v head %d busy %v resume %d seq %d",
					items, vt, creates, oks, errs, sent, recv, alloc, rel, e.outstandingK, e.kDeadline, ring, e.mHead, e.busyUntil, e.kResumeCycle, e.expectedSeq)
			}
			// bound is the cycle the latest quiet poll reported, 0 after an
			// event; before is the state that poll left. reached counts the
			// bounds reached with no event since, acted those whose poll
			// then attempted or changed the EGP, skipped the polls between.
			var bound uint64
			var before string
			var reached, acted, skipped int
			const start, cycles = 5000, 60000
			for c := uint64(start); c < start+cycles; c++ {
				// Every event may reach the EGP, and one that does wakes it.
				if ran := f.s.Executed(); f.s.RunUntil(sim.Time(c)*sim.Time(period)) == nil && f.s.Executed() != ran {
					bound = 0
				}
				if rng.Float64() < 1.0/2000 {
					req := CreateRequest{NumPairs: 1 + rng.Intn(3), MinFidelity: 0.6, Priority: PriorityMD}
					switch rng.Intn(3) {
					case 0:
						req.Keep, req.Priority = true, PriorityCK
					case 1:
						req.Priority = PriorityNL
					}
					if rng.Intn(2) == 0 {
						req.MaxTime = sim.Duration(1+rng.Intn(4)) * 100 * sim.Millisecond
					}
					if _, code := e.Create(req); code == wire.ErrNone && rng.Intn(2) == 0 {
						// A deadline a few hundred cycles out, shorter than
						// the FEU lets a CREATE ask for, so that items time
						// out while others are served or blocked.
						items := e.queue.AllItems()
						items[len(items)-1].TimeoutCycle = c + 50 + uint64(rng.Intn(500))
						e.queue.earliestStale = true
					}
					// The peer's ACK, which the fixture's channel never
					// delivers: the items are confirmed and the handshakes
					// end (on the master, FailPending only cancels them).
					f.confirmAll()
					e.queue.FailPending(wire.ErrNone)
					bound = 0
				}
				d := e.PollTrigger(c)
				if c < bound {
					if d.Attempt {
						t.Fatalf("cycle %d: the poll attempted %+v before the bound %d", c, d, bound)
					}
					if got := state(); got != before {
						t.Fatalf("cycle %d: the poll changed the EGP before the bound %d\nbefore: %s\nafter:  %s", c, bound, before, got)
					}
					skipped++
					continue
				}
				if bound != 0 && bound != math.MaxUint64 {
					reached++
					if d.Attempt || state() != before {
						acted++
					}
				}
				bound = 0
				if !d.Attempt {
					bound, before = e.Quiet(c), state()
					continue
				}
				r := mhp.Result{Outcome: wire.OutcomeFailure, QueueID: d.QueueID, Keep: d.Keep, Alpha: d.Alpha,
					MeasureBasis: d.MeasureBasis, StorageQubit: d.StorageQubit, AttemptCycle: c}
				switch u := rng.Float64(); {
				case u < 0.05:
					continue // the REPLY is lost
				case u < 0.055:
					r.Outcome, r.MHPSeq, r.Pair = wire.OutcomeStateOne, e.expectedSeq, f.newPair(quantum.PsiPlus)
				}
				// The REPLY comes within the cycle, as on a Lab link.
				sim.Schedule(f.s, period/2, func() { e.HandleResult(r) })
			}
			if acted == 0 || skipped < cycles/10 {
				t.Fatalf("%d bounds reached, %d acted, %d polls skipped: the run tested too little", reached, acted, skipped)
			}
			t.Logf("%d bounds reached, %d acted, %d of %d polls skipped", reached, acted, skipped, cycles)
		})
	}
}
