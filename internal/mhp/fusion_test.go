package mhp

import (
	"fmt"
	"testing"

	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

// genPairRun is one run of the GEN-pair fusion tests: the midpoint's result
// log and the engine's counts.
type genPairRun struct {
	log                   []string
	events, ticks, fused  uint64
	matched, genA, genB   uint64
	noOther, timeMismatch uint64
}

// runGENPairs drives attempts cycles of equal decisions at both nodes over
// arms of the given delays, with the given loss on the two GEN channels
// only, the nodes on one shared clock or on a clock each. It logs every
// result with the time it came, so two runs can be compared line by line.
func runGENPairs(t *testing.T, armA, armB sim.Duration, genLoss float64, shared bool, attempts int) genPairRun {
	t.Helper()
	h := newHarnessArms(t, 0, armA, armB, 2*(armA+armB)+100*sim.Microsecond)
	h.nodeA.toMidpoint.SetLossProbability(genLoss)
	h.nodeB.toMidpoint.SetLossProbability(genLoss)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	for i := 0; i < attempts; i++ {
		h.genA.decisions = append(h.genA.decisions, attemptDecision(qid, 0.3))
		h.genB.decisions = append(h.genB.decisions, attemptDecision(qid, 0.3))
	}
	var stop func()
	if shared {
		c := NewClock(h.s)
		c.Add(h.nodeA)
		c.Add(h.nodeB)
		stop = c.Start()
	} else {
		stopA, stopB := h.nodeA.Start(), h.nodeB.Start()
		stop = func() { stopA(); stopB() }
	}
	_ = h.s.RunFor(sim.Duration(attempts) * sim.DurationMicroseconds(10.12))
	stop()
	_ = h.s.Run()

	var r genPairRun
	for side, g := range []*stubGenerator{h.genA, h.genB} {
		for i, res := range g.results {
			r.log = append(r.log, fmt.Sprintf("%c %v cycle %d seq %d @%v", 'A'+side, res.Outcome, res.AttemptCycle, res.MHPSeq, g.resultAt[i]))
		}
	}
	r.events = h.s.Executed()
	r.ticks = h.nodeA.clock.Ticks()
	if !shared {
		r.ticks += h.nodeB.clock.Ticks()
	}
	r.fused = h.nodeA.toMidpoint.Rode() + h.nodeB.toMidpoint.Rode()
	_, r.genA, _ = h.nodeA.toMidpoint.Stats()
	_, r.genB, _ = h.nodeB.toMidpoint.Stats()
	r.matched, _, r.timeMismatch, _, r.noOther = h.mid.Stats()
	return r
}

// On one shared clock B's GEN rides A's delivery event whenever both GENs
// of a cycle survive their channels and arrive together; the results are
// those of per-node clocks, on which every GEN has its own event, and the
// events saved are exactly the fused GENs. Unequal arms (QL2020's) never
// fuse.
func TestGENPairFusesOnlyWhenBothArriveTogether(t *testing.T) {
	const attempts = 400
	short := 10 * sim.Nanosecond
	for _, tc := range []struct {
		name       string
		armA, armB sim.Duration
		genLoss    float64
		// perAttempt is the events per attempt beside the clock tick on the
		// shared clock, when no GEN is lost.
		perAttempt uint64
	}{
		// One event for the GEN pair, one for the REPLY pair.
		{"equal arms", short, short, 0, 2},
		// A cycle fuses only if both GENs survive; a lone GEN waits for its
		// hold event.
		{"equal lossy arms", short, short, 0.3, 0},
		// Two GEN and two REPLY events, as before fusion: the GENs arrive
		// apart, and so do the REPLYs.
		{"QL2020 arms", sim.DurationMicroseconds(48.4), sim.DurationMicroseconds(72.6), 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runGENPairs(t, tc.armA, tc.armB, tc.genLoss, false, attempts)
			got := runGENPairs(t, tc.armA, tc.armB, tc.genLoss, true, attempts)
			if ref.fused != 0 {
				t.Errorf("per-node clocks fused %d GENs: each node's tick rearms between the two sends", ref.fused)
			}
			if len(got.log) != len(ref.log) {
				t.Fatalf("%d results, per-node clocks %d", len(got.log), len(ref.log))
			}
			for i := range got.log {
				if got.log[i] != ref.log[i] {
					t.Fatalf("result %d is %q, per-node clocks give %q", i, got.log[i], ref.log[i])
				}
			}
			if got.genA != ref.genA || got.genB != ref.genB || got.matched != ref.matched ||
				got.noOther != ref.noOther || got.timeMismatch != ref.timeMismatch {
				t.Errorf("GENs delivered %d/%d, matched %d, no-other %d, time mismatches %d; per-node clocks %d/%d, %d, %d, %d",
					got.genA, got.genB, got.matched, got.noOther, got.timeMismatch,
					ref.genA, ref.genB, ref.matched, ref.noOther, ref.timeMismatch)
			}
			// Both runs fire the same events but for the extra clock ticks
			// per-node and the fused GENs shared.
			if got.events-got.ticks+got.fused != ref.events-ref.ticks {
				t.Errorf("%d events beside the tick and %d fused, per-node clocks %d", got.events-got.ticks, got.fused, ref.events-ref.ticks)
			}
			switch {
			case tc.armA != tc.armB:
				if got.fused != 0 {
					t.Errorf("%d GENs fused over unequal arms, want none", got.fused)
				}
			default:
				// Both GENs of a cycle arrived exactly when the midpoint
				// matched them.
				if got.fused != got.matched {
					t.Errorf("%d GENs fused, %d cycles had both GENs arrive", got.fused, got.matched)
				}
			}
			// A lone GEN's hold expires as NO_MESSAGE_OTHER, or as
			// TIME_MISMATCH while the other side holds GENs of later cycles.
			if tc.genLoss > 0 {
				if got.matched == 0 || got.matched == attempts || got.noOther+got.timeMismatch == 0 {
					t.Fatalf("matched %d of %d, %d holds expired: the loss should break some pairs", got.matched, attempts, got.noOther+got.timeMismatch)
				}
				return
			}
			if got.matched != attempts {
				t.Fatalf("matched %d of %d", got.matched, attempts)
			}
			if n := got.events - got.ticks; n != tc.perAttempt*attempts {
				t.Errorf("%d events beside the tick for %d attempts, want %d each", n, attempts, tc.perAttempt)
			}
		})
	}
}

// An event scheduled for the GEN arrival time from inside B's poll falls
// between the two GENs' deliveries; B's GEN must then keep its own event, so
// the event runs after A's GEN has arrived and before B's.
func TestGENPairNotFusedAroundEventScheduledInPoll(t *testing.T) {
	arm := 10 * sim.Nanosecond
	h := newHarnessArms(t, 0, arm, arm, 100*sim.Microsecond)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	h.genA.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	h.genB.decisions = []PollDecision{attemptDecision(qid, 0.3)}
	var order []string
	h.genB.onPoll = func(uint64) {
		sim.Schedule(h.s, arm, func() {
			matched, _, _, _, _ := h.mid.Stats()
			order = append(order, fmt.Sprintf("event: A waiting %d, B waiting %d, matched %d",
				len(h.mid.waiting[nv.SideA]), len(h.mid.waiting[nv.SideB]), matched))
		})
	}
	c := NewClock(h.s)
	c.Add(h.nodeA)
	c.Add(h.nodeB)
	stop := c.Start()
	_ = h.s.RunFor(sim.DurationMicroseconds(15))
	stop()
	_ = h.s.Run()

	want := "event: A waiting 1, B waiting 0, matched 0"
	if len(order) != 1 || order[0] != want {
		t.Fatalf("the poll's event saw %q, want %q: it must run between the two GENs", order, want)
	}
	if fused := h.nodeB.toMidpoint.Rode(); fused != 0 {
		t.Errorf("B's GEN rode A's event across the poll's event")
	}
	if matched, _, _, _, _ := h.mid.Stats(); matched != 1 {
		t.Errorf("matched %d, want 1", matched)
	}
}
