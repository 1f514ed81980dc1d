package mhp

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

// genPairRun is one run of the GEN-pair tests: the station's result log and
// the engine's counts.
type genPairRun struct {
	log                   []string
	events, ticks         uint64
	matched               uint64
	noOther, timeMismatch uint64
}

// runGENPairs drives attempts cycles of equal decisions at both nodes over
// arms of the given delays, with the given loss on the two GEN fibres only,
// the nodes on one shared clock or on a clock each. It logs every result
// with the time it came, so two runs can be compared line by line.
func runGENPairs(t *testing.T, armA, armB sim.Duration, genLoss float64, shared bool, attempts int) genPairRun {
	t.Helper()
	h := newHarnessArms(t, 0, armA, armB, 2*(armA+armB)+100*sim.Microsecond)
	h.link.SetLoss(FibreAH, genLoss)
	h.link.SetLoss(FibreBH, genLoss)
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	for i := 0; i < attempts; i++ {
		h.genA.decisions = append(h.genA.decisions, attemptDecision(qid, 0.3))
		h.genB.decisions = append(h.genB.decisions, attemptDecision(qid, 0.3))
	}
	clocks := []*Clock{NewClock(h.s)}
	if !shared {
		clocks = append(clocks, NewClock(h.s))
	}
	clocks[0].Add(h.nodeA)
	clocks[len(clocks)-1].Add(h.nodeB)
	for _, c := range clocks {
		c.Start()
	}
	_ = h.s.RunFor(sim.Duration(attempts) * sim.DurationMicroseconds(10.12))
	var r genPairRun
	for _, c := range clocks {
		c.Stop()
		r.ticks += c.Ticks()
	}
	_ = h.s.Run()

	for side, g := range []*stubGenerator{h.genA, h.genB} {
		for i, res := range g.results {
			r.log = append(r.log, fmt.Sprintf("%c %v cycle %d seq %d @%v", 'A'+side, res.Outcome, res.AttemptCycle, res.MHPSeq, g.resultAt[i]))
		}
	}
	r.events = h.s.Executed()
	r.matched, _, r.timeMismatch, _, r.noOther = h.link.Stats()
	return r
}

// The link sends both GENs of a cycle, so one event delivers them whenever
// both survive their fibres and arrive together, and one event both REPLYs
// over equal arms; unequal arms (QL2020's) deliver each GEN and each REPLY
// with its own event. Whether the two nodes share a clock or have one each
// changes nothing but the clock ticks.
func TestGENPairFusesOnlyWhenBothArriveTogether(t *testing.T) {
	const attempts = 400
	short := 10 * sim.Nanosecond
	for _, tc := range []struct {
		name       string
		armA, armB sim.Duration
		genLoss    float64
		// perAttempt is the events per attempt beside the clock tick when
		// no GEN is lost.
		perAttempt uint64
	}{
		// One event for the GEN pair, one for the REPLY pair.
		{"equal arms", short, short, 0, 2},
		// A cycle fuses only if both GENs survive; a lone GEN waits for its
		// hold event.
		{"equal lossy arms", short, short, 0.3, 0},
		// The GENs arrive apart, and so do the REPLYs.
		{"QL2020 arms", sim.DurationMicroseconds(48.4), sim.DurationMicroseconds(72.6), 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := runGENPairs(t, tc.armA, tc.armB, tc.genLoss, false, attempts)
			got := runGENPairs(t, tc.armA, tc.armB, tc.genLoss, true, attempts)
			if len(got.log) != len(ref.log) {
				t.Fatalf("%d results, per-node clocks %d", len(got.log), len(ref.log))
			}
			for i := range got.log {
				if got.log[i] != ref.log[i] {
					t.Fatalf("result %d is %q, per-node clocks give %q", i, got.log[i], ref.log[i])
				}
			}
			if got.matched != ref.matched || got.noOther != ref.noOther || got.timeMismatch != ref.timeMismatch {
				t.Errorf("matched %d, no-other %d, time mismatches %d; per-node clocks %d, %d, %d",
					got.matched, got.noOther, got.timeMismatch, ref.matched, ref.noOther, ref.timeMismatch)
			}
			if n := got.events - got.ticks; n != ref.events-ref.ticks {
				t.Errorf("%d events beside the tick, per-node clocks %d", n, ref.events-ref.ticks)
			}
			// A lone GEN's hold expires as NO_MESSAGE_OTHER, or as
			// TIME_MISMATCH while the other side holds GENs of later cycles.
			if tc.genLoss > 0 {
				lone := got.noOther + got.timeMismatch
				if got.matched == 0 || got.matched == attempts || lone == 0 {
					t.Fatalf("matched %d of %d, %d holds expired: the loss should break some pairs", got.matched, attempts, lone)
				}
				// A matched cycle is one GEN event and one REPLY event; a
				// lone GEN adds its hold event.
				if n, want := got.events-got.ticks, 2*got.matched+3*lone; n != want {
					t.Errorf("%d events beside the tick, want %d: GENs fuse exactly when both arrive", n, want)
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
