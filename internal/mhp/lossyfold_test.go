package mhp

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// basisGen is a steady generator whose M attempts measure in a basis that
// changes with the cycle, as the EGP's shared basis does. It logs every
// result but a plain failure, and counts the failures that reach it or that
// it absorbs.
type basisGen struct {
	decision PollDecision
	clock    sim.Engine
	log      []string
	failures uint64
}

func (g *basisGen) PollTrigger(cycle uint64) PollDecision { return g.SteadyDecision(cycle, g.decision) }

func (g *basisGen) HandleResult(r Result) {
	if r.Outcome == wire.OutcomeFailure {
		g.failures++
		return
	}
	g.log = append(g.log, fmt.Sprintf("%v cycle %d keep %v basis %v storage %d queue %v seq %d @%v",
		r.Outcome, r.AttemptCycle, r.Keep, r.MeasureBasis, r.StorageQubit, r.QueueID, r.MHPSeq, g.clock.Now()))
}

func (g *basisGen) Quiet(uint64) uint64 { return 0 }

func (g *basisGen) Steady(uint64) (PollDecision, uint64) { return g.decision, 1 << 40 }

func (g *basisGen) SteadyDecision(cycle uint64, d PollDecision) PollDecision {
	if !d.Keep {
		d.MeasureBasis = quantum.BasisLabel(cycle * 7 / 3 % 3)
	}
	return d
}

func (g *basisGen) Absorb(_, failed uint64, _ PollDecision) { g.failures += failed }

// TestLossyFoldMatchesPerAttempt runs one lossy link between two steady
// generators, folded and attempt by attempt, over 50 seeds per fibre loss
// and attempt type. Both nodes start with stale pending attempts, of the
// served queue item and of another one, which the run's REPLYs retire
// oldest first or the maintenance passes at cycles 5120, 6144 and 7168 drop.
// Every result but the plain failures (with its attempt's cycle and basis),
// the failure counts, both pending lists, the station's, sampler's, nodes'
// and clock's counters and the stream's next draw must match: the fold
// draws each cycle's frame losses and optical test in the per-attempt order,
// stops before the first cycle that loses a frame or succeeds and holds that
// cycle's draws for its events.
func TestLossyFoldMatchesPerAttempt(t *testing.T) {
	served := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	other := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 7}
	// stale are the cycles of each node's pending attempts at the start,
	// true for the served item's.
	stale := [2]map[uint64]bool{
		{900: true, 1000: false, 1500: true, 2100: true, 3000: false, 3900: true},
		{1000: false, 2100: true, 3950: true},
	}
	const start, cycles = 4000, 3500
	for _, loss := range []float64{0.02, 0.3} {
		for _, keep := range []bool{false, true} {
			var events, refEvents uint64
			for seed := int64(1); seed <= 50; seed++ {
				run := func(fold bool) (log []string, executed uint64) {
					h := newSeededHarness(t, seed, loss, 10*sim.Nanosecond, 10*sim.Nanosecond, 100*sim.Microsecond)
					h.link.SetFolding(fold)
					d := PollDecision{Attempt: true, QueueID: served, Keep: keep, Alpha: 0.3, StorageQubit: 1}
					gens := [2]*basisGen{{decision: d, clock: h.s}, {decision: d, clock: h.s}}
					for side, g := range gens {
						n := &h.link.nodes[side]
						n.gen = g
						for _, c := range slices.Sorted(maps.Keys(stale[side])) {
							p := pendingAttempt{c, attemptDecision(other, 0.3)}
							if stale[side][c] {
								p.decision = g.SteadyDecision(c, d)
							}
							n.pending.push(p)
						}
					}
					stop := h.start()
					h.clock.cycle = start
					_ = h.s.RunFor(cycles * h.link.period)
					stop()
					for side, g := range gens {
						n := &h.link.nodes[side]
						log = append(log, g.log...)
						log = append(log, fmt.Sprintf("%s: failures %d attempts %d polled %d pending %v",
							n.Name, g.failures, n.attemptCount, n.polled, n.pending.live()))
					}
					matched, successes, timeMismatch, queueMismatch, noOther := h.link.Stats()
					log = append(log, fmt.Sprintf("station %d %d %d %d %d due %d waiting %d %d sampled %d held %v %d",
						matched, successes, timeMismatch, queueMismatch, noOther, len(h.link.frames)-h.link.head,
						len(h.link.waiting[nv.SideA]), len(h.link.waiting[nv.SideB]),
						h.link.sampler.Attempts(), h.link.sampler.Held(), h.link.nDrawn),
						fmt.Sprintf("ticks %d polls %d next draw %v", h.clock.Ticks(), h.clock.Polls(), h.s.RNG().Float64()))
					return log, h.s.Executed()
				}
				got, n := run(true)
				want, ref := run(false)
				events, refEvents = events+n, refEvents+ref
				if len(got) != len(want) {
					t.Fatalf("loss %g keep %v seed %d: %d log lines, attempt by attempt %d\nfolded:      %q\nper attempt: %q",
						loss, keep, seed, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("loss %g keep %v seed %d: line %d differs\nfolded:      %s\nper attempt: %s",
							loss, keep, seed, i, got[i], want[i])
					}
				}
			}
			if events >= refEvents {
				t.Fatalf("loss %g keep %v: %d events folded, %d attempt by attempt: the fold never engaged", loss, keep, events, refEvents)
			}
			t.Logf("loss %g keep %v: %d events folded, %d attempt by attempt", loss, keep, events, refEvents)
		}
	}
}
