package mhp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

// steadyGen is a generator in the steady state the fold needs: every poll
// attempts with the same decision, and it says so through Steady. It logs each
// result that reaches it and counts the failed attempts it absorbs.
type steadyGen struct {
	decision PollDecision
	clock    sim.Engine
	log      []string
	absorbed uint64
}

func (g *steadyGen) PollTrigger(uint64) PollDecision { return g.decision }

func (g *steadyGen) HandleResult(r Result) {
	g.log = append(g.log, fmt.Sprintf("%v cycle %d seq %d @%v", r.Outcome, r.AttemptCycle, r.MHPSeq, g.clock.Now()))
}

func (g *steadyGen) Quiet(uint64) uint64 { return 0 }

func (g *steadyGen) Steady(uint64) (PollDecision, uint64) { return g.decision, 1 << 40 }

func (g *steadyGen) SteadyDecision(_ uint64, d PollDecision) PollDecision { return d }

func (g *steadyGen) Absorb(_, failed uint64, _ PollDecision) { g.absorbed += failed }

// TestFoldCrossesMaintenancePasses runs one link with steady generators for
// 3,000 cycles, folded and attempt by attempt: the maintenance passes at
// cycles 1024 and 2048 fall inside folded runs. Every result, the station's
// and sampler's counts and the clock's cycles and polls must match, with the
// failures the fold absorbed counting as the failure results they stand for.
func TestFoldCrossesMaintenancePasses(t *testing.T) {
	run := func(fold bool) (log []string, h *harness) {
		h = newHarness(t, 0)
		h.link.SetFolding(fold)
		qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
		a := &steadyGen{decision: attemptDecision(qid, 0.5), clock: h.s}
		b := &steadyGen{decision: attemptDecision(qid, 0.5), clock: h.s}
		h.link.nodes[nv.SideA].gen, h.link.nodes[nv.SideB].gen = a, b
		stop := h.start()
		_ = h.s.RunFor(3000 * sim.DurationMicroseconds(10.12))
		stop()
		for _, g := range []*steadyGen{a, b} {
			failures := g.absorbed
			for _, line := range g.log {
				if strings.HasPrefix(line, wire.OutcomeFailure.String()) {
					failures++
				} else {
					log = append(log, line)
				}
			}
			log = append(log, fmt.Sprintf("failures %d", failures))
		}
		matched, successes, _, _, _ := h.link.Stats()
		log = append(log, fmt.Sprintf("matched %d successes %d sampled %d ticks %d polls %d",
			matched, successes, h.link.sampler.Attempts(), h.clock.Ticks(), h.clock.Polls()))
		return log, h
	}
	got, folded := run(true)
	want, ref := run(false)
	if folded.s.Executed() >= ref.s.Executed() {
		t.Fatalf("%d events folded, %d attempt by attempt: the fold never engaged", folded.s.Executed(), ref.s.Executed())
	}
	if len(got) != len(want) {
		t.Fatalf("%d log lines, attempt by attempt %d\nfolded:      %q\nper attempt: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs\nfolded:      %s\nper attempt: %s", i, got[i], want[i])
		}
	}
}
