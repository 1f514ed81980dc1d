package mhp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// lockGen is a steady generator that may start idle.
type lockGen struct {
	steadyGen
	idle bool
}

func (g *lockGen) Quiet(uint64) uint64 {
	if g.idle {
		return math.MaxUint64
	}
	return 0
}

// lockLink is one loss-free Lab link of a lockstep test, built as netsim
// builds one: on its own WithRNG view of s, with its MHP deliveries untracked.
type lockLink struct {
	link *Link
	view sim.Engine
	gens [2]*lockGen
}

func newLockLink(s *sim.Simulator, seed int64, idle bool) *lockLink {
	qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
	ll := &lockLink{view: sim.WithRNG(s, sim.NewRNG(seed))}
	for i := range ll.gens {
		ll.gens[i] = &lockGen{steadyGen: steadyGen{decision: attemptDecision(qid, 0.3), clock: s}, idle: idle}
	}
	platform := nv.LabPlatform()
	ll.link = NewLink(LinkConfig{
		Sim: sim.Untracked(ll.view), Sampler: photonics.NewLinkSampler(platform.Optics),
		Generators: [2]Generator{ll.gens[0], ll.gens[1]},
		Devices: [2]*nv.Device{
			nv.NewDevice("A", platform.Gates, platform.CarbonCoupling, 1),
			nv.NewDevice("B", platform.Gates, platform.CarbonCoupling, 1),
		},
		Arms:      [2]sim.Duration{10 * sim.Nanosecond, 10 * sim.Nanosecond},
		CycleTime: platform.CycleTime[nv.RequestMeasure],
		HoldTime:  100 * sim.Microsecond,
	})
	return ll
}

// join adds the link's nodes to the clock.
func (ll *lockLink) join(c *Clock) {
	c.Add(ll.link.Node(nv.SideA))
	c.Add(ll.link.Node(nv.SideB))
}

// TestLockstepMatchesPerAttempt runs three links with steady generators on
// one clock in lockstep, and attempt by attempt. Every link's results (the
// successes, with their cycles and arrival times, and how many failures
// reached or were absorbed by each generator), the station's and sampler's
// counts and the clock's cycles and polls must match: a lockstep that stops
// before one link's success holds the other links' draws of that cycle for
// their real heralds.
func TestLockstepMatchesPerAttempt(t *testing.T) {
	var heralded uint64
	for seed := int64(1); seed <= 20; seed++ {
		run := func(fold bool) (log []string, executed uint64) {
			s := sim.New(seed)
			clock := NewClock(s)
			clock.Lockstep()
			var links []*lockLink
			for i := range int64(3) {
				ll := newLockLink(s, seed+20*i, false)
				ll.link.SetFolding(fold)
				ll.join(clock)
				links = append(links, ll)
			}
			clock.Start()
			_ = s.RunFor(6000 * clock.period)
			clock.Stop()
			for _, ll := range links {
				for _, g := range ll.gens {
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
				matched, successes, _, _, _ := ll.link.Stats()
				log = append(log, fmt.Sprintf("matched %d successes %d sampled %d", matched, successes, ll.link.sampler.Attempts()))
				if fold {
					heralded += successes
				}
			}
			log = append(log, fmt.Sprintf("ticks %d polls %d", clock.Ticks(), clock.Polls()))
			return log, s.Executed()
		}
		got, events := run(true)
		want, refEvents := run(false)
		if events*10 >= refEvents {
			t.Fatalf("seed %d: %d events in lockstep, %d attempt by attempt: the lockstep did not engage", seed, events, refEvents)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, attempt by attempt %d\nlockstep:    %q\nper attempt: %q", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d differs\nlockstep:    %s\nper attempt: %s", seed, i, got[i], want[i])
			}
		}
	}
	if heralded < 20 {
		t.Fatalf("%d successes over 20 seeds: too few lockstep runs end at a success", heralded)
	}
	t.Logf("%d successes", heralded)
}

// TestLockstepFoldsToSimulatorHorizon: a clock in lockstep folds its active
// links only up to the simulator's horizon, not their views' own. An event
// that only a parked link's view tracks may reach the others through a
// network layer, so when it fires no other link may have attempted at or
// after its instant.
func TestLockstepFoldsToSimulatorHorizon(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := sim.New(seed)
		l1, l2 := newLockLink(s, seed, false), newLockLink(s, seed+20, true)
		clock := NewClock(s)
		clock.Lockstep()
		l1.join(clock)
		l2.join(clock)
		for k := int64(1); k <= 10; k++ {
			sim.Schedule(l2.view, sim.Duration(997*k)*clock.period+3*sim.Microsecond, func() {
				at := sim.Time(l1.link.Node(nv.SideA).PolledCycle()) * sim.Time(clock.period)
				if at >= s.Now() {
					t.Fatalf("seed %d: link 1 attempted at %v, at or after the parked link's event at %v", seed, at, s.Now())
				}
			})
		}
		clock.Start()
		_ = s.RunFor(12000 * clock.period)
		clock.Stop()
		if l1.link.Node(nv.SideA).Attempts() < 10000 {
			t.Fatalf("seed %d: link 1 made %d attempts", seed, l1.link.Node(nv.SideA).Attempts())
		}
	}
}
