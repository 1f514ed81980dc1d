package mhp

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/sim"
	"repro/internal/wire"
)

// scriptedGen is a generator whose idleness the test sets, logging every
// poll and optionally running a hook inside it.
type scriptedGen struct {
	name   string
	log    *[]string
	busy   bool
	onPoll func(cycle uint64)
	last   uint64 // cycle of the latest poll
}

func (g *scriptedGen) PollTrigger(cycle uint64) PollDecision {
	*g.log = append(*g.log, fmt.Sprintf("%s@%d", g.name, cycle))
	g.last = cycle
	if g.onPoll != nil {
		g.onPoll(cycle)
	}
	return PollDecision{}
}

func (g *scriptedGen) HandleResult(Result) {}

func (g *scriptedGen) Quiet(uint64) uint64 {
	if g.busy {
		return 0
	}
	return math.MaxUint64
}

// Fold never reports a steady decision: the script's polls are the test.
func (g *scriptedGen) Steady(uint64) (PollDecision, uint64)                 { return PollDecision{}, 0 }
func (g *scriptedGen) SteadyDecision(_ uint64, d PollDecision) PollDecision { return d }
func (g *scriptedGen) Absorb(uint64, uint64, PollDecision)                  {}

// newScriptedLink builds a loss-free Lab link on s between a and b.
func newScriptedLink(s *sim.Simulator, a, b Generator) *Link {
	platform := nv.LabPlatform()
	return NewLink(LinkConfig{
		Sim: s, Sampler: photonics.NewLinkSampler(platform.Optics),
		Generators: [2]Generator{a, b},
		Devices: [2]*nv.Device{
			nv.NewDevice("A", platform.Gates, platform.CarbonCoupling, 1),
			nv.NewDevice("B", platform.Gates, platform.CarbonCoupling, 1),
		},
		Arms:      [2]sim.Duration{10 * sim.Nanosecond, 10 * sim.Nanosecond},
		CycleTime: platform.CycleTime[nv.RequestMeasure],
		HoldTime:  100 * sim.Microsecond,
	})
}

// TestClockPollsActiveNodesInSlotOrder scripts four nodes, two links' worth,
// on one clock: n0 and n2 have work, n1 and n3 start parked. In cycle 3,
// n2's poll wakes n1 (behind the cursor) and n3 (ahead of it): n3 is polled
// in cycle 3, n1 from cycle 4, and during the tick they read the cycles
// their own tickers would have shown. In cycle 5 n0 runs out of work and
// parks after its poll.
func TestClockPollsActiveNodesInSlotOrder(t *testing.T) {
	s := sim.New(1)
	var log []string
	gens := make([]*scriptedGen, 4)
	nodes := make([]*Node, 4)
	clock := NewClock(s)
	for i := range gens {
		gens[i] = &scriptedGen{name: fmt.Sprintf("n%d", i), log: &log, busy: i%2 == 0}
	}
	for i := 0; i < len(nodes); i += 2 {
		l := newScriptedLink(s, gens[i], gens[i+1])
		nodes[i], nodes[i+1] = l.Node(nv.SideA), l.Node(nv.SideB)
		clock.Add(nodes[i])
		clock.Add(nodes[i+1])
	}
	var read [2]uint64
	gens[2].onPoll = func(cycle uint64) {
		switch cycle {
		case 3:
			read = [2]uint64{nodes[1].Cycle(), nodes[3].Cycle()}
			gens[1].busy, gens[3].busy = true, true
			nodes[1].Wake()
			nodes[3].Wake()
		case 5:
			gens[0].busy = false
		}
	}
	stop := clock.Start()
	period := nodes[0].link.period
	_ = s.RunFor(6 * period)
	stop()

	want := []string{
		"n0@1", "n2@1",
		"n0@2", "n2@2",
		"n0@3", "n2@3", "n3@3",
		"n0@4", "n1@4", "n2@4", "n3@4",
		"n0@5", "n1@5", "n2@5", "n3@5",
		"n0@6", "n1@6", "n2@6", "n3@6",
	}
	// n0 went idle during n2's poll in cycle 5, after its own poll, so it
	// parks after its poll in cycle 6.
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("poll log\n got %v\nwant %v", log, want)
	}
	if read != [2]uint64{3, 2} {
		t.Errorf("during tick 3, n1 read cycle %d (want 3) and n3 read %d (want 2)", read[0], read[1])
	}
	if !nodes[0].parked || nodes[1].parked || nodes[3].parked {
		t.Errorf("parked flags n0..n3 = %v %v %v %v, want only n0 parked",
			nodes[0].parked, nodes[1].parked, nodes[2].parked, nodes[3].parked)
	}
	if clock.Ticks() != 6 || clock.Polls() != uint64(len(want)) {
		t.Errorf("clock counted %d ticks and %d polls, want 6 and %d", clock.Ticks(), clock.Polls(), len(want))
	}
	if got := nodes[0].Cycle(); got != 6 {
		t.Errorf("outside a tick a node reads cycle %d, want 6", got)
	}
}

// TestPolledCycleMatchesAlwaysPolledTwin checks a parking node's PolledCycle
// against a twin that is polled every cycle, under random pause, throttle
// and work changes made between ticks: the parked node must report the cycle
// the twin last polled at.
func TestPolledCycleMatchesAlwaysPolledTwin(t *testing.T) {
	s := sim.New(1)
	var log []string
	always := &scriptedGen{name: "always", log: &log, busy: true}
	parking := &scriptedGen{name: "parking", log: &log}
	clock := NewClock(s)
	l := newScriptedLink(s, always, parking)
	a, p := l.Node(nv.SideA), l.Node(nv.SideB)
	clock.Add(a)
	clock.Add(p)
	clock.Start()
	period := l.period
	rng := sim.NewRNG(7)
	for step := 0; step < 400; step++ {
		// Act strictly between ticks, at a random offset into a cycle.
		_ = s.RunFor(sim.Duration(1+rng.Intn(40))*period + sim.Duration(rng.Intn(int(period-1))))
		switch rng.Intn(4) {
		case 0:
			paused := rng.Intn(3) == 0
			a.SetPaused(paused)
			p.SetPaused(paused)
		case 1:
			d := uint64(rng.Intn(5))
			a.SetRateDivisor(d)
			p.SetRateDivisor(d)
		case 2:
			parking.busy = !parking.busy
			if parking.busy {
				p.Wake()
			}
		}
		if got, want := p.PolledCycle(), always.last; got != want {
			t.Fatalf("step %d, cycle %d (parked %v, paused %v, divisor %d): PolledCycle %d, twin last polled at %d",
				step, p.Cycle(), p.parked, p.paused, p.rateDivisor, got, want)
		}
	}
	if clock.Polls() >= 2*clock.Ticks() {
		t.Fatalf("the parking node never parked: %d polls over %d ticks", clock.Polls(), clock.Ticks())
	}
}

// windowGen is a steadyGen whose decision holds for window cycles at a time,
// so a fold ends at the window's end as well as at the link's horizon.
type windowGen struct {
	*steadyGen
	window uint64
}

func (g windowGen) Steady(uint64) (PollDecision, uint64) { return g.decision, g.window }

// TestClockSkipsCyclesThatPollNoOne runs a counted clock, with the fold on
// and off, over rows that leave it with no active node for long stretches.
// In every row an event between two ticks gives the A node of a scripted
// link work for three cycles, so it is polled in cycles w+1 to w+4 and
// parks again. Each row pins the poll log, the cycles the clock counted at
// the end of every RunUntil and the events executed: the polls and the
// cycles must not depend on the fold, and the clock fires no tick in a
// stretch that polls no one, except the last cycle before an event or the
// end of a run and the cycle a resting link resumes at.
//
//   - lone: the scripted link alone; w = 1000.
//   - two-links: a steady link (slots 0, 1) whose decision holds 300 cycles
//     at a time before the scripted one; w = 500. With the fold on the
//     steady link rests, its runs ending at its window or its horizon, while
//     the scripted one is parked.
//   - two-links-stepped: the same, run in two RunUntil steps, the first
//     ending at 400.5 cycles, in the middle of the stretch from cycle 301 to
//     500 that two-links crosses in one jump.
func TestClockSkipsCyclesThatPollNoOne(t *testing.T) {
	type row struct {
		name   string
		steady bool
		wake   uint64   // the cycle after which the scripted node gets work
		steps  []uint64 // each RunUntil ends half a cycle past one of these
		// executed is the events fired: with the fold, and attempt by
		// attempt.
		executed [2]uint64
	}
	rows := []row{
		// Ticks 1, 1000, 1001–1004 and 2000 and the two scripted events;
		// attempt by attempt the same, since no node is active in between.
		{"lone", false, 1000, []uint64{2000}, [2]uint64{9, 9}},
		// Ticks 1, 301 (the rest from cycle 1 ends), 500, 501–504, 804 (the
		// rest from 504 ends) and 1000, and the two scripted events.
		// Attempt by attempt: 1,000 ticks, 1,000 attempts of 2 events each
		// and the two scripted events.
		{"two-links", true, 500, []uint64{1000}, [2]uint64{11, 3002}},
		// As two-links, plus ticks 400 and 401: the fold from cycle 301
		// stops at the end of the first step, which the clock reaches at
		// tick 400, and that rest ends at 401.
		{"two-links-stepped", true, 500, []uint64{400, 1000}, [2]uint64{13, 3002}},
	}
	run := func(t *testing.T, r row, fold bool) (log []string, executed uint64) {
		s := sim.New(1)
		clock := NewClock(s)
		var steady *Link
		if r.steady {
			qid := wire.AbsoluteQueueID{QueueID: 1, QueueSeq: 1}
			a := &steadyGen{decision: attemptDecision(qid, 0.02), clock: s}
			b := &steadyGen{decision: attemptDecision(qid, 0.02), clock: s}
			steady = newScriptedLink(s, windowGen{a, 300}, windowGen{b, 300})
			steady.SetFolding(fold)
			clock.Add(steady.Node(nv.SideA))
			clock.Add(steady.Node(nv.SideB))
		}
		a := &scriptedGen{name: "a", log: &log}
		b := &scriptedGen{name: "b", log: &log}
		l := newScriptedLink(s, a, b)
		l.SetFolding(fold)
		clock.Add(l.Node(nv.SideA))
		clock.Add(l.Node(nv.SideB))
		clock.Start()
		period := l.period
		w := sim.Duration(r.wake)
		sim.Schedule(s, w*period+period/2, func() {
			a.busy = true
			l.Node(nv.SideA).Wake()
		})
		sim.Schedule(s, (w+3)*period+period/3, func() { a.busy = false })
		for _, step := range r.steps {
			_ = s.RunUntil(sim.Time(sim.Duration(step)*period + period/2))
			line := fmt.Sprintf("ticks %d", clock.Ticks())
			if steady != nil {
				line += fmt.Sprintf(" attempts %d", steady.Node(nv.SideA).Attempts())
			}
			log = append(log, line)
		}
		if steady != nil {
			if _, successes, _, _, _ := steady.Stats(); successes != 0 {
				t.Fatalf("the steady link heralded %d successes; the row needs failed attempts only", successes)
			}
		}
		return log, s.Executed()
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w := r.wake
			want := []string{fmt.Sprintf("a@%d", w+1), fmt.Sprintf("a@%d", w+2), fmt.Sprintf("a@%d", w+3), fmt.Sprintf("a@%d", w+4)}
			for i, step := range r.steps {
				line := fmt.Sprintf("ticks %d", step)
				if r.steady {
					line += fmt.Sprintf(" attempts %d", step)
				}
				// A step that ends before the wake comes ahead of the polls.
				if step <= w {
					want = slices.Insert(want, i, line)
				} else {
					want = append(want, line)
				}
			}
			for i, fold := range []bool{true, false} {
				log, executed := run(t, r, fold)
				if !reflect.DeepEqual(log, want) {
					t.Errorf("fold %v: log %v, want %v", fold, log, want)
				}
				if executed != r.executed[i] {
					t.Errorf("fold %v: %d events, want %d", fold, executed, r.executed[i])
				}
			}
		})
	}
}
