package mhp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/sim"
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

func (g *scriptedGen) Idle() bool { return !g.busy }

// Fold never reports a steady decision: the script's polls are the test.
func (g *scriptedGen) Steady(uint64) (PollDecision, uint64) { return PollDecision{}, 0 }
func (g *scriptedGen) Absorb(uint64, uint64, PollDecision)  {}

// newScriptedLink builds a link on s between a and b, which never ask for an
// attempt.
func newScriptedLink(s *sim.Simulator, a, b *scriptedGen) *Link {
	platform := nv.LabPlatform()
	return NewLink(LinkConfig{
		Sim: s, Sampler: photonics.NewLinkSampler(platform.Optics), Registry: NewPairRegistry(),
		Generators: [2]Generator{a, b},
		Devices: [2]*nv.Device{
			nv.NewDevice(a.name, platform.Gates, platform.CarbonCoupling, 1),
			nv.NewDevice(b.name, platform.Gates, platform.CarbonCoupling, 1),
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

// TestIdleLoneLinkSkipsTicks parks both nodes of a lone link until an event
// between two ticks gives one of them work for three cycles, with the fold
// on and off. The woken node must be polled in the same cycles and the
// clock must count the same cycles, while the folding clock fires no tick
// in the idle stretches before the wake and after the node parks again.
func TestIdleLoneLinkSkipsTicks(t *testing.T) {
	run := func(fold bool) (log []string, ticks, executed uint64) {
		s := sim.New(1)
		a := &scriptedGen{name: "a", log: &log}
		b := &scriptedGen{name: "b", log: &log}
		l := newScriptedLink(s, a, b)
		l.SetFolding(fold)
		clock := NewClock(s)
		clock.Add(l.Node(nv.SideA))
		clock.Add(l.Node(nv.SideB))
		clock.Start()
		period := l.period
		sim.Schedule(s, 1000*period+period/2, func() {
			a.busy = true
			l.Node(nv.SideA).Wake()
		})
		sim.Schedule(s, 1003*period+period/3, func() { a.busy = false })
		_ = s.RunFor(2000*period + period/2)
		return log, clock.Ticks(), s.Executed()
	}
	log, ticks, executed := run(true)
	refLog, refTicks, refExecuted := run(false)
	want := []string{"a@1001", "a@1002", "a@1003", "a@1004"}
	if !reflect.DeepEqual(log, want) || !reflect.DeepEqual(refLog, want) {
		t.Fatalf("poll log %v, attempt by attempt %v, want %v", log, refLog, want)
	}
	if ticks != 2000 || refTicks != 2000 {
		t.Fatalf("clock counted %d cycles, attempt by attempt %d, want 2000", ticks, refTicks)
	}
	// Ticks 1, 1000, 1001–1004 and 2000, and the two scripted events.
	if executed != 9 || refExecuted != 2002 {
		t.Fatalf("%d events, attempt by attempt %d; want 9 and 2002", executed, refExecuted)
	}
}
