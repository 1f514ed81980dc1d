package mhp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

// quietGen attempts in the cycles before attemptUntil and otherwise reports
// the next bound of its script from Quiet (math.MaxUint64 once the script is
// spent), logging its polls. Its node starts active, and it never folds.
type quietGen struct {
	scriptedGen
	attemptUntil uint64
	script       []uint64
}

func (g *quietGen) PollTrigger(cycle uint64) PollDecision {
	g.scriptedGen.PollTrigger(cycle)
	if cycle < g.attemptUntil {
		return attemptDecision(wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 1}, 0.1)
	}
	return PollDecision{}
}

func (g *quietGen) Quiet(cycle uint64) uint64 {
	if cycle == 0 {
		return 0 // NewLink's question: start active
	}
	if len(g.script) == 0 {
		return math.MaxUint64
	}
	q := g.script[0]
	g.script = g.script[1:]
	return q
}

// TestClockWakesQuietNodeAtItsCycle: a node whose poll attempts nothing
// parks until the cycle its generator reports, and the clock polls it again
// at exactly that cycle; skipped cycles count as polled (PolledCycle), and a
// Wake before the cycle returns it to the active set at once and drops its
// timed wake. With no node active the clock fires no tick between.
//
// Script: the poll at 1 reports 11, the poll at 11 reports 30, an event
// between cycles 20 and 21 wakes it, and the poll at 21 reports "until
// woken".
func TestClockWakesQuietNodeAtItsCycle(t *testing.T) {
	s := sim.New(1)
	var log []string
	a := &quietGen{scriptedGen: scriptedGen{name: "a", log: &log, busy: true}, script: []uint64{11, 30}}
	b := &scriptedGen{name: "b", log: &log}
	l := newScriptedLink(s, a, b)
	clock := NewClock(s)
	clock.Add(l.Node(nv.SideA))
	clock.Add(l.Node(nv.SideB))
	period := l.period
	node := l.Node(nv.SideA)
	var read []uint64
	for _, at := range []sim.Duration{5, 15} {
		sim.Schedule(s, at*period+period/2, func() { read = append(read, node.PolledCycle()) })
	}
	sim.Schedule(s, 20*period+period/2, func() {
		read = append(read, node.PolledCycle())
		node.Wake()
	})
	clock.Start()
	_ = s.RunFor(40 * period)
	clock.Stop()

	if want := []string{"a@1", "a@11", "a@21"}; !reflect.DeepEqual(log, want) {
		t.Fatalf("poll log %v, want %v", log, want)
	}
	if want := []uint64{5, 15, 20}; !reflect.DeepEqual(read, want) {
		t.Errorf("PolledCycle read %v, want %v", read, want)
	}
	if len(clock.waking) != 0 || !node.parked {
		t.Errorf("after the run: %d timed wakes, parked %v; want none, parked until woken", len(clock.waking), node.parked)
	}
	if clock.Ticks() != 40 {
		t.Errorf("clock counted %d cycles, want 40", clock.Ticks())
	}
	// Ticks at 1, 10 (before the read at 10.5), 11, 14, 15, 19, 20, 21 and
	// 39, and the three reads: the other cycles poll no one.
	if got := s.Executed(); got > 12 {
		t.Errorf("%d events: the clock ticked through cycles that poll no one", got)
	}
}

// TestParkedNodeRunsMaintenancePass: a node whose attempts' REPLYs were all
// lost keeps them pending after its generator falls silent, and parks with
// them; it must still be polled at the maintenance pass that drops them.
// Its pending list is checked against a twin whose node is never quiet.
func TestParkedNodeRunsMaintenancePass(t *testing.T) {
	run := func(quiet bool) (pending []int, polls uint64) {
		s := sim.New(1)
		var log []string
		a := &quietGen{scriptedGen: scriptedGen{name: "a", log: &log, busy: true}, attemptUntil: 100}
		if !quiet {
			a.script = make([]uint64, 8000) // 0: the next poll may act
		}
		l := newScriptedLink(s, a, &scriptedGen{name: "b", log: &log})
		l.SetLoss(FibreHA, 1)
		clock := NewClock(s)
		clock.Add(l.Node(nv.SideA))
		clock.Add(l.Node(nv.SideB))
		clock.Start()
		for range 8 {
			_ = s.RunFor(1000 * l.period)
			pending = append(pending, l.Node(nv.SideA).PendingAttempts())
		}
		clock.Stop()
		return pending, clock.Polls()
	}
	got, polls := run(true)
	want, refPolls := run(false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pending attempts every 1,000 cycles %v, never quiet %v", got, want)
	}
	if want[len(want)-1] != 0 || polls*10 > refPolls {
		t.Fatalf("pending %v, %d polls against %d never quiet: the test exercised nothing", want, polls, refPolls)
	}
	t.Logf("pending %v; %d polls, %d never quiet", got, polls, refPolls)
}

// TestLockstepStopsBeforeTimedWake: a lockstep fold of the active links
// ends before the first cycle a parked node is polled again at, since that
// node may attempt and succeed, and a success on one link acts on the
// others in the network layer. The parked node's generator checks that no
// link has attempted after its cycle.
func TestLockstepStopsBeforeTimedWake(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := sim.New(seed)
		l1 := newLockLink(s, seed, false)
		var log []string
		var wakes []uint64
		for w := uint64(700); w < 6000; w += 977 {
			wakes = append(wakes, w)
		}
		parked := &quietGen{scriptedGen: scriptedGen{name: "p", log: &log, busy: true}, script: wakes}
		parked.onPoll = func(cycle uint64) {
			if got := l1.link.Node(nv.SideA).PolledCycle(); got > cycle {
				t.Fatalf("seed %d: the folding link attempted at cycle %d, after the parked node's cycle %d", seed, got, cycle)
			}
		}
		l2 := newScriptedLink(s, parked, &scriptedGen{name: "q", log: &log})
		clock := NewClock(s)
		clock.Lockstep()
		l1.join(clock)
		clock.Add(l2.Node(nv.SideA))
		clock.Add(l2.Node(nv.SideB))
		clock.Start()
		_ = s.RunFor(7000 * clock.period)
		clock.Stop()
		if want := fmt.Sprint(append([]uint64{1}, wakes...)); fmt.Sprint(pollCycles(log)) != want {
			t.Fatalf("seed %d: parked node polled at %v, want %v", seed, pollCycles(log), want)
		}
		if s.Executed() > 7000 {
			t.Fatalf("seed %d: %d events: the lockstep did not engage", seed, s.Executed())
		}
	}
}

// pollCycles returns the cycles of a poll log's entries.
func pollCycles(log []string) []uint64 {
	var out []uint64
	for _, e := range log {
		var name string
		var c uint64
		if _, err := fmt.Sscanf(e, "%1s@%d", &name, &c); err == nil {
			out = append(out, c)
		}
	}
	return out
}
