package netsim

import (
	"fmt"
	"testing"

	"repro/internal/egp"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestIdleGridCostsOneEventPerCycle pins what parking buys: an idle 3x3 Lab
// grid (12 links, 24 MHP nodes) fires exactly one clock event per MHP cycle
// plus the per-link 50 ms queue-sampler ticks, and polls no node at all.
func TestIdleGridCostsOneEventPerCycle(t *testing.T) {
	nw, err := NewNetwork(DefaultConfig(Grid(3, 3), nv.ScenarioLab))
	if err != nil {
		t.Fatal(err)
	}
	const window = 120 * sim.Millisecond
	nw.Run(window)
	if len(nw.Links) != 12 || len(nw.clocks) != 1 {
		t.Fatalf("%d links on %d clocks, want 12 links on one clock", len(nw.Links), len(nw.clocks))
	}
	cycles := uint64(window / nw.Platform.CycleTime[nv.RequestMeasure])
	samples := uint64(len(nw.Links)) * uint64(window/nw.Config.QueueSamplePeriod)
	if got := nw.ClockTicks(); got != cycles {
		t.Errorf("clock ticked %d times in %v, want one per cycle (%d)", got, window, cycles)
	}
	if got := nw.Sim.Executed(); got != cycles+samples {
		t.Errorf("%d events, want %d clock ticks + %d sampler ticks", got, cycles, samples)
	}
	if polls := nw.clocks[0].Polls(); polls != 0 {
		t.Errorf("idle nodes were polled %d times, want 0", polls)
	}
}

// wakeRun is what TestWakeInsideClockTick observes in one run.
type wakeRun struct {
	at            sim.Time
	cycle         uint64 // the woken EGP's Cycle() when the request arrives
	scheduleCycle uint64 // the woken request's ScheduleCycle
	trace         []obs.Record
}

// runWakeInsideTick serves a request on link `from` whose attempts all get
// lost, so it times out; the TIMEOUT is reaped inside the origin node's poll,
// during the clock's tick, and the error hook submits a request on the idle
// link `to`, waking its parked node synchronously.
func runWakeInsideTick(t *testing.T, from, to int, perNode bool) wakeRun {
	t.Helper()
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 4
	tracer := obs.NewTracer(1, 1<<16)
	cfg.Trace = tracer
	nw, err := newNetwork(cfg, perNode)
	if err != nil {
		t.Fatal(err)
	}
	var got wakeRun
	woken := false
	nw.OnLinkError = func(l *Link, ev egp.ErrorEvent) {
		if l != nw.Links[from] || ev.Code != wire.ErrTimeout || woken {
			return
		}
		woken = true
		target := nw.Links[to]
		got.at = target.Eng.Now()
		got.cycle = target.EGPA.Cycle()
		if _, code := nw.Submit(target, roleA, egp.CreateRequest{NumPairs: 1, MinFidelity: 0.5, Priority: egp.PriorityMD}); code != wire.ErrNone {
			t.Fatalf("submit on the woken link: %v", code)
		}
		items := target.EGPA.Queue().Items(egp.PriorityMD)
		got.scheduleCycle = items[len(items)-1].ScheduleCycle
	}
	for f := mhp.FibreAH; f <= mhp.FibreHB; f++ {
		nw.Links[from].Mid.SetLoss(f, 1)
	}
	if _, code := nw.Submit(nw.Links[from], roleA, egp.CreateRequest{NumPairs: 1, MinFidelity: 0.5, MaxTime: 200 * sim.Millisecond, Priority: egp.PriorityMD}); code != wire.ErrNone {
		t.Fatalf("submit on the timing-out link: %v", code)
	}
	nw.Run(300 * sim.Millisecond)
	if !woken {
		t.Fatal("the request never timed out")
	}
	if d := tracer.Dropped(); d != 0 {
		t.Fatalf("tracer overwrote %d records", d)
	}
	for _, r := range tracer.Records() {
		if r.Layer != obs.LayerSim {
			got.trace = append(got.trace, r)
		}
	}
	return got
}

// TestWakeInsideClockTick pins the cursor rule. On a 3-node chain the clock
// polls link 0's nodes (slots 0, 1) before link 1's (slots 2, 3). A parked
// node woken during the tick of cycle k reads k−1 while the clock has not
// reached its slot, and is polled in that same cycle; past its slot it reads
// k and is polled from k+1. Either way the request it queues, and the whole
// run, must match the per-node-clock reference.
func TestWakeInsideClockTick(t *testing.T) {
	period := nv.LabPlatform().CycleTime[nv.RequestMeasure]
	for _, tc := range []struct {
		name     string
		from, to int
		lag      uint64 // how many cycles the woken node's reading trails the tick
	}{
		{"wake-ahead-of-cursor", 0, 1, 1},
		{"wake-behind-cursor", 1, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shared := runWakeInsideTick(t, tc.from, tc.to, false)
			ref := runWakeInsideTick(t, tc.from, tc.to, true)
			if shared.at%sim.Time(period) != 0 {
				t.Fatalf("wake at %v is not on a cycle boundary (period %v)", shared.at, period)
			}
			k := uint64(shared.at / sim.Time(period))
			if shared.cycle != k-tc.lag {
				t.Errorf("woken EGP read cycle %d during tick %d, want %d", shared.cycle, k, k-tc.lag)
			}
			if shared.at != ref.at || shared.cycle != ref.cycle || shared.scheduleCycle != ref.scheduleCycle {
				t.Errorf("woken request differs from the per-node-clock run:\nshared:   at %v cycle %d ScheduleCycle %d\nper-node: at %v cycle %d ScheduleCycle %d",
					shared.at, shared.cycle, shared.scheduleCycle, ref.at, ref.cycle, ref.scheduleCycle)
			}
			if fmt.Sprint(shared.trace) != fmt.Sprint(ref.trace) {
				t.Error("trace records differ from the per-node-clock run")
			}
		})
	}
}
