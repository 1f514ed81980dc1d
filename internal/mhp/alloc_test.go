package mhp_test

import (
	"testing"

	"repro/internal/egp"
	"repro/internal/mhp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
)

// TestFailedAttemptsAllocateNothing pins the attempt loop at zero heap
// allocations: a 2-node Lab link serving a standing MD request runs a window
// of failed attempts — poll, the GEN pair's one delivery event, the
// station's match and optical sample, the REPLY pair's one delivery event,
// EGP bookkeeping — and the window must not allocate at all. The lossy case
// also drives the station's hold timeout and its error REPLY, and frames the
// fibres drop.
func TestFailedAttemptsAllocateNothing(t *testing.T) {
	cycle := nv.LabPlatform().CycleTime[nv.RequestMeasure]
	for _, tc := range []struct {
		name string
		loss float64
	}{
		// The first name level is the event queue the engine runs on.
		{"wheel", 0},
		{"wheel/lossy", 0.005},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, l := labLink(t, tc.loss)
			// Warm up past the DQP handshake, so the free lists reach their
			// steady size. Under loss, attempts whose REPLY was lost stay
			// pending until a maintenance pass (every 1024 cycles) drops those
			// 4096 cycles old, and the pending slices keep the capacity they
			// grow to. So the warm-up must cover one full 4096-cycle drop
			// period plus a 1024-cycle maintenance interval after the first
			// attempt, and the window must not grow the slices further.
			nw.Run(8000 * sim.Duration(cycle))

			pendingCap := func() [2]int { return [2]int{mhp.PendingCap(l.MHPA), mhp.PendingCap(l.MHPB)} }
			cap0 := pendingCap()
			_, successes0, timeMismatch0, _, noOther0 := l.Mid.Stats()
			// AllocsPerRun calls the window twice, once unmeasured; attempts
			// is the measured call's count.
			var attempts uint64
			allocs := testing.AllocsPerRun(1, func() {
				before := nw.Attempts()
				_ = nw.Sim.RunFor(1000 * sim.Duration(cycle))
				attempts = nw.Attempts() - before
			})
			_, successes, timeMismatch, _, noOther := l.Mid.Stats()

			if attempts < 400 {
				t.Fatalf("only %d attempts sampled in the window", attempts)
			}
			if successes != successes0 {
				t.Fatalf("%d heralded successes in the window; it must hold failed attempts only (pick a shorter window)", successes-successes0)
			}
			if tc.loss > 0 && timeMismatch+noOther == timeMismatch0+noOther0 {
				t.Fatal("lossy window never reached the midpoint's hold timeout")
			}
			if c := pendingCap(); c != cap0 {
				t.Fatalf("pending slices grew from capacity %v to %v in the window (lengthen the warm-up)", cap0, c)
			}
			if allocs != 0 {
				t.Fatalf("%v allocations over %d failed attempts, want 0", allocs, attempts)
			}
		})
	}
}

// labLink builds a 2-node Lab link at the given classical loss serving a
// standing MD request. A high fidelity floor keeps α, and with it the herald
// rate, low enough that a window of 1000 cycles holds only failed attempts.
func labLink(t *testing.T, loss float64) (*netsim.Network, *netsim.Link) {
	t.Helper()
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab)
	cfg.ClassicalLossProb = loss
	// Keep the queue-occupancy sampler, which appends to a series, out of
	// the measured window.
	cfg.QueueSamplePeriod = sim.Second
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := nw.Links[0]
	if _, code := nw.Submit(l, "A", egp.CreateRequest{NumPairs: 60000, MinFidelity: 0.8, Priority: egp.PriorityMD}); code != 0 {
		t.Fatalf("submit: %v", code)
	}
	return nw, l
}

// TestFailedAttemptCostsTwoEvents pins the events of a loss-free failed
// attempt on a link with equal arms beyond the shared cycle tick: one
// delivery of the GEN pair and one of the REPLY pair. The first GEN to
// arrive gets no hold event, because its partner arrives with it.
func TestFailedAttemptCostsTwoEvents(t *testing.T) {
	cycle := nv.LabPlatform().CycleTime[nv.RequestMeasure]
	nw, l := labLink(t, 0)
	nw.Run(1000 * sim.Duration(cycle))
	events, ticks, attempts := nw.Sim.Executed(), nw.ClockTicks(), nw.Attempts()
	_, successes0, _, _, _ := l.Mid.Stats()
	_ = nw.Sim.RunFor(1000 * sim.Duration(cycle))
	events, ticks, attempts = nw.Sim.Executed()-events, nw.ClockTicks()-ticks, nw.Attempts()-attempts
	if _, successes, _, _, _ := l.Mid.Stats(); successes != successes0 {
		t.Fatalf("%d heralded successes in the window; it must hold failed attempts only", successes-successes0)
	}
	if attempts < 400 {
		t.Fatalf("only %d attempts in the window", attempts)
	}
	if got := events - ticks; got != 2*attempts {
		t.Fatalf("%d events beside %d clock ticks for %d attempts, want 2 per attempt", got, ticks, attempts)
	}
}
