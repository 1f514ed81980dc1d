package netsim

import (
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestLinkAccountThroughputAndLatency(t *testing.T) {
	var a LinkAccount
	// Request 1: NL from A, 2 pairs, takes 4 seconds.
	a.submitted(1, roleA, egp.PriorityNL, 2, 0)
	a.delivered(1, roleA, egp.PriorityNL, 0.7, sim.Time(2*sim.Second), false)
	a.delivered(1, roleA, egp.PriorityNL, 0.72, sim.Time(4*sim.Second), true)
	// Request 2: MD from B, 1 pair, takes 1 second.
	a.submitted(2, roleB, egp.PriorityMD, 1, sim.Time(sim.Second))
	a.delivered(2, roleB, egp.PriorityMD, 0.8, sim.Time(2*sim.Second), true)
	a.end = sim.Time(10 * sim.Second)

	if got := a.Throughput(egp.PriorityNL); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("NL throughput = %v, want 0.2", got)
	}
	if got := a.RequestLatency(egp.PriorityNL).Mean(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("request latency = %v, want 4", got)
	}
	if got := a.ScaledLatency(egp.PriorityNL).Mean(); math.Abs(got-2) > 1e-12 {
		t.Fatalf("scaled latency = %v, want 2", got)
	}
	if got := a.pairLatency[egp.PriorityNL].Mean(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("pair latency = %v, want 3", got)
	}
	if got := a.Fidelity(egp.PriorityNL).Mean(); math.Abs(got-0.71) > 1e-12 {
		t.Fatalf("fidelity = %v, want 0.71", got)
	}
	if a.Pairs(egp.PriorityNL) != 2 || a.Pairs(egp.PriorityMD) != 1 {
		t.Fatal("pair counts wrong")
	}
	if o := a.Origin(roleA); o.Pairs != 2 || o.Completed != 1 || o.LatencySum != 4 {
		t.Fatalf("origin A account %+v", o)
	}
	if o := a.Origin(roleB); o.Pairs != 1 || o.Completed != 1 || o.FidelitySum != 0.8 {
		t.Fatalf("origin B account %+v", o)
	}
	if a.Open() != 0 {
		t.Fatalf("%d requests open after both completed", a.Open())
	}
}

func TestLinkAccountFailures(t *testing.T) {
	var a LinkAccount
	a.submitted(1, roleA, egp.PriorityNL, 1, 0)
	a.failed(1, wire.ErrTimeout)
	if a.Errors(wire.ErrTimeout) != 1 || a.Errors(wire.ErrRejected) != 0 {
		t.Fatal("error counts wrong")
	}
	if a.Open() != 0 {
		t.Fatal("failed request should not be open")
	}
	a.submitted(2, roleA, egp.PriorityNL, 1, 0)
	if a.Open() != 1 {
		t.Fatal("unfinished request should be open")
	}
}

func TestLinkAccountQueue(t *testing.T) {
	var a LinkAccount
	a.queue.Add(3)
	a.queue.Add(5)
	if a.QueueLength().Mean() != 4 || a.QueueLength().Max() != 5 {
		t.Fatal("queue length mean/max wrong")
	}
}

func TestLinkAccountZeroDuration(t *testing.T) {
	var a LinkAccount
	a.submitted(1, roleA, egp.PriorityNL, 1, 0)
	a.delivered(1, roleA, egp.PriorityNL, 0.7, 0, true)
	if a.Throughput(egp.PriorityNL) != 0 || a.DurationSeconds() != 0 {
		t.Fatal("zero-duration account should report zero throughput")
	}
}

// TestLinkAccountForgetsEndedRequests runs requests on both links of a
// chain from both ends until every one has completed or timed out, and then
// requires each link account to hold no request record: a record lives only
// while its request is open.
func TestLinkAccountForgetsEndedRequests(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 3
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each request's deadline is 1.5 times the FEU's own completion estimate
	// for its size, so the requests queued behind others time out.
	for _, l := range nw.Links {
		for i, role := range []string{roleA, roleB, roleA, roleB} {
			feu := l.EGPFor(role).FEU()
			alpha, _ := feu.AlphaForFidelity(0.6)
			n := 1 + 3*i
			req := egp.CreateRequest{
				NumPairs:    n,
				MinFidelity: 0.6,
				Priority:    egp.PriorityMD,
				MaxTime:     sim.DurationSeconds(1.5 * feu.EstimateCompletionSeconds(n, alpha, false)),
			}
			if _, code := nw.Submit(l, role, req); code != wire.ErrNone {
				t.Fatalf("%s: submit from %s: %v", l.Name, role, code)
			}
		}
	}
	nw.Run(sim.DurationSeconds(3))
	var completed, timedOut int
	for _, l := range nw.Links {
		a := &l.Account
		done := a.RequestLatency(egp.PriorityMD).Count()
		completed += done
		timedOut += a.Errors(wire.ErrTimeout)
		if uint64(done+a.Errors(wire.ErrTimeout)) != l.Submitted {
			t.Fatalf("%s: %d submitted, %d completed, %d timed out: not every request ended", l.Name, l.Submitted, done, a.Errors(wire.ErrTimeout))
		}
		if a.Open() != 0 {
			t.Errorf("%s: %d request records left after every request ended", l.Name, a.Open())
		}
	}
	if completed == 0 || timedOut == 0 {
		t.Fatalf("want both completions and timeouts, got %d and %d", completed, timedOut)
	}
}
