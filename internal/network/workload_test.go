package network

import (
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// e2eClass is the end-to-end load the deleted single-purpose generator
// offered: Poisson NL requests at offered load fraction f, pair counts
// uniform in [1, kmax], an end-to-end fidelity floor.
func e2eClass(load float64, kmax int, fmin float64) workload.ClassSpec {
	return workload.ClassSpec{
		Name:        "e2e",
		Priority:    egp.PriorityNL,
		Arrival:     workload.Arrival{Kind: workload.ArrivalPoisson, Load: load},
		MinPairs:    1,
		MaxPairs:    kmax,
		MinFidelity: fmin,
	}
}

// TestE2EClassMatchesRecordedRuns pins end-to-end flows on MultiTraffic to
// the numbers the deleted end-to-end Poisson generator (network.Traffic)
// produced on the same networks: events, attempts, end-to-end requests,
// completions, pairs and swaps. The one-flow case is e2e-chain5's shape
// (Lab memories, k_max 1); the two-flow case is TestServiceDeterminism's
// (idealised memories, k_max 2, so the pair-count draw is exercised). A
// change to the flow rate, the draw order or the request fields breaks it.
// Both backends agree on every pinned field. The events are re-pinned to a
// loss-free Lab attempt's two events beside the clock tick: one delivers
// both GENs, one both REPLYs.
func TestE2EClassMatchesRecordedRuns(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		platform  *nv.Platform
		flows     [][2]int
		class     workload.ClassSpec
		events    uint64
		attempts  uint64
		requests  uint64
		completed uint64
		pairs     int
		swaps     uint64
	}{
		{"e2e-chain5", 1, nil, [][2]int{{0, 4}}, e2eClass(0.3, 1, 0.35), 841040, 311689, 8, 7, 7, 22},
		{"two-flows", 21, idealMemoryPlatform(), [][2]int{{0, 4}, {1, 3}}, e2eClass(0.5, 2, 0.4), 971595, 377035, 15, 7, 13, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, svc := buildService(t, 5, tc.seed, tc.platform, DefaultConfig())
			mt, err := svc.AttachWorkload([]workload.ClassSpec{tc.class}, tc.flows)
			if err != nil {
				t.Fatal(err)
			}
			nw.Run(sim.DurationSeconds(2))
			svc.FinishAt(nw.Sim.Now())
			_, agg := svc.Stats()
			if got := nw.Sim.Executed(); got != tc.events {
				t.Errorf("events = %d, want %d", got, tc.events)
			}
			if got := nw.Attempts(); got != tc.attempts {
				t.Errorf("attempts = %d, want %d", got, tc.attempts)
			}
			if agg.Requests != tc.requests || agg.Completed != tc.completed || agg.Pairs != tc.pairs || svc.Swaps() != tc.swaps {
				t.Errorf("requests/completed/pairs/swaps = %d/%d/%d/%d, want %d/%d/%d/%d",
					agg.Requests, agg.Completed, agg.Pairs, svc.Swaps(), tc.requests, tc.completed, tc.pairs, tc.swaps)
			}
			// The engine's own account sees the same requests.
			acc := mt.Accounts()[0]
			if acc.Offered != tc.requests || acc.Completed != tc.completed || acc.Pairs != uint64(tc.pairs) {
				t.Errorf("class account offered/completed/pairs = %d/%d/%d, want %d/%d/%d",
					acc.Offered, acc.Completed, acc.Pairs, tc.requests, tc.completed, tc.pairs)
			}
		})
	}
}

// TestClosedLoopFlows runs a closed-loop class on two flows: its sessions
// keep requesting end-to-end pairs, its SLO row reports them, and no flow
// ever has more of its requests in flight than it has sessions.
func TestClosedLoopFlows(t *testing.T) {
	nw, svc := buildService(t, 5, 3, idealMemoryPlatform(), DefaultConfig())
	class := workload.ClassSpec{
		Name:        "sessions",
		Priority:    egp.PriorityNL,
		Arrival:     workload.Arrival{Kind: workload.ArrivalClosed, Sessions: 3, ThinkTime: 10 * sim.Millisecond},
		FixedPairs:  1,
		MinFidelity: 0.4,
		Deadline:    sim.DurationSeconds(1),
	}
	mt, err := svc.AttachWorkload([]workload.ClassSpec{class}, [][2]int{{0, 4}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	const seconds = 2
	nw.Run(sim.DurationSeconds(seconds))
	svc.FinishAt(nw.Sim.Now())
	slo := mt.SLO(seconds)
	if len(slo) != 1 {
		t.Fatalf("SLO has %d rows, want 1", len(slo))
	}
	acc := mt.Accounts()[0]
	if acc.Offered == 0 || acc.Completed == 0 || acc.Pairs == 0 {
		t.Fatalf("closed-loop flows did no work: %+v", acc)
	}
	_, agg := svc.Stats()
	if uint64(agg.Pairs) != acc.Pairs {
		t.Errorf("service delivered %d pairs, class account %d", agg.Pairs, acc.Pairs)
	}
	// Three sessions over two flows (2 and 1): no more requests are ever
	// open than there are sessions.
	if slo[0].Class != "sessions" || slo[0].Outstanding > 3 {
		t.Errorf("SLO row %+v: want class sessions with at most 3 requests outstanding", slo[0])
	}
}

// TestAttachWorkloadRejectsBadFlows: a flow's terminal events find their
// site by (src, dst), so a flow may be listed only once; and a workload
// needs somewhere to run.
func TestAttachWorkloadRejectsBadFlows(t *testing.T) {
	_, svc := buildService(t, 3, 1, nil, DefaultConfig())
	classes := []workload.ClassSpec{e2eClass(0.3, 1, 0.35)}
	if _, err := svc.AttachWorkload(classes, [][2]int{{0, 2}, {0, 2}}); err == nil {
		t.Error("duplicate flow accepted")
	}
	if _, err := svc.AttachWorkload(classes, nil); err == nil {
		t.Error("no flows accepted")
	}
}
