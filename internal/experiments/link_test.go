package experiments

import (
	"strconv"
	"testing"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newLink builds the paper's two-node Lab link with the QBER matcher wired,
// as runProtocolTrial does.
func newLink(t *testing.T, seed int64) (*netsim.Network, *netsim.Link) {
	t.Helper()
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab)
	cfg.Seed = seed
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := nw.Links[0]
	nw.OnLinkOK = newQBERMatcher(link).onLinkOK
	return nw, link
}

// submitAt schedules a request submission at a given simulated time.
func submitAt(nw *netsim.Network, link *netsim.Link, at sim.Duration, role string, req egp.CreateRequest) {
	sim.Schedule(nw.Sim, at, func() { nw.Submit(link, role, req) })
}

func TestGeneratorIssuesRequests(t *testing.T) {
	nw, link := newLink(t, 3)
	gen := newGenerator(nw, link, workload.OriginRandom, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 3))
	nw.Start()
	gen.start()
	nw.Run(2 * sim.Second)
	gen.stop()

	submitted := int(link.Submitted)
	if submitted == 0 {
		t.Fatal("the generator should issue requests at Ultra load within 2 s")
	}
	if link.Collector.OKCount(egp.PriorityMD) == 0 {
		t.Fatal("generated requests should produce pairs")
	}
	// With f = 1.5 the queue grows, so submissions should at least match
	// completed requests.
	completed := link.Collector.RequestLatency(egp.PriorityMD).Count()
	if submitted < completed {
		t.Fatalf("bookkeeping inconsistent: %d submitted < %d completed", submitted, completed)
	}
}

func TestGeneratorOriginPolicy(t *testing.T) {
	nw, link := newLink(t, 5)
	gen := newGenerator(nw, link, workload.OriginB, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 1))
	nw.Start()
	gen.start()
	nw.Run(1 * sim.Second)
	gen.stop()
	byOrigin := link.Collector.PairsByOrigin()
	if byOrigin["n0"] != 0 {
		t.Fatalf("origin policy B should never submit from A (n0): %v", byOrigin)
	}
	if byOrigin["n1"] == 0 {
		t.Fatal("origin policy B should deliver pairs attributed to B (n1)")
	}
}

func TestGeneratorStopHaltsArrivals(t *testing.T) {
	nw, link := newLink(t, 7)
	gen := newGenerator(nw, link, workload.OriginA, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 1))
	nw.Start()
	gen.start()
	nw.Run(500 * sim.Millisecond)
	gen.stop()
	before := link.Submitted
	nw.Run(500 * sim.Millisecond)
	if link.Submitted != before {
		t.Fatal("no requests should arrive after stop")
	}
}

func TestQBERAccountingForMD(t *testing.T) {
	nw, link := newLink(t, 23)
	submitAt(nw, link, 0, "A", egp.CreateRequest{
		NumPairs:    80,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	nw.Run(30 * sim.Second)
	q := link.Collector.QBER(egp.PriorityMD)
	if q == nil || q.Samples() < 40 {
		t.Fatalf("MD runs should accumulate QBER samples, got %v", q)
	}
	// The QBER-derived estimate must land in a physically sensible band:
	// well above random correlations and consistent with the heralded
	// fidelity (~0.65) minus readout noise, with sampling slack.
	est := q.FidelityEstimate()
	if est < 0.35 || est > 0.9 {
		t.Fatalf("QBER-derived fidelity estimate out of range: %v", est)
	}
}

func TestFairnessBetweenOrigins(t *testing.T) {
	nw, link := newLink(t, 29)
	for i := 0; i < 4; i++ {
		role := "A"
		if i%2 == 1 {
			role = "B"
		}
		submitAt(nw, link, sim.Duration(i)*sim.Millisecond, role, egp.CreateRequest{
			NumPairs:    2,
			Keep:        false,
			MinFidelity: 0.6,
			Priority:    egp.PriorityMD,
		})
	}
	nw.Run(6 * sim.Second)
	byOrigin := link.Collector.PairsByOrigin()
	if byOrigin["n0"] == 0 || byOrigin["n1"] == 0 {
		t.Fatalf("both origins should be served: %v", byOrigin)
	}
	rep := link.Collector.Fairness("n0", "n1")
	if rep.OKCountRelDiff > 0.5 {
		t.Fatalf("origin fairness badly violated: %+v", rep)
	}
}

// TestMetricsRunnerReportsQBERAndFairness runs the Sec. 6.2 runner at quick
// scale: the MD row's QBER-derived fidelity exists only if the matcher is
// wired into the runner's link, and every perf row has its fairness row.
func TestMetricsRunnerReportsQBERAndFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	opt := QuickOptions()
	// 6 simulated seconds give the MD row ≈60 pairs: enough QBER samples to
	// hold the estimate clear of the 0.5 of uncorrelated outcomes.
	opt.SimulatedSeconds = 6
	tables := RunSection62Metrics(opt)
	if len(tables) != 2 {
		t.Fatalf("expected perf and fairness tables, got %d", len(tables))
	}
	perf, fairness := tables[0], tables[1]
	if len(perf.Rows) != len(priorityOrder) || len(fairness.Rows) != len(priorityOrder) {
		t.Fatalf("expected one perf and one fairness row per kind: %d, %d", len(perf.Rows), len(fairness.Rows))
	}
	for i, row := range perf.Rows {
		if row[1] != fairness.Rows[i][1] {
			t.Errorf("row %d: perf kind %s has fairness kind %s", i, row[1], fairness.Rows[i][1])
		}
		if row[1] != egp.PriorityName(egp.PriorityMD) {
			continue
		}
		qber, err := strconv.ParseFloat(row[5], 64)
		if err != nil || qber <= 0.5 || qber > 1 {
			t.Errorf("MD row %v: QBER fidelity %q not in (0.5, 1]", row, row[5])
		}
	}
}
