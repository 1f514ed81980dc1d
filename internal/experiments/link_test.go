package experiments

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// newLink builds the paper's two-node Lab link with the QBER matcher wired,
// as runProtocolTrial does.
func newLink(t *testing.T, seed int64) (*netsim.Network, *netsim.Link, *qberMatcher) {
	t.Helper()
	cfg := netsim.DefaultConfig(netsim.Chain(2), nv.ScenarioLab)
	cfg.Seed = seed
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := nw.Links[0]
	matcher := newQBERMatcher(link)
	nw.OnLinkOK = matcher.onLinkOK
	return nw, link, matcher
}

// submitAt schedules a request submission at a given simulated time.
func submitAt(nw *netsim.Network, link *netsim.Link, at sim.Duration, role string, req egp.CreateRequest) {
	sim.Schedule(nw.Sim, at, func() { nw.Submit(link, role, req) })
}

// labTrial builds a runner trial's Lab link for the given classes.
func labTrial(seed int64, classes []workload.ClassSpec) *netsim.Network {
	nw, _ := protocolLink(Options{Seed: seed}, Trial{Runner: "test", Scenario: nv.ScenarioLab}, classes, nil)
	return nw
}

func TestGeneratorIssuesRequests(t *testing.T) {
	nw := labTrial(3, workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 3))
	nw.Run(2 * sim.Second)
	link := nw.Links[0]

	submitted := int(link.Submitted)
	if submitted == 0 {
		t.Fatal("the runner's classes should issue requests at Ultra load within 2 s")
	}
	if link.Account.Pairs(egp.PriorityMD) == 0 {
		t.Fatal("generated requests should produce pairs")
	}
	// With f = 1.5 the queue grows, so submissions should at least match
	// completed requests.
	completed := link.Account.RequestLatency(egp.PriorityMD).Count()
	if submitted < completed {
		t.Fatalf("bookkeeping inconsistent: %d submitted < %d completed", submitted, completed)
	}
}

func TestGeneratorOriginPolicy(t *testing.T) {
	classes := workload.SingleKind(egp.PriorityMD, workload.LoadUltra, 1)
	classes[0].Origin = workload.OriginB
	nw := labTrial(5, classes)
	nw.Run(1 * sim.Second)
	link := nw.Links[0]
	a, b := link.Account.Origin("A"), link.Account.Origin("B")
	if a.Pairs != 0 {
		t.Fatalf("origin policy B should never submit from A: %+v", a)
	}
	if b.Pairs == 0 {
		t.Fatal("origin policy B should deliver pairs attributed to B")
	}
}

// TestRunnerTrialFolds pins that the paper's runners reach the fold of
// failed attempts: a loss-free Lab MD trial at High load runs its attempts
// in under 0.01 events each, the bar netsim's TestFoldEngages sets for a
// lone Lab link, and makes the same attempts as attempt by attempt.
func TestRunnerTrialFolds(t *testing.T) {
	run := func(fold bool) (events, attempts uint64) {
		nw := labTrial(1, workload.SingleKind(egp.PriorityMD, workload.LoadHigh, 3))
		nw.Links[0].Mid.SetFolding(fold)
		nw.Run(sim.Second)
		return nw.Sim.Executed(), nw.Attempts()
	}
	events, attempts := run(true)
	refEvents, refAttempts := run(false)
	if attempts != refAttempts || attempts < 10000 {
		t.Fatalf("%d attempts, attempt by attempt %d", attempts, refAttempts)
	}
	perAttempt := float64(events) / float64(attempts)
	if perAttempt >= 0.01 {
		t.Fatalf("%.4f events per attempt (%d events, %d attempts), want under 0.01", perAttempt, events, attempts)
	}
	t.Logf("%d events for %d attempts (%.4f per attempt); attempt by attempt %d events", events, attempts, perAttempt, refEvents)
}

func TestQBERAccountingForMD(t *testing.T) {
	nw, link, matcher := newLink(t, 23)
	submitAt(nw, link, 0, "A", egp.CreateRequest{
		NumPairs:    80,
		Keep:        false,
		MinFidelity: 0.6,
		Priority:    egp.PriorityMD,
	})
	nw.Run(30 * sim.Second)
	q := &matcher.qber[egp.PriorityMD]
	if q.Samples() < 40 {
		t.Fatalf("MD runs should accumulate QBER samples, got %d", q.Samples())
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
	nw, link, _ := newLink(t, 29)
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
	a, b := link.Account.Origin("A"), link.Account.Origin("B")
	if a.Pairs == 0 || b.Pairs == 0 {
		t.Fatalf("both origins should be served: A %+v, B %+v", a, b)
	}
	rep := originFairness(a, b, link.Account.DurationSeconds())
	if rep.pairs > 0.5 {
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

func TestRelativeDifference(t *testing.T) {
	if relativeDifference(0, 0) != 0 {
		t.Fatal("0,0 should be 0")
	}
	if got := relativeDifference(10, 8); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("reldiff(10,8) = %v, want 0.2", got)
	}
	if got := relativeDifference(8, 10); math.Abs(got-0.2) > 1e-12 {
		t.Fatal("relative difference should be symmetric")
	}
	if got := relativeDifference(-4, 4); math.Abs(got-2) > 1e-12 {
		t.Fatalf("reldiff(-4,4) = %v, want 2", got)
	}
}

// Property: relative difference is symmetric and in [0, 1] for
// non-negative values.
func TestPropertyRelativeDifference(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		d1 := relativeDifference(a, b)
		d2 := relativeDifference(b, a)
		if math.Abs(d1-d2) > 1e-12 {
			return false
		}
		if a >= 0 && b >= 0 {
			return d1 >= 0 && d1 <= 1+1e-12
		}
		return d1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFairness compares two origins: equal service gives zero relative
// differences, and each metric is compared on its own mean.
func TestFairness(t *testing.T) {
	a := netsim.OriginAccount{Pairs: 5, FidelitySum: 3.5, Completed: 5, LatencySum: 5}
	if rep := originFairness(a, a, 10); rep != (fairnessReport{}) {
		t.Fatalf("balanced origins should have zero relative differences: %+v", rep)
	}
	b := netsim.OriginAccount{Pairs: 4, FidelitySum: 3.6, Completed: 2, LatencySum: 4}
	rep := originFairness(a, b, 10)
	want := fairnessReport{
		fidelity:   relativeDifference(0.7, 0.9),
		throughput: relativeDifference(0.5, 0.4),
		latency:    relativeDifference(1, 2),
		pairs:      relativeDifference(5, 4),
	}
	if rep != want {
		t.Fatalf("fairness = %+v, want %+v", rep, want)
	}
	if rep := originFairness(a, netsim.OriginAccount{}, 0); rep.throughput != 0 || rep.fidelity != 1 {
		t.Fatalf("an unserved origin over an empty interval: %+v", rep)
	}
}
