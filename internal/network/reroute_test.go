package network

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// buildServiceSpec wires a network + service over an arbitrary topology,
// with optional netsim config tweaks (backend, ...).
func buildServiceSpec(t *testing.T, spec netsim.Spec, seed int64, platform *nv.Platform, tweak func(*netsim.Config), cfg Config) (*netsim.Network, *Service) {
	t.Helper()
	ncfg := netsim.DefaultConfig(spec, nv.ScenarioLab)
	ncfg.Seed = seed
	ncfg.HoldPairs = true
	ncfg.Platform = platform
	if tweak != nil {
		tweak(&ncfg)
	}
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw, svc
}

// ring4 is the smallest topology with path diversity: two disjoint 2-hop
// routes between every antipodal pair.
func ring4() netsim.Spec {
	s := netsim.FromEdges([]netsim.Edge{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 0}})
	s.Name = "ring-4"
	return s
}

// checkNoLeaks asserts the failure left nothing behind: every device memory
// slot free and every request-tracking map drained.
func checkNoLeaks(t *testing.T, nw *netsim.Network, svc *Service) {
	t.Helper()
	for _, l := range nw.Links {
		if n := len(l.DeviceA.OccupiedPairs()) + len(l.DeviceB.OccupiedPairs()); n != 0 {
			t.Errorf("link %s leaks %d stored pairs", l.Name, n)
		}
	}
	if n := len(svc.requests); n != 0 {
		t.Errorf("%d request states never garbage-collected", n)
	}
	if n := len(svc.pendingLink); n != 0 {
		t.Errorf("%d pending link segments leaked", n)
	}
	if n := len(svc.hopOwner); n != 0 {
		t.Errorf("%d hop CREATE registrations never retired", n)
	}
}

// TestRerouteDeliversAfterOutage is the robustness acceptance check: a
// request in flight on a ring loses a path link mid-run, reroutes onto the
// surviving side and still delivers within its original deadline — counting
// the reroute, not an error.
func TestRerouteDeliversAfterOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level outage experiment in short mode")
	}
	nw, svc := buildServiceSpec(t, ring4(), 7, idealMemoryPlatform(), nil, DefaultConfig())
	initial := mustPath(t, svc, 0, 2)
	if initial.Hops() != 2 {
		t.Fatalf("ring path 0-2 has %d hops, want 2", initial.Hops())
	}
	// Take down the first link of the route the router will pick, well
	// before the ~hundreds-of-ms expected completion, and never repair it.
	nw.ScheduleLinkState(initial.Links[0], sim.Time(0).Add(50*sim.Millisecond), netsim.LinkDown, nil)

	var oks []OKEvent
	var errs []ErrorEvent
	svc.OnOK = func(ev OKEvent) { oks = append(oks, ev) }
	svc.OnError = func(ev ErrorEvent) { errs = append(errs, ev) }

	deadline := sim.DurationSeconds(3)
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 2, NumPairs: 1,
		MinFidelity: 0.4, MaxTime: deadline}); code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))

	if len(errs) != 0 {
		t.Fatalf("request failed with %v instead of reroute-and-deliver", errs[0].Code)
	}
	if len(oks) != 1 || !oks[0].RequestDone {
		t.Fatalf("delivered %d pairs, want 1 completing the request", len(oks))
	}
	if oks[0].Hops != 2 {
		t.Errorf("rerouted delivery crossed %d hops, want 2 (other ring side)", oks[0].Hops)
	}
	if oks[0].PairLatency > deadline {
		t.Errorf("delivery took %v, past the original deadline %v", oks[0].PairLatency, deadline)
	}
	perPath, agg := svc.Stats()
	if agg.Completed != 1 || agg.Reroutes < 1 || agg.Retries < 1 {
		t.Errorf("reroute not accounted: %+v", agg)
	}
	// Stats stay pinned to the original path bucket, so churn is visible in
	// the reroute counters rather than as a phantom second path.
	if len(perPath) != 1 {
		t.Errorf("rerouted request opened %d path buckets, want 1", len(perPath))
	}
	// The repaths must have avoided the dead link.
	if down := initial.Links[0]; down.State() != netsim.LinkDown {
		t.Fatalf("test invariant broken: dead link repaired")
	}
	nw.Run(sim.DurationSeconds(2))
	checkNoLeaks(t, nw, svc)
}

// TestRerouteFailsFastNoRoute: on a chain there is no alternative route, so
// an outage must fail the in-flight request with NOROUTE within the retry
// backoff — milliseconds, not the request deadline — and release everything.
func TestRerouteFailsFastNoRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level outage experiment in short mode")
	}
	nw, svc := buildService(t, 3, 11, idealMemoryPlatform(), DefaultConfig())
	outageAt := sim.Time(0).Add(40 * sim.Millisecond)
	nw.ScheduleLinkState(nw.LinkBetween(1, 2), outageAt, netsim.LinkDown, nil)

	var oks []OKEvent
	var errs []ErrorEvent
	svc.OnOK = func(ev OKEvent) { oks = append(oks, ev) }
	svc.OnError = func(ev ErrorEvent) { errs = append(errs, ev) }
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 2, NumPairs: 1,
		MinFidelity: 0.4, MaxTime: sim.DurationSeconds(3)}); code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(2))

	if len(oks) != 0 {
		t.Fatalf("request completed despite the severed chain")
	}
	if len(errs) != 1 || errs[0].Code != wire.ErrNoRoute {
		t.Fatalf("want one NOROUTE failure, got %+v", errs)
	}
	// Fail-fast: the verdict arrives within the first retry backoff after
	// the outage, far ahead of the 3s deadline.
	if limit := outageAt.Add(sim.DurationSeconds(0.5)); errs[0].At > limit {
		t.Errorf("NOROUTE at %v, want fail-fast before %v", errs[0].At, limit)
	}
	_, agg := svc.Stats()
	if agg.Failed != 1 {
		t.Errorf("severed request not counted as failed: %+v", agg)
	}
	nw.Run(sim.DurationSeconds(2))
	checkNoLeaks(t, nw, svc)
}

// TestOutageReleasesResources sweeps both pair-state backends: several
// concurrent requests lose a path link mid-run, and whatever mix of
// reroute/complete/fail results, every request must terminate and no memory
// slot, segment or hop registration may leak.
func TestOutageReleasesResources(t *testing.T) {
	if testing.Short() {
		t.Skip("per-backend outage sweep in short mode")
	}
	for _, backend := range []quantum.Backend{quantum.BackendDense, quantum.BackendBellDiagonal} {
		backend := backend
		// The last name level dates from the timing wheel the engine ran
		// on; it is kept so the tests' IDs stay the same.
		t.Run(backend.String()+"/wheel", func(t *testing.T) {
			t.Parallel()
			nw, svc := buildServiceSpec(t, ring4(), 13, idealMemoryPlatform(),
				func(c *netsim.Config) { c.Backend = backend }, DefaultConfig())
			initial := mustPath(t, svc, 0, 2)
			nw.ScheduleLinkState(initial.Links[0], sim.Time(0).Add(60*sim.Millisecond), netsim.LinkDown, nil)

			outcomes := 0
			svc.OnOK = func(ev OKEvent) {
				if ev.RequestDone {
					outcomes++
				}
			}
			svc.OnError = func(ev ErrorEvent) { outcomes++ }
			const n = 3
			for i := 0; i < n; i++ {
				if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 2, NumPairs: 1,
					MinFidelity: 0.4, MaxTime: sim.DurationSeconds(3)}); code != wire.ErrNone {
					t.Fatalf("Create %d returned %v", i, code)
				}
			}
			nw.Run(sim.DurationSeconds(5))
			if outcomes != n {
				t.Fatalf("%d of %d requests terminated after the outage (must not hang)", outcomes, n)
			}
			// Let straggling link-layer OKs drain, then audit for leaks.
			nw.Run(sim.DurationSeconds(2))
			checkNoLeaks(t, nw, svc)
		})
	}
}
