package network

import (
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// idealMemoryPlatform returns the Lab hardware with infinite memory
// coherence and no attempt dephasing: generation and gate noise stay, but
// stored qubits do not decay. Used to validate the swap engine against the
// closed-form composition rule, which assumes noiseless storage.
func idealMemoryPlatform() *nv.Platform {
	p := nv.LabPlatform()
	p.Gates.ElectronT1 = math.Inf(1)
	p.Gates.ElectronT2 = math.Inf(1)
	p.Gates.CarbonT1 = math.Inf(1)
	p.Gates.CarbonT2 = math.Inf(1)
	p.CarbonCoupling = nv.CarbonCoupling{} // no per-attempt dephasing
	return p
}

// buildService wires a network + service over a chain with the given config
// tweaks applied.
func buildService(t *testing.T, nodes int, seed int64, platform *nv.Platform, cfg Config) (*netsim.Network, *Service) {
	t.Helper()
	ncfg := netsim.DefaultConfig(netsim.Chain(nodes), nv.ScenarioLab)
	ncfg.Seed = seed
	ncfg.HoldPairs = true
	ncfg.Platform = platform
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

// TestEndToEndClosedFormFidelity is the subsystem's acceptance check: over a
// 4-hop chain with idealised memories, twirled link pairs and an ideal BSM,
// every delivered end-to-end pair's true fidelity must equal the closed-form
// Werner composition of its consumed link fidelities to numerical precision.
func TestEndToEndClosedFormFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	nw, svc := buildService(t, 5, 7, idealMemoryPlatform(), DefaultConfig())
	var oks []OKEvent
	svc.OnOK = func(ev OKEvent) { oks = append(oks, ev) }

	const fmin = 0.35
	id, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 2, MinFidelity: fmin})
	if code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))
	svc.FinishAt(nw.Sim.Now())

	if len(oks) != 2 {
		t.Fatalf("delivered %d end-to-end pairs, want 2", len(oks))
	}
	for i, ev := range oks {
		if ev.RequestID != id || ev.Src != 0 || ev.Dst != 4 || ev.Hops != 4 {
			t.Errorf("OK %d has wrong coordinates: %+v", i, ev)
		}
		if math.Abs(ev.Fidelity-ev.Predicted) > 1e-9 {
			t.Errorf("OK %d: delivered fidelity %.12f != closed-form prediction %.12f", i, ev.Fidelity, ev.Predicted)
		}
		if ev.Fidelity < fmin {
			t.Errorf("OK %d: delivered fidelity %.4f below the requested floor %.2f", i, ev.Fidelity, fmin)
		}
		if ev.SwapLatency < 0 || ev.PairLatency <= 0 {
			t.Errorf("OK %d: nonsense latencies %+v", i, ev)
		}
	}
	if !oks[len(oks)-1].RequestDone {
		t.Errorf("last OK does not complete the request")
	}
	// 4 hops need 3 swaps per pair.
	if svc.Swaps() != 2*3 {
		t.Errorf("engine performed %d swaps, want 6", svc.Swaps())
	}
	// Completed requests must not leak qubits: with no outstanding requests
	// every link device ends empty.
	for _, l := range nw.Links {
		if n := len(l.DeviceA.OccupiedPairs()) + len(l.DeviceB.OccupiedPairs()); n != 0 {
			t.Errorf("link %s leaks %d stored pairs after completion", l.Name, n)
		}
	}
	// The per-hop CREATEs of a request with no priority run in the NL lane,
	// the paper's network-layer lane: every hop's origin-side account
	// holds its pairs there and nowhere else.
	for _, l := range nw.Links {
		a := &l.Account
		if a.Pairs(egp.PriorityNL) < 2 || a.Pairs(egp.PriorityCK) != 0 || a.Pairs(egp.PriorityMD) != 0 {
			t.Errorf("%s: NL/CK/MD pairs %d/%d/%d, want every per-hop pair in NL", l.Name,
				a.Pairs(egp.PriorityNL), a.Pairs(egp.PriorityCK), a.Pairs(egp.PriorityMD))
		}
	}
	perPath, agg := svc.Stats()
	if len(perPath) != 1 || perPath[0].Pairs != 2 || perPath[0].Completed != 1 {
		t.Errorf("path stats wrong: %+v", perPath)
	}
	if agg.Pairs != 2 || agg.OKRate <= 0 {
		t.Errorf("aggregate stats wrong: %+v", agg)
	}
}

// TestEndToEndRealisticMemoryDelivers runs the same chain on the unmodified
// Lab hardware: storage decoherence now erodes fidelity below the
// prediction, but pairs must still be delivered and accounted.
func TestEndToEndRealisticMemoryDelivers(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	nw, svc := buildService(t, 4, 5, nil, DefaultConfig())
	delivered := 0
	svc.OnOK = func(ev OKEvent) {
		delivered++
		if ev.Fidelity < 0 || ev.Fidelity > 1 || ev.Predicted < 0 || ev.Predicted > 1 {
			t.Errorf("fidelity out of range: %+v", ev)
		}
	}
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 3, NumPairs: 1, MinFidelity: 0.45}); code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))
	if delivered != 1 {
		t.Fatalf("delivered %d pairs on realistic hardware, want 1", delivered)
	}
}

// TestSingleHopDelivery checks the degenerate path: adjacent nodes deliver
// the link pair directly, with zero swaps.
func TestSingleHopDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	nw, svc := buildService(t, 3, 2, idealMemoryPlatform(), DefaultConfig())
	var oks []OKEvent
	svc.OnOK = func(ev OKEvent) { oks = append(oks, ev) }
	if _, code := svc.Create(CreateRequest{SrcNode: 1, DstNode: 2, NumPairs: 1, MinFidelity: 0.6}); code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(2))
	if len(oks) != 1 || oks[0].Hops != 1 {
		t.Fatalf("single-hop delivery broken: %+v", oks)
	}
	if svc.Swaps() != 0 {
		t.Fatalf("single hop performed %d swaps", svc.Swaps())
	}
	if math.Abs(oks[0].Fidelity-oks[0].Predicted) > 1e-9 {
		t.Fatalf("single-hop fidelity %.12f != prediction %.12f", oks[0].Fidelity, oks[0].Predicted)
	}
}

// TestCreateRejectsInfeasible covers the synchronous reject paths of the
// request API: unreachable fidelity floors, disconnected and out-of-range
// node pairs fail fast with NOROUTE, impossible deadlines with UNSUPP.
func TestCreateRejectsInfeasible(t *testing.T) {
	nw, svc := buildService(t, 4, 3, nil, DefaultConfig())
	var errs []ErrorEvent
	svc.OnError = func(ev ErrorEvent) { errs = append(errs, ev) }
	cases := []struct {
		req  CreateRequest
		want wire.EGPError
	}{
		{CreateRequest{SrcNode: 0, DstNode: 3, NumPairs: 1, MinFidelity: 0.95}, wire.ErrNoRoute},                              // floor unreachable across 3 hops
		{CreateRequest{SrcNode: 0, DstNode: 3, NumPairs: 4, MinFidelity: 0.5, MaxTime: sim.Millisecond}, wire.ErrUnsupported}, // deadline below any expected completion
		{CreateRequest{SrcNode: 0, DstNode: 9, NumPairs: 1, MinFidelity: 0.5}, wire.ErrNoRoute},                               // out of range
		{CreateRequest{SrcNode: 2, DstNode: 2, NumPairs: 1, MinFidelity: 0.5}, wire.ErrNoRoute},                               // trivial pair
	}
	for i, c := range cases {
		if _, code := svc.Create(c.req); code != c.want {
			t.Errorf("case %d: Create returned %v, want %v", i, code, c.want)
		}
	}
	if len(errs) != len(cases) {
		t.Errorf("expected %d error events, got %d", len(cases), len(errs))
	}
	_ = nw
}

// TestTimeoutReleasesResources submits a request whose deadline passes
// feasibility but expires mid-flight for the pinned seed, and checks the
// TIMEOUT failure plus that no qubits stay held afterwards.
func TestTimeoutReleasesResources(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	nw, svc := buildService(t, 5, 4, idealMemoryPlatform(), DefaultConfig())
	var errs []ErrorEvent
	done := 0
	svc.OnError = func(ev ErrorEvent) { errs = append(errs, ev) }
	svc.OnOK = func(ev OKEvent) {
		if ev.RequestDone {
			done++
		}
	}
	// The expected completion for 1 pair is a few hundred ms; a deadline just
	// above it fails for this seed while passing the feasibility check.
	est := EstimatePathSeconds(mustPath(t, svc, 0, 4), 1, PerHopFidelityFloor(0.5, 4, 1))
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 1, MinFidelity: 0.5,
		MaxTime: sim.DurationSeconds(est * 1.01)}); code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))
	if done == 0 && len(errs) == 0 {
		t.Fatalf("request neither completed nor failed")
	}
	if len(errs) > 0 && errs[0].Code != wire.ErrTimeout {
		t.Fatalf("failure code %v, want TIMEOUT", errs[0].Code)
	}
	// Whether it completed or timed out, nothing may stay held once the
	// remaining link-layer pairs drained.
	nw.Run(sim.DurationSeconds(2))
	for _, l := range nw.Links {
		if n := len(l.DeviceA.OccupiedPairs()) + len(l.DeviceB.OccupiedPairs()); n != 0 {
			t.Errorf("link %s leaks %d stored pairs after timeout", l.Name, n)
		}
	}
}

func mustPath(t *testing.T, svc *Service, src, dst int) Path {
	t.Helper()
	p, err := svc.Router().Path(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServiceDeterminism runs the same traffic-driven configuration twice
// and requires identical delivery sequences and statistics.
func TestServiceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	run := func() ([]OKEvent, PathStats) {
		nw, svc := buildService(t, 5, 21, idealMemoryPlatform(), DefaultConfig())
		var oks []OKEvent
		svc.OnOK = func(ev OKEvent) { oks = append(oks, ev) }
		if _, err := svc.AttachWorkload([]workload.ClassSpec{e2eClass(0.5, 2, 0.4)}, [][2]int{{0, 4}, {1, 3}}); err != nil {
			t.Fatal(err)
		}
		nw.Run(sim.DurationSeconds(3))
		svc.FinishAt(nw.Sim.Now())
		_, agg := svc.Stats()
		return oks, agg
	}
	oks1, agg1 := run()
	oks2, agg2 := run()
	if len(oks1) == 0 {
		t.Fatalf("traffic-driven run delivered nothing")
	}
	if len(oks1) != len(oks2) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(oks1), len(oks2))
	}
	for i := range oks1 {
		if oks1[i] != oks2[i] {
			t.Fatalf("OK %d differs between runs:\n%+v\n%+v", i, oks1[i], oks2[i])
		}
	}
	if agg1 != agg2 {
		t.Fatalf("aggregate stats differ:\n%+v\n%+v", agg1, agg2)
	}
}

// TestRouterCosts checks path choice under the three cost functions on a
// topology with a short noisy detour vs a longer path, plus the floor
// inversion round trip.
func TestRouterCosts(t *testing.T) {
	ncfg := netsim.DefaultConfig(netsim.Chain(4), nv.ScenarioLab)
	ncfg.HoldPairs = true
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hops", "fidelity", "rate", ""} {
		cost, ok := CostByName(nw, name)
		if !ok {
			t.Fatalf("CostByName(%q) failed", name)
		}
		r := NewRouter(nw, cost)
		p, err := r.Path(0, 3)
		if err != nil {
			t.Fatalf("cost %q: %v", name, err)
		}
		if p.Hops() != 3 || p.Nodes[0] != 0 || p.Nodes[3] != 3 {
			t.Errorf("cost %q: wrong chain path %v", name, p.Nodes)
		}
	}
	if _, ok := CostByName(nw, "bogus"); ok {
		t.Errorf("CostByName accepted bogus name")
	}
	// Floor inversion: composing hops copies of the per-hop floor recovers
	// the end-to-end floor.
	for _, hops := range []int{2, 3, 4} {
		floor := PerHopFidelityFloor(0.55, hops, 1)
		fids := make([]float64, hops)
		for i := range fids {
			fids[i] = floor
		}
		if got := quantum.ComposedSwapFidelity(fids...); math.Abs(got-0.55) > 1e-9 {
			t.Errorf("hops=%d: floor inversion yields %.6f, want 0.55", hops, got)
		}
	}
}

// TestLossyChannelsBoundedResources pins the loss-handling behaviour: under
// classical frame loss a deadlined request must terminate (complete or fail
// with TIMEOUT) instead of hanging, and once the link layer drains, no
// device may still hold a qubit — lost REPLYs cost retries, not stranded
// memory.
func TestLossyChannelsBoundedResources(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	ncfg := netsim.DefaultConfig(netsim.Chain(5), nv.ScenarioLab)
	ncfg.Seed = 9
	ncfg.HoldPairs = true
	ncfg.ClassicalLossProb = 0.01
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(nw, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	outcomes := 0
	svc.OnOK = func(ev OKEvent) {
		if ev.RequestDone {
			outcomes++
		}
	}
	svc.OnError = func(ev ErrorEvent) { outcomes++ }
	for i := 0; i < 3; i++ {
		if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 1, MinFidelity: 0.35,
			MaxTime: sim.DurationSeconds(1.5)}); code != wire.ErrNone {
			t.Fatalf("Create %d returned %v", i, code)
		}
	}
	nw.Run(sim.DurationSeconds(4))
	if outcomes != 3 {
		t.Fatalf("under loss, %d of 3 deadlined requests terminated (must not hang)", outcomes)
	}
	// Let straggling link-layer pairs drain, then verify nothing is held.
	nw.Run(sim.DurationSeconds(3))
	for _, l := range nw.Links {
		if n := len(l.DeviceA.OccupiedPairs()) + len(l.DeviceB.OccupiedPairs()); n != 0 {
			t.Errorf("link %s still holds %d pairs after drain", l.Name, n)
		}
	}
}

// TestNoisyGateFloorRejection pins the gate-fidelity edge of the floor
// inversion: a BSM at or below fidelity 1/4 destroys all entanglement, so
// multi-hop requests with a positive floor must be rejected rather than
// silently served without the gate adjustment. Synchronously rejected
// requests must also show up as offered-and-no-route in the path statistics.
func TestNoisyGateFloorRejection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SwapGateFidelity = 0.2
	nw, svc := buildService(t, 4, 6, nil, cfg)
	if floor := PerHopFidelityFloor(0.5, 3, 0.2); floor != 1 {
		t.Fatalf("PerHopFidelityFloor(0.5, 3, gate=0.2) = %g, want unreachable 1", floor)
	}
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 3, NumPairs: 1, MinFidelity: 0.5}); code != wire.ErrNoRoute {
		t.Fatalf("Create with destructive BSM returned %v, want NOROUTE", code)
	}
	perPath, agg := svc.Stats()
	if len(perPath) != 1 || perPath[0].Requests != 1 || perPath[0].NoRoute != 1 || perPath[0].Failed != 0 {
		t.Errorf("synchronous no-route reject missing from path stats: %+v", perPath)
	}
	if agg.Requests != 1 || agg.NoRoute != 1 || agg.Failed != 0 {
		t.Errorf("synchronous no-route reject missing from aggregate: %+v", agg)
	}
	_ = nw
}
