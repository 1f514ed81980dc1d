package network

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestE2ETraceSpans is the end-to-end acceptance check of the flight
// recorder at the network layer: a delivered 4-hop request must leave a
// CREATE-opened span containing its segment activations, swaps, corrections
// and pair deliveries in sim-time order, closed by a final OK, and the
// Chrome export of the whole trace must be valid JSON.
func TestE2ETraceSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	ncfg := netsim.DefaultConfig(netsim.Chain(5), nv.ScenarioLab)
	ncfg.Seed = 7
	ncfg.HoldPairs = true
	ncfg.Platform = idealMemoryPlatform()
	tracer := obs.NewTracer(1, 1<<16)
	registry := obs.NewRegistry()
	ncfg.Trace = tracer
	ncfg.Metrics = registry
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Trace = tracer
	cfg.Metrics = registry
	svc, err := NewService(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}

	id, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 2, MinFidelity: 0.35})
	if code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))
	svc.FinishAt(nw.Sim.Now())

	var span []obs.Record
	for _, r := range tracer.Records() {
		if r.Layer == obs.LayerNetwork && r.Track == uint64(id) {
			span = append(span, r)
		}
	}
	if len(span) == 0 {
		t.Fatal("request left no network-layer trace records")
	}
	if span[0].Kind != obs.KindE2ECreate || span[0].A != 0 || span[0].B != 4 {
		t.Fatalf("span does not open with CREATE(0,4): %+v", span[0])
	}
	last := span[len(span)-1]
	if last.Kind != obs.KindE2EDone {
		t.Fatalf("span does not close with OK: %+v", last)
	}
	counts := map[obs.Kind]int{}
	for i, r := range span {
		if i > 0 && r.At < span[i-1].At {
			t.Fatalf("span records out of sim-time order at %d: %+v after %+v", i, r, span[i-1])
		}
		counts[r.Kind]++
	}
	// 2 pairs over 4 hops: 4 segment activations and 3 swaps per pair, at
	// least one correction per delivered pair, one pair_ok each.
	if counts[obs.KindE2ESegment] < 8 {
		t.Errorf("span has %d segment_ok records, want >= 8", counts[obs.KindE2ESegment])
	}
	if counts[obs.KindE2ESwap] != 6 {
		t.Errorf("span has %d swap records, want 6", counts[obs.KindE2ESwap])
	}
	if counts[obs.KindE2ECorrection] < 2 {
		t.Errorf("span has %d correction records, want >= 2", counts[obs.KindE2ECorrection])
	}
	if counts[obs.KindE2EOK] != 2 {
		t.Errorf("span has %d pair_ok records, want 2", counts[obs.KindE2EOK])
	}

	// The registry's snapshot must agree with the span.
	snap := registry.Snapshot(nw.Sim.Now())
	for name, want := range map[string]uint64{"e2e.oks": 2, "e2e.swaps": 6, "e2e.fails": 0} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	if got := snap.Histograms["e2e.ttp_ns.nl"].Count; got != 2 {
		t.Errorf("e2e.ttp_ns.nl count = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
	for _, want := range []string{`"ph":"b"`, `"ph":"e"`, `"request"`, `"swap"`, `"correction"`, `"pair_ok"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace export is missing %s", want)
		}
	}
}

// TestE2ETraceTimeoutSpan: a request that expires must close its span with a
// TIMEOUT record carrying the link-layer error code, and the registry must
// count the failure.
func TestE2ETraceTimeoutSpan(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	ncfg := netsim.DefaultConfig(netsim.Chain(5), nv.ScenarioLab)
	ncfg.Seed = 4
	ncfg.HoldPairs = true
	ncfg.Platform = idealMemoryPlatform()
	tracer := obs.NewTracer(1, 1<<14)
	registry := obs.NewRegistry()
	ncfg.Trace = tracer
	ncfg.Metrics = registry
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Trace = tracer
	cfg.Metrics = registry
	svc, err := NewService(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	svc.OnError = func(ErrorEvent) { failed = true }
	// A deadline just above the completion estimate passes the feasibility
	// check but expires for this seed (same setup as the deadline test in
	// network_test.go).
	est := EstimatePathSeconds(mustPath(t, svc, 0, 4), 1, PerHopFidelityFloor(0.5, 4, 1))
	id, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 1, MinFidelity: 0.5,
		MaxTime: sim.DurationSeconds(est * 1.01)})
	if code != wire.ErrNone {
		t.Fatalf("Create returned %v", code)
	}
	nw.Run(sim.DurationSeconds(4))
	if !failed {
		t.Skip("request completed before its deadline under this seed; timeout path not exercised")
	}

	var span []obs.Record
	for _, r := range tracer.Records() {
		if r.Layer == obs.LayerNetwork && r.Track == uint64(id) {
			span = append(span, r)
		}
	}
	if len(span) < 2 {
		t.Fatalf("timed-out request left %d trace records, want >= 2", len(span))
	}
	if span[0].Kind != obs.KindE2ECreate {
		t.Fatalf("span does not open with CREATE: %+v", span[0])
	}
	last := span[len(span)-1]
	if last.Kind != obs.KindE2EFail {
		t.Fatalf("span does not close with TIMEOUT: %+v", last)
	}
	if wire.EGPError(last.B) != wire.ErrTimeout {
		t.Errorf("TIMEOUT record carries code %v, want %v", wire.EGPError(last.B), wire.ErrTimeout)
	}
	if got := registry.Snapshot(nw.Sim.Now()).Counters["e2e.fails"]; got != 1 {
		t.Errorf("e2e.fails = %d, want 1", got)
	}
}
