package network

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// e2eRun is what one run of the saturated repeater chain reports to the
// parity checks.
type e2eRun struct {
	events, attempts uint64
	requests         uint64
	pairs            int
	// stats renders every path row and the aggregate row.
	stats string
}

// runSaturatedChain drives a 4-hop repeater chain on Lab hardware (real
// memory decoherence) for one simulated second: Poisson end-to-end requests
// between the chain's ends, on top of one standing request that keeps every
// hop generating and the swap engine busy for the whole window. traced
// attaches one flight recorder and metrics registry to both netsim and the
// service.
func runSaturatedChain(t *testing.T, backend quantum.Backend, traced bool) e2eRun {
	t.Helper()
	ncfg := netsim.DefaultConfig(netsim.Chain(5), nv.ScenarioLab)
	ncfg.Seed = 1
	ncfg.HoldPairs = true
	ncfg.Backend = backend
	cfg := DefaultConfig()
	if traced {
		tracer, registry := obs.NewTracer(1, 1<<16), obs.NewRegistry()
		ncfg.Trace, ncfg.Metrics = tracer, registry
		cfg.Trace, cfg.Metrics = tracer, registry
	}
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AttachWorkload([]workload.ClassSpec{e2eClass(0.3, 1, 0.35)}, [][2]int{{0, 4}}); err != nil {
		t.Fatal(err)
	}
	if _, code := svc.Create(CreateRequest{SrcNode: 0, DstNode: 4, NumPairs: 4096, MinFidelity: 0.35}); code != wire.ErrNone {
		t.Fatalf("standing request rejected: %v", code)
	}
	nw.Run(sim.DurationSeconds(1))
	svc.FinishAt(nw.Sim.Now())
	perPath, agg := svc.Stats()
	return e2eRun{
		events:   nw.Sim.Executed(),
		attempts: nw.Attempts(),
		requests: agg.Requests,
		pairs:    agg.Pairs,
		stats:    fmt.Sprintf("%+v\n%+v", perPath, agg),
	}
}

// TestE2EBackendAndTraceParity: the backend changes how a pair's state is
// represented, never which events fire, which attempts are sampled or which
// requests and pairs the service counts; and the observability layer, attached
// to netsim and the service at once, changes nothing at all.
func TestE2EBackendAndTraceParity(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-level experiment in short mode")
	}
	dense := runSaturatedChain(t, quantum.BackendDense, false)
	if dense.requests == 0 || dense.pairs == 0 {
		t.Fatalf("reference run did no end-to-end work: %+v", dense)
	}
	bell := runSaturatedChain(t, quantum.BackendBellDiagonal, false)
	if bell.events != dense.events || bell.attempts != dense.attempts || bell.requests != dense.requests || bell.pairs != dense.pairs {
		t.Errorf("counters differ across backends:\ndense    %d events, %d attempts, %d requests, %d pairs\nbelldiag %d events, %d attempts, %d requests, %d pairs",
			dense.events, dense.attempts, dense.requests, dense.pairs, bell.events, bell.attempts, bell.requests, bell.pairs)
	}
	if traced := runSaturatedChain(t, quantum.BackendDense, true); traced != dense {
		t.Errorf("tracing perturbed the run:\nuntraced %+v\ntraced   %+v", dense, traced)
	}
}

// TestNewServiceRejectsShardedNetwork: the end-to-end service is serial-only;
// a sharded network must fail loudly instead of silently running serial.
func TestNewServiceRejectsShardedNetwork(t *testing.T) {
	ncfg := netsim.DefaultConfig(netsim.Chain(5), nv.ScenarioLab)
	ncfg.HoldPairs = true
	ncfg.Shards = 2
	nw, err := netsim.NewNetwork(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(nw, DefaultConfig()); err == nil {
		t.Fatal("NewService accepted a 2-shard network")
	}
}
