package netsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// protocolLayers are the trace layers whose records must be identical at any
// shard count (the sim layer records engine batches and barrier windows,
// which depend on the shard count by nature).
var protocolLayers = []obs.Layer{obs.LayerMHP, obs.LayerEGP, obs.LayerNetsim}

// traceRun runs one traffic-driven chain under a flight recorder and returns
// the merged protocol-layer records with the ring-local Seq field cleared
// (rings are laid out per shard, so Seq values differ across shard counts
// even though the merged order does not).
func traceRun(t *testing.T, shards int, seconds float64) []obs.Record {
	t.Helper()
	cfg := DefaultConfig(Chain(8), nv.ScenarioLab)
	cfg.Seed = 7
	cfg.Shards = shards
	tracerShards := shards
	if tracerShards < 1 {
		tracerShards = 1
	}
	tracer := obs.NewTracer(tracerShards, 1<<17)
	cfg.Trace = tracer
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.7, 2, 0.64, false))
	nw.Run(sim.DurationSeconds(seconds))
	// The comparison needs the complete protocol record stream: an overwrite
	// would make the two sides retain different windows.
	for s := 0; s < tracerShards; s++ {
		for _, layer := range protocolLayers {
			if d := tracer.Ring(s, layer).Dropped(); d != 0 {
				t.Fatalf("shard %d %s ring overwrote %d records; raise the test capacity", s, layer, d)
			}
		}
	}
	var out []obs.Record
	for _, r := range tracer.Records() {
		if r.Layer == obs.LayerSim {
			continue
		}
		r.Seq = 0
		out = append(out, r)
	}
	if len(out) == 0 {
		t.Fatal("trace recorded no protocol records")
	}
	return out
}

// TestTraceShardParity is the tracer's determinism acceptance check: the
// merged protocol-layer record stream must be identical between the serial
// engine and the sharded engine at every shard count, because each link
// records into exactly one ring and the merge key (At, Layer, Track, Seq)
// does not depend on how links were partitioned.
func TestTraceShardParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-engine trace sweep in short mode")
	}
	const seconds = 0.02
	serial := traceRun(t, 1, seconds)
	for _, shards := range []int{2, 4} {
		sharded := traceRun(t, shards, seconds)
		if len(sharded) != len(serial) {
			t.Fatalf("%d shards: %d protocol records, serial recorded %d", shards, len(sharded), len(serial))
		}
		for i := range serial {
			if serial[i] != sharded[i] {
				t.Fatalf("%d shards: record %d diverges\nserial:  %+v\nsharded: %+v", shards, i, serial[i], sharded[i])
			}
		}
	}
}

// TestTraceDoesNotPerturb pins the zero-interference guarantee: attaching the
// tracer and the metrics registry must leave the rendered stats tables and
// the deterministic work counters byte-identical.
func TestTraceDoesNotPerturb(t *testing.T) {
	run := func(instrument bool) (string, uint64, uint64) {
		cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
		cfg.Seed = 11
		if instrument {
			cfg.Trace = obs.NewTracer(1, 1<<12)
			cfg.Metrics = obs.NewRegistry()
		}
		nw, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		attachPoisson(t, nw, workload.PoissonClass(0.7, 2, 0.64, false))
		nw.Run(sim.DurationSeconds(0.2))
		perLink, agg := nw.Stats()
		return render(perLink, agg), nw.Sim.Executed(), nw.Attempts()
	}
	plainStats, plainEvents, plainAttempts := run(false)
	obsStats, obsEvents, obsAttempts := run(true)
	if plainEvents == 0 || plainAttempts == 0 {
		t.Fatalf("reference run did no work: %d events, %d attempts", plainEvents, plainAttempts)
	}
	if obsStats != plainStats {
		t.Errorf("stats diverge under observability\n--- off ---\n%s--- on ---\n%s", plainStats, obsStats)
	}
	if obsEvents != plainEvents || obsAttempts != plainAttempts {
		t.Errorf("counters diverge under observability: %d/%d events, %d/%d attempts",
			obsEvents, plainEvents, obsAttempts, plainAttempts)
	}
}

// TestTraceChromeExport runs a traced chain and checks the exported trace is
// well-formed JSON carrying the expected per-layer event names.
func TestTraceChromeExport(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 3
	tracer := obs.NewTracer(1, 1<<14)
	cfg.Trace = tracer
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.7, 2, 0.64, false))
	nw.Run(sim.DurationSeconds(0.1))

	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exported trace is not valid JSON")
	}
	for _, want := range []string{`"attempt"`, `"submit"`, `"batch"`, `"thread_name"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("trace is missing %s events", want)
		}
	}
}

// TestTraceRejectsUndersizedTracer: a tracer with fewer shards than the
// engine must be rejected at build time, not silently drop records.
func TestTraceRejectsUndersizedTracer(t *testing.T) {
	cfg := DefaultConfig(Chain(8), nv.ScenarioLab)
	cfg.Shards = 4
	cfg.Trace = obs.NewTracer(1, 1<<12)
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("4-shard engine accepted a 1-shard tracer")
	}
}

// TestLinkCountsMatchTheirRecords checks the EGP's own counts, which the
// link's Errors and Expires and the registry's egp.* counters read, against
// the flight recorder: one error, OK or EXPIRE record per counted event, on
// a lossy chain where lost REPLYs make the ends exchange EXPIREs.
func TestLinkCountsMatchTheirRecords(t *testing.T) {
	cfg := DefaultConfig(Chain(3), nv.ScenarioLab)
	cfg.Seed = 2
	cfg.ClassicalLossProb = 0.05
	tracer := obs.NewTracer(1, 1<<14)
	registry := obs.NewRegistry()
	cfg.Trace, cfg.Metrics = tracer, registry
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.9, 3, 0.64, false))
	nw.Run(sim.DurationSeconds(3))
	if d := tracer.Ring(0, obs.LayerEGP).Dropped(); d != 0 {
		t.Fatalf("EGP ring overwrote %d records; raise the test capacity", d)
	}
	type counts struct{ oks, errs, expSent, expRecv uint64 }
	recorded := make([]counts, len(nw.Links))
	for _, r := range tracer.Records() {
		if r.Layer != obs.LayerEGP {
			continue
		}
		c := &recorded[r.Track]
		switch r.Kind {
		case obs.KindEGPOK:
			c.oks++
		case obs.KindEGPError:
			c.errs++
		case obs.KindEGPExpire:
			if r.B == 0 {
				c.expSent++
			} else {
				c.expRecv++
			}
		}
	}
	var total counts
	for i, l := range nw.Links {
		_, okA, _, _, _ := l.EGPA.Stats()
		_, okB, _, _, _ := l.EGPB.Stats()
		got := counts{oks: okA + okB, errs: l.Errors()}
		rec := recorded[i]
		if got.oks != rec.oks || got.errs != rec.errs || l.Expires() != rec.expSent+rec.expRecv {
			t.Errorf("%s: oks %d, errors %d, expires %d; records %+v", l.Name, got.oks, got.errs, l.Expires(), rec)
		}
		total.oks += rec.oks
		total.errs += rec.errs
		total.expSent += rec.expSent
		total.expRecv += rec.expRecv
	}
	if total.expSent == 0 {
		t.Fatal("no EXPIRE was sent: the run does not exercise the EXPIRE counts")
	}
	snap := registry.Snapshot(nw.Sim.Now())
	want := map[string]uint64{"egp.oks": total.oks, "egp.errors": total.errs, "egp.expires": total.expSent}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, records say %d", name, snap.Counters[name], v)
		}
	}
}
