package netsim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/network"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// foldCase is one configuration the fold of failed attempts is checked on:
// a scenario spec, how long it runs, and how.
type foldCase struct {
	name    string
	spec    string
	seconds float64
	// untraced runs with the flight recorder off, so only the counters and
	// tables are compared.
	untraced bool
	// step, when set, drives the run through RunUntil calls this far apart.
	step sim.Duration
	// errors and stored require some seed's run to end with an EGP error,
	// or with a pair stored on a device: the case exercises deadlines, or
	// carbon dephasing.
	errors, stored bool
	// loose submits a request on every link from events scheduled on the
	// simulator itself, which belong to no link. Such a case runs serially
	// only: a sharded engine takes no event of its own.
	loose bool
	// service runs the spec's end-to-end service (network.Service) on its
	// flow, so the links fold in lockstep. It runs serially only: the
	// network layer refuses a sharded engine.
	service bool
}

// labSpec is a 2-node Lab link spec with the given protocol section (may be
// empty), traffic classes and faults section (may be empty).
func labSpec(protocol, classes, faults string) string {
	return chainSpec(2, protocol, classes, faults)
}

// chainSpec is a Lab chain of the given node count, like labSpec.
func chainSpec(nodes int, protocol, classes, faults string) string {
	s := fmt.Sprintf(`{"name": "fold", "topology": {"kind": "chain", "nodes": %d}`, nodes)
	if protocol != "" {
		s += `, "protocol": ` + protocol
	}
	s += `, "traffic": {"classes": [` + classes + `]}`
	if faults != "" {
		s += `, "faults": ` + faults
	}
	return s + "}"
}

// linkSatClass is link-sat's closed loop of MD sessions, at a lower fidelity
// floor so that a short run heralds a few pairs.
const linkSatClass = `{"name": "md", "priority": "MD", "arrival": {"kind": "closed", "sessions": 4, "think_time_s": 0.001},
	"min_pairs": 1, "max_pairs": 3, "min_fidelity": 0.5}`

// mixedClasses are chain8-mixed's open-loop MD and NL classes and its
// closed-loop CK sessions, at lower fidelity floors and deadlines a tenth of
// the spec's, so that a short run sees every class served.
const mixedClasses = `{"name": "metro-data", "priority": "MD", "arrival": {"kind": "poisson", "load": 0.45},
		"min_pairs": 1, "max_pairs": 2, "min_fidelity": 0.5, "deadline_s": 0.5},
	{"name": "net-layer", "priority": "NL", "arrival": {"kind": "poisson", "users": 2000000, "per_user_rate": 0.000004},
		"fixed_pairs": 1, "min_fidelity": 0.5, "deadline_s": 0.25, "origin": "A"},
	{"name": "keep-sessions", "priority": "CK", "arrival": {"kind": "closed", "sessions": 21, "think_time_s": 0.04},
		"fixed_pairs": 1, "min_fidelity": 0.5, "deadline_s": 1}`

// foldCases are the configurations of TestFoldMatchesPerAttempt.
func foldCases() []foldCase {
	return []foldCase{
		{name: "lab-md", spec: labSpec("", linkSatClass, ""), seconds: 0.12},
		{name: "lab-md-untraced", spec: labSpec("", linkSatClass, ""), seconds: 0.12, untraced: true},
		// Many RunUntil calls, most of which end inside a run of failures.
		{name: "lab-md-stepped", spec: labSpec("", linkSatClass, ""), seconds: 0.06, step: 23*sim.Microsecond + 300},
		// Deadlines far below the time a pair takes: requests expire inside
		// runs of failed attempts.
		{name: "lab-md-deadline", spec: labSpec("", `{"name": "md", "priority": "MD", "arrival": {"kind": "poisson", "load": 0.9},
			"min_pairs": 1, "max_pairs": 2, "min_fidelity": 0.5, "deadline_s": 0.08}`, ""), seconds: 0.25, errors: true},
		// Create-and-keep on the K grid, through the carbon
		// re-initialisation windows and the move to memory.
		{name: "lab-ck", spec: labSpec("", `{"name": "ck", "priority": "CK", "arrival": {"kind": "poisson", "load": 0.7},
			"fixed_pairs": 1, "min_fidelity": 0.5, "deadline_s": 0.05}`, ""), seconds: 0.12},
		// Held pairs: once a K pair sits in the carbon, every later attempt
		// dephases it.
		{name: "lab-ck-held", spec: labSpec(`{"hold_pairs": true}`, `{"name": "ck", "priority": "CK", "arrival": {"kind": "poisson", "load": 0.7},
			"fixed_pairs": 1, "min_fidelity": 0.5, "deadline_s": 0.05}`, ""), seconds: 0.12, stored: true},
		// Three classes under weighted fair queuing: the scheduler's pick
		// and its virtual time across folded runs.
		{name: "lab-wfq-mixed", spec: labSpec(`{"scheduler": "HigherWFQ"}`, linkSatClass+`,
			{"name": "ck", "priority": "CK", "arrival": {"kind": "poisson", "load": 0.3}, "fixed_pairs": 1, "min_fidelity": 0.5},
			{"name": "nl", "priority": "NL", "arrival": {"kind": "poisson", "load": 0.2}, "fixed_pairs": 1, "min_fidelity": 0.5}`, ""), seconds: 0.12},
		// A lossy, throttled Degraded stretch, then Down, then Up again.
		{name: "lab-degraded-down", spec: labSpec("", linkSatClass, `{"events": [
			{"at_s": 0.02, "state": "degraded", "link": [0, 1], "degrade": {"classical_loss": 0.01, "pair_fidelity": 0.9, "rate_divisor": 2}},
			{"at_s": 0.05, "state": "down", "link": [0, 1]},
			{"at_s": 0.07, "state": "up", "link": [0, 1]}]}`), seconds: 0.12},
		// Two links on one clock: each folds up to its own next event while
		// the other's run.
		{name: "chain3", spec: chainSpec(3, "", linkSatClass, ""), seconds: 0.08},
		// Eight links under chain8-mixed's MD, NL and CK classes.
		{name: "chain9-mixed", spec: chainSpec(9, "", mixedClasses, ""), seconds: 0.1, untraced: true},
		// One lossy link among loss-free ones, each folding up to its own
		// horizon.
		{name: "chain4-one-lossy", spec: chainSpec(4, "", linkSatClass, `{"events": [
			{"at_s": 0, "state": "degraded", "link": [1, 2], "degrade": {"classical_loss": 0.01}}]}`), seconds: 0.06},
		// Classical loss: the fold draws each cycle's frame losses, stops
		// before the first lost frame, and its REPLYs retire the stale
		// pending attempts the lost frames leave, oldest first.
		{name: "lab-md-lossy", spec: labSpec(`{"classical_loss": 0.001}`, linkSatClass, ""), seconds: 0.12},
		// chain8-ck-lossy's class at ten times its loss: lost K frames leave
		// one node waiting out its deadline, and stale K attempts pending.
		{name: "lab-ck-lossy", spec: labSpec(`{"classical_loss": 0.01}`, `{"name": "poisson", "priority": "CK",
			"arrival": {"kind": "poisson", "load": 0.7}, "max_pairs": 2, "min_fidelity": 0.64, "origin": "random"}`, ""), seconds: 0.12},
		// chain8-lossy's classes on eight links.
		{name: "chain9-mixed-lossy", spec: chainSpec(9, `{"classical_loss": 0.001}`, mixedClasses, ""), seconds: 0.1, untraced: true},
		// 5% loss over 0.15 s: the pending lists are never empty, and the
		// fold stops before each of the maintenance passes from cycle 5120
		// on, which drop the attempts more than 4,096 cycles old.
		{name: "lab-md-lossy-maintenance", spec: labSpec(`{"classical_loss": 0.05}`, linkSatClass, ""), seconds: 0.15},
		// NL requests, which preempt the MD sessions' head, from events that
		// belong to no link: while one is pending, every link folds only up
		// to the simulator's horizon.
		{name: "chain3-loose-submits", spec: chainSpec(3, `{"scheduler": "HigherWFQ"}`, linkSatClass, ""), seconds: 0.06, loose: true},
		// One link Degraded, then Down, then Up, among folding ones.
		{name: "chain4-one-degraded", spec: chainSpec(4, `{"hold_pairs": true}`, linkSatClass+`,
			{"name": "ck", "priority": "CK", "arrival": {"kind": "poisson", "load": 0.3}, "fixed_pairs": 1, "min_fidelity": 0.5}`, `{"events": [
			{"at_s": 0.02, "state": "degraded", "link": [1, 2], "degrade": {"pair_fidelity": 0.9, "rate_divisor": 2}},
			{"at_s": 0.05, "state": "down", "link": [1, 2]},
			{"at_s": 0.07, "state": "up", "link": [1, 2]}]}`), seconds: 0.09, stored: true},
		// The end-to-end service on e2e-chain5's chain: a swap at one node
		// consumes a pair on each of its links, so the links fold in
		// lockstep, and swapped pairs span two links' carbons.
		{name: "e2e-chain5", spec: serviceSpec("chain", 5, 4, ""), seconds: e2eSeconds, service: true, stored: true},
		// The same with one lossy link: the lockstep draws its frame
		// losses and stops every link before a cycle that loses a frame.
		{name: "e2e-chain5-one-lossy", spec: serviceSpec("chain", 5, 4, `{"events": [
			{"at_s": 0, "state": "degraded", "link": [1, 2], "degrade": {"classical_loss": 0.01}}]}`), seconds: e2eSeconds, service: true, stored: true},
		// A 3x3 grid routed corner to corner around a node outage, then
		// through a Degraded link.
		{name: "e2e-grid9-outage-degrade", spec: serviceSpec("grid", 9, 8, `{"events": [
			{"at_s": 0.02, "state": "down", "node": 4},
			{"at_s": 0.05, "state": "up", "node": 4},
			{"at_s": 0.07, "state": "degraded", "link": [4, 5], "degrade": {"pair_fidelity": 0.95, "rate_divisor": 2}},
			{"at_s": 0.1, "state": "up", "link": [4, 5]}]}`), seconds: e2eSeconds, service: true, stored: true},
	}
}

// e2eSeconds is how long the end-to-end service cases run.
const e2eSeconds = 0.12

// serviceSpec is a Lab topology of the given kind and node count that holds
// its pairs in two carbons per device, with the end-to-end service from
// node 0 to dst routed by hop count; faults may be empty. Two closed-loop NL
// classes at low fidelity floors keep its links busy, so that a short run
// swaps several pairs, and at different floors, so that neighbouring links
// attempt at different bright-state populations and dephase a swapped
// pair's two qubits by different amounts.
func serviceSpec(kind string, nodes, dst int, faults string) string {
	s := fmt.Sprintf(`{"name": "fold", "topology": {"kind": %q, "nodes": %d}, "protocol": {"hold_pairs": true},
		"hardware": {"memory_qubits": 2},
		"traffic": {"classes": [{"name": "e2e", "priority": "NL", "arrival": {"kind": "closed", "sessions": 2, "think_time_s": 0.001},
			"max_pairs": 1, "min_fidelity": 0.25},
			{"name": "e2e-hi", "priority": "NL", "arrival": {"kind": "closed", "sessions": 2, "think_time_s": 0.001},
			"max_pairs": 1, "min_fidelity": 0.45}]},
		"service": {"src": 0, "dst": %d, "cost": "hops"}`, kind, nodes, dst)
	if faults != "" {
		s += `, "faults": ` + faults
	}
	return s + "}"
}

// foldRun is what one run of a fold comparison observes.
type foldRun struct {
	// log is every link's counters, the result tables and the pairs still
	// stored on the devices. records are the non-sim trace records of each
	// (layer, track), a link's or its faults', in the order they were
	// written.
	log              []string
	records          map[recordStream][]obs.Record
	events, attempts uint64
	errors, stored   int
	links, shards    int
}

// recordStream names the records one link writes into one layer's ring.
type recordStream struct {
	layer obs.Layer
	track uint64
}

// runFold runs one case at one seed, on the given number of shards, folding
// or attempt by attempt.
func runFold(t *testing.T, tc foldCase, seed int64, shards int, fold bool) foldRun {
	t.Helper()
	spec, err := scenario.Parse([]byte(tc.spec), tc.name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c.Config.Seed = seed
	c.Config.Shards = shards
	var tracer *obs.Tracer
	if !tc.untraced {
		// An end-to-end case keeps several links attempting at once.
		capacity := 1 << 17
		if tc.service {
			capacity = 1 << 18
		}
		tracer = obs.NewTracer(shards, capacity)
		c.Config.Trace = tracer
	}
	nw, err := netsim.NewNetwork(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range nw.Links {
		l.Mid.SetFolding(fold)
	}
	if (c.Service != nil) != tc.service {
		t.Fatalf("service section %v, case service %v", c.Service != nil, tc.service)
	}
	var svc *network.Service
	var mt *netsim.MultiTraffic
	if tc.service {
		svc, mt = attachService(t, c, nw, tracer)
	} else if mt, err = c.Attach(nw); err != nil {
		t.Fatal(err)
	}
	if tc.loose {
		for _, at := range []sim.Time{sim.Time(10 * sim.Millisecond), sim.Time(20*sim.Millisecond + 7), sim.Time(30 * sim.Millisecond)} {
			sim.ScheduleAt(nw.Sim, at, func() {
				for _, l := range nw.Links {
					nw.Submit(l, "A", egp.CreateRequest{NumPairs: 1, MinFidelity: 0.7, Priority: egp.PriorityNL})
				}
			})
		}
	}
	end := sim.DurationSeconds(tc.seconds)
	if tc.step == 0 {
		nw.Run(end)
	} else {
		nw.Start()
		for at := sim.Time(0); at < sim.Time(end); {
			at = min(at.Add(tc.step), sim.Time(end))
			_ = nw.Sim.RunUntil(at)
		}
		nw.Run(0)
	}
	r := foldRun{links: len(nw.Links), shards: shards}
	r.events, r.attempts = nw.Sim.Executed(), nw.Attempts()
	r.log = append(r.log, fmt.Sprintf("attempts %d ticks %d polls %d", nw.Attempts(), nw.ClockTicks(), nw.Polls()))
	for _, l := range nw.Links {
		matched, successes, timeMismatch, queueMismatch, noOther := l.Mid.Stats()
		r.log = append(r.log,
			fmt.Sprintf("link %d sampled %d", l.ID, l.Sampler.Attempts()),
			fmt.Sprintf("station %d %d %d %d %d", matched, successes, timeMismatch, queueMismatch, noOther),
			fmt.Sprintf("nodes %d %d polled %d %d", l.MHPA.Attempts(), l.MHPB.Attempts(), l.MHPA.PolledCycle(), l.MHPB.PolledCycle()),
			fmt.Sprint(l.EGPA.Stats()), fmt.Sprint(l.EGPB.Stats()),
			fmt.Sprint(l.EGPA.QMM().Stats()), fmt.Sprint(l.EGPB.QMM().Stats()))
		for _, p := range append(l.DeviceA.OccupiedPairs(), l.DeviceB.OccupiedPairs()...) {
			r.log = append(r.log, fmt.Sprintf("stored %v", p.Fidelity()))
			r.stored++
		}
		_, _, errA, _, _ := l.EGPA.Stats()
		_, _, errB, _, _ := l.EGPB.Stats()
		r.errors += int(errA + errB)
	}
	perLink, agg := nw.Stats()
	r.log = append(r.log, fmt.Sprintf("%+v", perLink), fmt.Sprintf("%+v", agg), fmt.Sprintf("%+v", mt.SLO(tc.seconds)))
	if svc != nil {
		svc.FinishAt(nw.Sim.Now())
		perPath, pathAgg := svc.Stats()
		r.log = append(r.log, fmt.Sprintf("swaps %d", svc.Swaps()), fmt.Sprintf("%+v", perPath), fmt.Sprintf("%+v", pathAgg))
	}
	if tracer != nil {
		if d := tracer.Dropped(); d != 0 {
			t.Fatalf("tracer overwrote %d records", d)
		}
		r.records = make(map[recordStream][]obs.Record)
		for shard := range shards {
			for layer := obs.LayerSim + 1; int(layer) < obs.NumLayers; layer++ {
				for _, rec := range tracer.Ring(shard, layer).Records(nil) {
					k := recordStream{layer, rec.Track}
					r.records[k] = append(r.records[k], rec)
				}
			}
		}
	}
	return r
}

// attachService starts the compiled spec's end-to-end service on nw, with
// its fault plan and its classes on its flow, as repro run does.
func attachService(t *testing.T, c *scenario.Compiled, nw *netsim.Network, tracer *obs.Tracer) (*network.Service, *netsim.MultiTraffic) {
	t.Helper()
	cfg := network.DefaultConfig()
	cfg.SwapGateFidelity = c.Service.SwapGateFidelity
	cfg.Trace = tracer
	cost, ok := network.CostByName(nw, c.Service.Cost)
	if !ok {
		t.Fatalf("unknown cost %q", c.Service.Cost)
	}
	cfg.Cost = cost
	svc, err := network.NewService(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Faults != nil {
		if err := c.Faults.Schedule(nw); err != nil {
			t.Fatal(err)
		}
	}
	mt, err := svc.AttachWorkload(c.Classes, [][2]int{{c.Service.Src, c.Service.Dst}})
	if err != nil {
		t.Fatal(err)
	}
	return svc, mt
}

// sameRun fails the test at the first line or record in which got differs
// from want. A link writes the records of each layer in time order, and the
// fold writes a run's records before any later one of the link, so each
// stream must match in order. A record's place in its ring (Seq) is compared
// only on a lone link run on the same number of shards: elsewhere it depends
// on what else writes into the ring, other links or other shards' links.
func sameRun(t *testing.T, seed int64, label string, got, want foldRun) {
	t.Helper()
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d: %d log lines, %s %d", seed, len(got.log), label, len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: line %d differs\nfolded: %s\n%s: %s", seed, i, got.log[i], label, want.log[i])
		}
	}
	if len(got.records) != len(want.records) {
		t.Fatalf("seed %d: %d trace streams, %s %d", seed, len(got.records), label, len(want.records))
	}
	bySeq := got.links == 1 && got.shards == want.shards
	for k, recs := range want.records {
		g := got.records[k]
		if len(g) != len(recs) {
			t.Fatalf("seed %d: %d %v records on track %d, %s %d", seed, len(g), k.layer, k.track, label, len(recs))
		}
		for i, rec := range recs {
			gi := g[i]
			if !bySeq {
				gi.Seq, rec.Seq = 0, 0
			}
			if gi != rec {
				t.Fatalf("seed %d: %v record %d on track %d differs\nfolded: %+v\n%s: %+v", seed, k.layer, i, k.track, gi, label, rec)
			}
		}
	}
}

// TestFoldMatchesPerAttempt is the fold's oracle: over 20 seeds per case, a
// run that folds its failed attempts must leave every link's counters,
// every result table, the stored pairs and every non-sim trace record
// exactly as the same run attempt by attempt, and must have folded. The
// same run on 2 shards, untraced, must also fire exactly the serial run's
// events and leave the same counters and tables.
func TestFoldMatchesPerAttempt(t *testing.T) {
	const seeds = 20
	for _, tc := range foldCases() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var events, refEvents, attempts uint64
			errors, stored := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				got, want := runFold(t, tc, seed, 1, true), runFold(t, tc, seed, 1, false)
				sameRun(t, seed, "attempt by attempt", got, want)
				if !tc.loose && !tc.service {
					untraced := tc
					untraced.untraced = true
					sharded := runFold(t, untraced, seed, 2, true)
					got.records = nil
					sameRun(t, seed, "2 shards", sharded, got)
					if sharded.events != got.events {
						t.Fatalf("seed %d: %d events on 2 shards, %d serial", seed, sharded.events, got.events)
					}
				}
				events, refEvents, attempts = events+got.events, refEvents+want.events, attempts+want.attempts
				errors, stored = errors+want.errors, stored+want.stored
			}
			if tc.errors && errors == 0 || tc.stored && stored == 0 {
				t.Fatalf("%d errors and %d stored pairs over %d seeds: the case misses what it is for", errors, stored, seeds)
			}
			if attempts == 0 || events >= refEvents {
				t.Fatalf("%d events for %d attempts, attempt by attempt %d: the fold never engaged", events, attempts, refEvents)
			}
			t.Logf("%d attempts in %d events, attempt by attempt %d", attempts, events, refEvents)
		})
	}
}

// TestFoldEngages pins where the fold pays: a loss-free 2-node Lab MD link
// like link-sat must run its attempts in under 0.01 events each, and so must
// the links of a 3-node chain, on 1 shard and on 2 with the same event
// count (Executed counts no clock tick); a chain's links must fold past the
// 50 ms queue samples, which do not bound a fold; the links of a chain under
// the end-to-end service must fold in lockstep to under 0.1 events each; a
// lossy link at 0.1% loss, alone or among loss-free ones, must fold its
// failed attempts to under 0.5 events each; a QL2020 link, which keeps the
// per-attempt path, must fire exactly as many events as with the fold off.
func TestFoldEngages(t *testing.T) {
	class := `{"name": "md", "priority": "MD", "arrival": {"kind": "closed", "sessions": 4, "think_time_s": 0.001}, "min_pairs": 1, "max_pairs": 3}`
	chain3 := chainSpec(3, "", class, "")
	ql2020 := `{"name": "fold", "topology": {"kind": "chain", "nodes": 2}, "hardware": {"scenario": "QL2020"},
		"traffic": {"classes": [` + class + `]}}`
	type count struct {
		events, attempts uint64
		// reach is the longest a link's folded cycles reached past the
		// instant of a probe, when probed.
		reach sim.Duration
	}
	run := func(t *testing.T, spec string, shards int, fold, probe bool) count {
		t.Helper()
		parsed, err := scenario.Parse([]byte(spec), "fold")
		if err != nil {
			t.Fatal(err)
		}
		c, err := parsed.Compile()
		if err != nil {
			t.Fatal(err)
		}
		c.Config.Seed = 1
		c.Config.Shards = shards
		nw, err := netsim.NewNetwork(c.Config)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range nw.Links {
			l.Mid.SetFolding(fold)
		}
		if c.Service != nil {
			attachService(t, c, nw, nil)
		} else if _, err := c.Attach(nw); err != nil {
			t.Fatal(err)
		}
		var got count
		if probe {
			// Every millisecond, an event that bounds no fold reads how far
			// past it each link has polled.
			period := nw.Platform.CycleTime[nv.RequestMeasure]
			for _, l := range nw.Links {
				sim.Ticker(sim.Untracked(l.Eng), sim.Millisecond, func() {
					ahead := sim.Time(l.MHPA.PolledCycle()) * sim.Time(period)
					got.reach = max(got.reach, ahead.Sub(l.Eng.Now()))
				})
			}
		}
		nw.Run(sim.DurationSeconds(0.2))
		got.events, got.attempts = nw.Sim.Executed(), nw.Attempts()
		return got
	}
	for _, tc := range []struct {
		name   string
		spec   string
		shards int
		// perAttempt, when set, is the bound the fold must take the links'
		// events per attempt under; otherwise the fold must change no event
		// count.
		perAttempt float64
		// reach, when set, is how far past a probe's instant some link's
		// folded cycles must reach.
		reach sim.Duration
	}{
		{"lab", labSpec("", class, ""), 1, 0.01, 0},
		{"lab-lossy", labSpec(`{"classical_loss": 0.001}`, class, ""), 1, 0.5, 0},
		// Attempt by attempt, the lossy link alone would make about 0.67
		// events per attempt of the three links'.
		{"chain4-one-lossy", chainSpec(4, "", class, `{"events": [
			{"at_s": 0, "state": "degraded", "link": [1, 2], "degrade": {"classical_loss": 0.001}}]}`), 1, 0.2, 0},
		{"ql2020", ql2020, 1, 0, 0},
		{"chain3", chain3, 1, 0.01, 0},
		{"chain3-2-shards", chain3, 2, 0.01, 0},
		{"chain3-past-queue-samples", chain3, 1, 0, 50 * sim.Millisecond},
		{"e2e-chain5-lockstep", serviceSpec("chain", 5, 4, ""), 1, 0.1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.reach > 0 {
				if got := run(t, tc.spec, tc.shards, true, true); got.reach <= tc.reach {
					t.Fatalf("folds reached at most %v past a probe, want over %v", got.reach, tc.reach)
				} else {
					t.Logf("folds reached %v past a probe", got.reach)
				}
				return
			}
			got, ref := run(t, tc.spec, tc.shards, true, false), run(t, tc.spec, tc.shards, false, false)
			if got.attempts != ref.attempts || got.attempts < 10000 {
				t.Fatalf("%d attempts, attempt by attempt %d", got.attempts, ref.attempts)
			}
			perAttempt := float64(got.events) / float64(got.attempts)
			if tc.perAttempt > 0 {
				if perAttempt >= tc.perAttempt {
					t.Fatalf("%.4f events per attempt (%d events, %d attempts), want under %g", perAttempt, got.events, got.attempts, tc.perAttempt)
				}
			} else if got.events != ref.events {
				t.Fatalf("%d events with the fold on, %d with it off: the fold engaged where it must not", got.events, ref.events)
			}
			if tc.shards > 1 {
				if serial := run(t, tc.spec, 1, true, false); got != serial {
					t.Fatalf("%+v on %d shards, serial %+v", got, tc.shards, serial)
				}
			}
			t.Logf("%.4f events per attempt, attempt by attempt %.4f", perAttempt, float64(ref.events)/float64(ref.attempts))
		})
	}
}

// fuzzFoldCase decodes a fuzz input into a case of one or two Lab links
// (links), at a classical loss of 0, 0.1%, 1% or 5% (loss), under one class
// (class's bits: 0 create-and-keep, 1 held pairs, 2–3 up to 1–4 pairs per
// request, 4 a 20 ms deadline, 5 a closed loop of 1–4 sessions in place of
// Poisson arrivals; load picks the load or the sessions), run for 60 ms, so
// across the first maintenance pass.
func fuzzFoldCase(links, loss, class, load uint8) foldCase {
	var protocol []string
	if p := [4]float64{0, 0.001, 0.01, 0.05}[loss%4]; p > 0 {
		protocol = append(protocol, fmt.Sprintf(`"classical_loss": %g`, p))
	}
	if class&2 != 0 {
		protocol = append(protocol, `"hold_pairs": true`)
	}
	priority := "MD"
	if class&1 != 0 {
		priority = "CK"
	}
	arrival := fmt.Sprintf(`{"kind": "poisson", "load": %g}`, 0.1+0.1*float64(load%9))
	if class&32 != 0 {
		arrival = fmt.Sprintf(`{"kind": "closed", "sessions": %d, "think_time_s": 0.001}`, 1+load%4)
	}
	spec := fmt.Sprintf(`{"name": "c", "priority": %q, "arrival": %s, "min_pairs": 1, "max_pairs": %d, "min_fidelity": 0.5`,
		priority, arrival, 1+(class>>2)%4)
	if class&16 != 0 {
		spec += `, "deadline_s": 0.02`
	}
	var proto string
	if len(protocol) > 0 {
		proto = "{" + strings.Join(protocol, ", ") + "}"
	}
	return foldCase{name: "fuzz", spec: chainSpec(2+int(links%2), proto, spec+"}", ""), seconds: 0.06}
}

// FuzzFoldMatchesPerAttempt searches for a run in which folding the failed
// attempts of one or two lossy or loss-free Lab links (fuzzFoldCase) leaves
// a counter, table or non-sim trace record other than the same run attempt
// by attempt does. The seed corpus follows the oracle's lossy cases
// (TestFoldMatchesPerAttempt) and its chain3 case.
func FuzzFoldMatchesPerAttempt(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(32|2<<2), uint8(3))   // lab-md-lossy
	f.Add(int64(2), uint8(0), uint8(2), uint8(1|1<<2), uint8(6))    // lab-ck-lossy
	f.Add(int64(3), uint8(0), uint8(3), uint8(32|2<<2), uint8(3))   // lab-md-lossy-maintenance
	f.Add(int64(4), uint8(1), uint8(1), uint8(16|1<<2), uint8(4))   // chain9-mixed-lossy's MD class, with a deadline
	f.Add(int64(5), uint8(1), uint8(0), uint8(32|2|2<<2), uint8(3)) // chain3
	f.Fuzz(func(t *testing.T, seed int64, links, loss, class, load uint8) {
		tc := fuzzFoldCase(links, loss, class, load)
		sameRun(t, seed, "attempt by attempt", runFold(t, tc, seed, 1, true), runFold(t, tc, seed, 1, false))
	})
}
