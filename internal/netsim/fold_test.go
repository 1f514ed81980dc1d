package netsim_test

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// foldCase is one single-link configuration the fold of failed attempts is
// checked on: a scenario spec, how long it runs, and how.
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
}

// labSpec is a 2-node Lab link spec with the given protocol section (may be
// empty), traffic classes and faults section (may be empty).
func labSpec(protocol, classes, faults string) string {
	s := `{"name": "fold", "topology": {"kind": "chain", "nodes": 2}`
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
	}
}

// foldRun is what one run of a fold comparison observes.
type foldRun struct {
	// log is the link's counters, the result tables and the pairs still
	// stored on the devices; records are the non-sim trace records in order.
	log              []string
	records          []obs.Record
	events, attempts uint64
	errors, stored   int
}

// runFold runs one case at one seed, folding or attempt by attempt.
func runFold(t *testing.T, tc foldCase, seed int64, fold bool) foldRun {
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
	var tracer *obs.Tracer
	if !tc.untraced {
		tracer = obs.NewTracer(1, 1<<17)
		c.Config.Trace = tracer
	}
	nw, err := netsim.NewNetwork(c.Config)
	if err != nil {
		t.Fatal(err)
	}
	l := nw.Links[0]
	l.Mid.SetFolding(fold)
	mt, err := c.Attach(nw)
	if err != nil {
		t.Fatal(err)
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
	var r foldRun
	r.events, r.attempts = nw.Sim.Executed(), nw.Attempts()
	matched, successes, timeMismatch, queueMismatch, noOther := l.Mid.Stats()
	r.log = append(r.log,
		fmt.Sprintf("attempts %d ticks %d polls %d sampled %d evicted %d", nw.Attempts(), nw.ClockTicks(), nw.Polls(), l.Sampler.Attempts(), l.Registry.Evicted()),
		fmt.Sprintf("station %d %d %d %d %d", matched, successes, timeMismatch, queueMismatch, noOther),
		fmt.Sprintf("nodes %d %d polled %d %d", l.MHPA.Attempts(), l.MHPB.Attempts(), l.MHPA.PolledCycle(), l.MHPB.PolledCycle()),
		fmt.Sprint(l.EGPA.Stats()), fmt.Sprint(l.EGPB.Stats()),
		fmt.Sprint(l.EGPA.QMM().Stats()), fmt.Sprint(l.EGPB.QMM().Stats()))
	perLink, agg := nw.Stats()
	r.log = append(r.log, fmt.Sprintf("%+v", perLink), fmt.Sprintf("%+v", agg), fmt.Sprintf("%+v", mt.SLO(tc.seconds)))
	for _, p := range append(l.DeviceA.OccupiedPairs(), l.DeviceB.OccupiedPairs()...) {
		r.log = append(r.log, fmt.Sprintf("stored %v", p.Fidelity()))
		r.stored++
	}
	_, _, errA, _, _ := l.EGPA.Stats()
	_, _, errB, _, _ := l.EGPB.Stats()
	r.errors = int(errA + errB)
	if tracer != nil {
		if d := tracer.Dropped(); d != 0 {
			t.Fatalf("tracer overwrote %d records", d)
		}
		for _, rec := range tracer.Records() {
			if rec.Layer != obs.LayerSim {
				r.records = append(r.records, rec)
			}
		}
	}
	return r
}

// TestFoldMatchesPerAttempt is the fold's oracle: on a single Lab link, over
// 20 seeds per case, a run that folds its failed attempts must leave every
// counter, every result table, the stored pairs and every non-sim trace
// record exactly as the same run attempt by attempt, and must have folded.
func TestFoldMatchesPerAttempt(t *testing.T) {
	const seeds = 20
	for _, tc := range foldCases() {
		t.Run(tc.name, func(t *testing.T) {
			var events, refEvents, attempts uint64
			errors, stored := 0, 0
			for seed := int64(1); seed <= seeds; seed++ {
				got, want := runFold(t, tc, seed, true), runFold(t, tc, seed, false)
				if len(got.log) != len(want.log) {
					t.Fatalf("seed %d: %d log lines, attempt by attempt %d", seed, len(got.log), len(want.log))
				}
				for i := range want.log {
					if got.log[i] != want.log[i] {
						t.Fatalf("seed %d: line %d differs\nfolded:     %s\nper attempt: %s", seed, i, got.log[i], want.log[i])
					}
				}
				if len(got.records) != len(want.records) {
					t.Fatalf("seed %d: %d trace records, attempt by attempt %d", seed, len(got.records), len(want.records))
				}
				for i, rec := range want.records {
					if got.records[i] != rec {
						t.Fatalf("seed %d: record %d differs\nfolded:      %+v\nper attempt: %+v", seed, i, got.records[i], rec)
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
// like link-sat must run its attempts in under 0.01 events each, while a
// lossy link, a QL2020 link and a 3-node chain, which keep the per-attempt
// path, must fire exactly as many events as with the fold off.
func TestFoldEngages(t *testing.T) {
	class := `{"name": "md", "priority": "MD", "arrival": {"kind": "closed", "sessions": 4, "think_time_s": 0.001}, "min_pairs": 1, "max_pairs": 3}`
	chain3 := `{"name": "fold", "topology": {"kind": "chain", "nodes": 3}, "traffic": {"classes": [` + class + `]}}`
	ql2020 := `{"name": "fold", "topology": {"kind": "chain", "nodes": 2}, "hardware": {"scenario": "QL2020"},
		"traffic": {"classes": [` + class + `]}}`
	for _, tc := range []struct {
		name string
		spec string
		// folds: the fold must take the link below 0.01 events per
		// attempt; otherwise the fold must change no event count.
		folds bool
	}{
		{"lab", labSpec("", class, ""), true},
		{"lab-lossy", labSpec(`{"classical_loss": 0.001}`, class, ""), false},
		{"ql2020", ql2020, false},
		{"chain3", chain3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(fold bool) (events, attempts uint64) {
				spec, err := scenario.Parse([]byte(tc.spec), tc.name)
				if err != nil {
					t.Fatal(err)
				}
				c, err := spec.Compile()
				if err != nil {
					t.Fatal(err)
				}
				c.Config.Seed = 1
				nw, err := netsim.NewNetwork(c.Config)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range nw.Links {
					l.Mid.SetFolding(fold)
				}
				if _, err := c.Attach(nw); err != nil {
					t.Fatal(err)
				}
				nw.Run(sim.DurationSeconds(0.2))
				return nw.Sim.Executed(), nw.Attempts()
			}
			events, attempts := run(true)
			refEvents, refAttempts := run(false)
			if attempts != refAttempts || attempts < 10000 {
				t.Fatalf("%d attempts, attempt by attempt %d", attempts, refAttempts)
			}
			perAttempt := float64(events) / float64(attempts)
			if tc.folds {
				if perAttempt >= 0.01 {
					t.Fatalf("%.4f events per attempt (%d events, %d attempts), want under 0.01", perAttempt, events, attempts)
				}
			} else if events != refEvents {
				t.Fatalf("%d events with the fold on, %d with it off: the fold engaged where it must not", events, refEvents)
			}
			t.Logf("%.4f events per attempt, attempt by attempt %.4f", perAttempt, float64(refEvents)/float64(refAttempts))
		})
	}
}
