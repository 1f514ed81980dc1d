package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/quantum"
)

// quickOpts keeps harness tests fast: a short simulated window is enough to
// exercise every measurement pass.
func quickOpts(parallel int) Options {
	return Options{SimSeconds: 0.04, Trials: 2, Seed: 1, Parallelism: parallel}
}

func TestRegistryHasAllScenarios(t *testing.T) {
	want := []string{"single-link", "chain-8", "grid-3x3", "chain-16", "e2e-4hop", "chain-256", "dragonfly-d3"}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("scenario %d is %q, want %q", i, got[i].Name, name)
		}
		if _, ok := ScenarioByName(name); !ok {
			t.Fatalf("ScenarioByName(%q) not found", name)
		}
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Fatal("ScenarioByName returned a scenario for an unknown name")
	}
}

// The emitted JSON must be byte-identical at any -parallel level: every
// deterministic field depends only on the seed, and the host-dependent
// wall-clock section is opt-in. The alloc fields are left out here: they diff
// process-global runtime.MemStats, which the neighbouring parallel subtests'
// allocations leak into; TestAllocMeasurementRepeats checks them alone.
func TestResultDeterministicAcrossParallelism(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(sc, quickOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Run(sc, quickOpts(4))
			if err != nil {
				t.Fatal(err)
			}
			if serial.AllocsPerAttempt < 0 || serial.BytesPerAttempt < 0 {
				t.Fatalf("allocs/attempt = %v, bytes/attempt = %v, expected non-negative measurements", serial.AllocsPerAttempt, serial.BytesPerAttempt)
			}
			a, err := withoutAllocs(serial).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			b, err := withoutAllocs(parallel).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("JSON differs between parallel levels:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
			}
			if serial.Totals.Events == 0 || serial.Totals.Attempts == 0 {
				t.Fatalf("scenario did no work: %+v", serial.Totals)
			}
		})
	}
}

func withoutAllocs(r Result) Result {
	r.AllocsPerAttempt, r.BytesPerAttempt = 0, 0
	return r
}

// TestAllocMeasurementRepeats checks the alloc pass on its own: no
// t.Parallel, so no other test of this package runs while it reads MemStats,
// and the pass must then read the same value at any -parallel level. The
// slack admits a few stray runtime allocations (a few thousand attempts are
// measured), far below what a neighbouring test adds.
func TestAllocMeasurementRepeats(t *testing.T) {
	sc, _ := ScenarioByName("single-link")
	serial, err := Run(sc, quickOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(sc, quickOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.AllocsPerAttempt-parallel.AllocsPerAttempt) > 0.01 || math.Abs(serial.BytesPerAttempt-parallel.BytesPerAttempt) > 1 {
		t.Fatalf("alloc pass differs between parallel levels: %v allocs, %v B vs %v allocs, %v B per attempt",
			serial.AllocsPerAttempt, serial.BytesPerAttempt, parallel.AllocsPerAttempt, parallel.BytesPerAttempt)
	}
}

func TestResultJSONValidAndStable(t *testing.T) {
	sc, _ := ScenarioByName("single-link")
	res, err := Run(sc, quickOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	for _, key := range []string{"schema", "scenario", "config", "totals", "rates", "allocs_per_attempt", "bytes_per_attempt"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("emitted JSON lacks %q:\n%s", key, data)
		}
	}
	if _, ok := decoded["wall_clock"]; ok {
		t.Fatal("wall_clock present without opting in")
	}

	dir := t.TempDir()
	path, err := res.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_single-link.json" {
		t.Fatalf("wrote %s, want BENCH_single-link.json", path)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back != res {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, res)
	}
}

func TestWallClockOptIn(t *testing.T) {
	sc, _ := ScenarioByName("single-link")
	opts := quickOpts(1)
	opts.WallClock = true
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallClock == nil || res.WallClock.EventsPerWallSec <= 0 {
		t.Fatalf("wall-clock section missing or empty: %+v", res.WallClock)
	}
}

func baselinePair() (Result, Result) {
	base := Result{
		Schema:           SchemaVersion,
		Scenario:         "single-link",
		Config:           RunConfig{Seed: 1, Trials: 3, SimSeconds: 1},
		AllocsPerAttempt: 20,
		WallClock:        &WallClock{SimSecPerWallSec: 10},
	}
	fresh := base
	fresh.WallClock = &WallClock{SimSecPerWallSec: 10}
	return base, fresh
}

func TestCompareGate(t *testing.T) {
	t.Run("pass within tolerance", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.AllocsPerAttempt = 23                       // +15%
		fresh.WallClock = &WallClock{SimSecPerWallSec: 9} // -10%
		regs, err := Compare(base, fresh, 0.20)
		if err != nil || len(regs) != 0 {
			t.Fatalf("want clean pass, got regs=%v err=%v", regs, err)
		}
	})
	t.Run("alloc regression fails", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.AllocsPerAttempt = 25 // +25%
		regs, err := Compare(base, fresh, 0.20)
		if err != nil || len(regs) != 1 || !strings.Contains(regs[0], "allocs/attempt") {
			t.Fatalf("want one alloc regression, got regs=%v err=%v", regs, err)
		}
	})
	t.Run("throughput regression fails", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.WallClock = &WallClock{SimSecPerWallSec: 7} // -30%
		regs, err := Compare(base, fresh, 0.20)
		if err != nil || len(regs) != 1 || !strings.Contains(regs[0], "sim-sec/wall-sec") {
			t.Fatalf("want one throughput regression, got regs=%v err=%v", regs, err)
		}
	})
	t.Run("missing wall clock skips throughput gate", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.WallClock = nil
		regs, err := Compare(base, fresh, 0.20)
		if err != nil || len(regs) != 0 {
			t.Fatalf("want skip, got regs=%v err=%v", regs, err)
		}
	})
	t.Run("config mismatch is an error", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.Config.SimSeconds = 2
		if _, err := Compare(base, fresh, 0.20); err == nil {
			t.Fatal("want config-mismatch error")
		}
	})
	t.Run("scenario mismatch is an error", func(t *testing.T) {
		base, fresh := baselinePair()
		fresh.Scenario = "chain-8"
		if _, err := Compare(base, fresh, 0.20); err == nil {
			t.Fatal("want scenario-mismatch error")
		}
	})
}

// The deterministic counters must be identical on both pair-state backends:
// the backend changes how a pair's state is represented, never which events
// fire, which attempts are sampled or which pairs are delivered. This is the
// whole-stack parity check behind "-backend=belldiag leaves the committed
// counters unchanged".
func TestBackendCountersParity(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			dense := quickOpts(2)
			dense.Backend = quantum.BackendDense
			bell := quickOpts(2)
			bell.Backend = quantum.BackendBellDiagonal
			dres, err := Run(sc, dense)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := Run(sc, bell)
			if err != nil {
				t.Fatal(err)
			}
			if dres.Totals != bres.Totals {
				t.Fatalf("deterministic counters differ across backends:\ndense    %+v\nbelldiag %+v", dres.Totals, bres.Totals)
			}
			if dres.Rates != bres.Rates {
				t.Fatalf("rates differ across backends:\ndense    %+v\nbelldiag %+v", dres.Rates, bres.Rates)
			}
			if bres.Config.Backend != "belldiag" {
				t.Fatalf("belldiag result does not record its backend: %+v", bres.Config)
			}
			if dres.Config.Backend != "" {
				t.Fatalf("dense result must omit the backend field for baseline compatibility: %+v", dres.Config)
			}
		})
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	res := Result{Schema: SchemaVersion, Scenario: "single-link"}
	path, err := res.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("want schema-mismatch error")
	}
}
