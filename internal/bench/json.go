package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// SchemaVersion identifies the BENCH_*.json layout; bump it when a field
// changes meaning so downstream tooling can refuse mixed comparisons.
const SchemaVersion = 1

// RunConfig records the knobs that shaped a result; comparisons across
// different configs are rejected.
type RunConfig struct {
	Seed       int64   `json:"seed"`
	Trials     int     `json:"trials"`
	SimSeconds float64 `json:"simulated_seconds"`
	// Backend is the pair-state backend the run used. Empty means the
	// dense default, so dense results (and pre-existing baselines) carry
	// no backend field at all.
	Backend string `json:"backend,omitempty"`
	// Shards is the engine's worker shard count; absent for serial runs,
	// so serial baselines carry no shards field. The deterministic
	// counters sections are identical at any shard count — CI compares a
	// sharded run's totals/rates against the committed serial baseline.
	Shards int `json:"shards,omitempty"`
	// Queue is the event-queue discipline the run used. Empty means the
	// binary-heap default, so heap results (and pre-existing baselines)
	// carry no queue field. The deterministic counters sections are
	// identical under either discipline — CI compares a wheel run's
	// totals/rates against the committed heap baseline.
	Queue string `json:"queue,omitempty"`
}

// Rates are throughput figures in simulated time: fully deterministic for a
// given seed and code version, so a change signals a behavioural difference,
// not host noise.
type Rates struct {
	EventsPerSimSec   float64 `json:"events_per_sim_sec"`
	AttemptsPerSimSec float64 `json:"attempts_per_sim_sec"`
	PairsPerSimSec    float64 `json:"pairs_per_sim_sec"`
}

// WallClock is the host-dependent section, emitted only when requested: two
// runs of the same binary produce slightly different numbers, and different
// machines produce very different ones.
type WallClock struct {
	WallSeconds      float64 `json:"wall_seconds"`
	EventsPerWallSec float64 `json:"events_per_wall_sec"`
	SimSecPerWallSec float64 `json:"sim_sec_per_wall_sec"`
}

// Result is the machine-readable outcome of one scenario run — the schema of
// BENCH_<scenario>.json. Everything outside WallClock is deterministic:
// byte-identical across repeated runs and across -parallel levels.
type Result struct {
	Schema      int       `json:"schema"`
	Scenario    string    `json:"scenario"`
	Description string    `json:"description"`
	Config      RunConfig `json:"config"`
	Totals      Counters  `json:"totals"`
	Rates       Rates     `json:"rates"`
	// AllocsPerAttempt and BytesPerAttempt are heap cost per entanglement
	// attempt over the steady-state window of a serial trial (GC paused).
	AllocsPerAttempt float64 `json:"allocs_per_attempt"`
	BytesPerAttempt  float64 `json:"bytes_per_attempt"`
	// WallClock is present only when the run was asked to time itself
	// (cmd/bench -wallclock); the committed baselines include it so CI can
	// gate on events per wall-second.
	WallClock *WallClock `json:"wall_clock,omitempty"`
}

// FileName returns the canonical file name for a scenario's result.
func FileName(scenario string) string { return "BENCH_" + scenario + ".json" }

// Marshal renders the result as stable, indented JSON (trailing newline
// included) suitable for committing.
func (r Result) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteFile writes BENCH_<scenario>.json into dir.
func (r Result) WriteFile(dir string) (string, error) {
	data, err := r.Marshal()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(r.Scenario))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadFile loads a previously written result.
func ReadFile(path string) (Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return Result{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return Result{}, fmt.Errorf("bench: %s has schema %d, this binary speaks %d", path, r.Schema, SchemaVersion)
	}
	return r, nil
}

// Compare checks a fresh result against a committed baseline and returns the
// list of regressions (empty when the gate passes). tolerance is the allowed
// relative slack, e.g. 0.20 for 20%:
//
//   - allocations per attempt must not rise by more than tolerance
//     (deterministic, so this gate is reliable on any machine), and
//   - simulated seconds per wall-second must not drop by more than
//     tolerance, checked only when both results carry a wall-clock section
//     (host-dependent, so the baseline should be refreshed from the machine
//     that runs the gate). Simulated time, not events, is the gated rate:
//     how many events a run fires is an implementation detail (the MHP cycle
//     clock skips idle nodes' polls), the simulated window is not.
//
// Informational differences (pair throughput, bytes/attempt) are not gated.
func Compare(baseline, fresh Result, tolerance float64) ([]string, error) {
	if baseline.Scenario != fresh.Scenario {
		return nil, fmt.Errorf("bench: comparing %q against %q", fresh.Scenario, baseline.Scenario)
	}
	if baseline.Config != fresh.Config {
		return nil, fmt.Errorf("bench: %s: config mismatch (baseline %+v, fresh %+v); refresh the baseline",
			fresh.Scenario, baseline.Config, fresh.Config)
	}
	var regressions []string
	if base := baseline.AllocsPerAttempt; base > 0 && fresh.AllocsPerAttempt > base*(1+tolerance) {
		regressions = append(regressions, fmt.Sprintf(
			"%s: allocs/attempt rose %.3f -> %.3f (more than %.0f%% over baseline)",
			fresh.Scenario, base, fresh.AllocsPerAttempt, tolerance*100))
	}
	if baseline.WallClock != nil && fresh.WallClock != nil {
		if base := baseline.WallClock.SimSecPerWallSec; base > 0 && fresh.WallClock.SimSecPerWallSec < base*(1-tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: sim-sec/wall-sec dropped %.3f -> %.3f (more than %.0f%% below baseline)",
				fresh.Scenario, base, fresh.WallClock.SimSecPerWallSec, tolerance*100))
		}
	}
	return regressions, nil
}
