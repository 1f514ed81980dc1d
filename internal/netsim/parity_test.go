package netsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/workload"
)

// parityRun is what one network run reports to the parity checks: the
// rendered stats tables and the deterministic work counters.
type parityRun struct {
	stats            string
	events, attempts uint64
	// submitted and oks are the per-link Submitted and OKs counts.
	submitted, oks []uint64
}

// runSharded builds and runs one network on the given backend and shard
// count.
func runSharded(t *testing.T, spec Spec, backend quantum.Backend, shards int, seconds float64) parityRun {
	t.Helper()
	cfg := DefaultConfig(spec, nv.ScenarioLab)
	cfg.Seed = 5
	cfg.Backend = backend
	cfg.Shards = shards
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attachPoisson(t, nw, workload.PoissonClass(0.7, 2, 0.64, false))
	nw.Run(sim.DurationSeconds(seconds))
	perLink, agg := nw.Stats()
	r := parityRun{stats: render(perLink, agg), events: nw.Sim.Executed(), attempts: nw.Attempts()}
	for _, l := range nw.Links {
		r.submitted = append(r.submitted, l.Submitted)
		_, okA, _, _, _ := l.EGPA.Stats()
		_, okB, _, _, _ := l.EGPB.Stats()
		r.oks = append(r.oks, okA+okB)
	}
	return r
}

// checkCounters reports where got's work counters differ from want's.
func checkCounters(t *testing.T, what string, want, got parityRun) {
	t.Helper()
	if got.events != want.events {
		t.Errorf("%s: executed %d events, reference executed %d", what, got.events, want.events)
	}
	if got.attempts != want.attempts {
		t.Errorf("%s: sampled %d attempts, reference sampled %d", what, got.attempts, want.attempts)
	}
	if !slices.Equal(got.submitted, want.submitted) || !slices.Equal(got.oks, want.oks) {
		t.Errorf("%s: per-link submitted/OKs diverge from the reference\nsubmitted %v\nreference %v\noks       %v\nreference %v",
			what, got.submitted, want.submitted, got.oks, want.oks)
	}
}

// checkParity additionally requires byte-identical stats tables.
func checkParity(t *testing.T, what string, want, got parityRun) {
	t.Helper()
	checkCounters(t, what, want, got)
	if got.stats != want.stats {
		t.Errorf("%s: stats diverge from the reference\n--- reference ---\n%s--- %s ---\n%s", what, want.stats, what, got.stats)
	}
}

// TestSerialShardedParity is the acceptance check of the sharded engine: the
// experiment tables and the deterministic work counters must be byte-identical
// between the serial engine and the sharded engine at every shard count, on
// both pair-state backends. Partitioning is a performance decision, never a
// results decision. The serial dense run is the reference: the belldiag
// backend must reproduce its work counters (it changes how a pair's state is
// represented, never which events fire, which attempts are sampled or which
// pairs are delivered), and each backend's 2- and 4-shard runs must
// reproduce its serial run outright.
func TestSerialShardedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-topology parity sweep in short mode")
	}
	cases := []struct {
		spec    Spec
		seconds float64
	}{
		{Chain(16), 0.15},
		{Dragonfly(4, 5), 0.08},
		{Chain(256), 0.05},
	}
	for _, c := range cases {
		c := c
		t.Run(c.spec.Name, func(t *testing.T) {
			t.Parallel()
			ref := runSharded(t, c.spec, quantum.BackendDense, 1, c.seconds)
			if ref.events == 0 || ref.attempts == 0 {
				t.Fatalf("serial reference did no work: %d events, %d attempts", ref.events, ref.attempts)
			}
			bell := runSharded(t, c.spec, quantum.BackendBellDiagonal, 1, c.seconds)
			t.Run("belldiag-counters", func(t *testing.T) {
				checkCounters(t, "serial belldiag", ref, bell)
			})
			// The dense 4-shard run: every shard on its own event heap, held
			// to the serial reference. The name dates from the timing wheel
			// the shards ran on; it is kept so the test's ID stays the same.
			t.Run("wheel-4-shards", func(t *testing.T) {
				t.Parallel()
				checkParity(t, "4 shards", ref, runSharded(t, c.spec, quantum.BackendDense, 4, c.seconds))
			})
			for _, serial := range []struct {
				backend quantum.Backend
				run     parityRun
				shards  []int
			}{{quantum.BackendDense, ref, []int{2}}, {quantum.BackendBellDiagonal, bell, []int{2, 4}}} {
				serial := serial
				t.Run(serial.backend.String(), func(t *testing.T) {
					t.Parallel()
					for _, shards := range serial.shards {
						checkParity(t, fmt.Sprintf("%d shards", shards), serial.run, runSharded(t, c.spec, serial.backend, shards, c.seconds))
					}
				})
			}
		})
	}
}

// TestShardedUsesAllShards guards against a silent fallback to one worker:
// the sharded build must spread the links of a chain across every shard.
func TestShardedUsesAllShards(t *testing.T) {
	cfg := DefaultConfig(Chain(16), nv.ScenarioLab)
	cfg.Seed = 5
	cfg.Shards = 4
	nw, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Sharded() == nil || nw.Sharded().Shards() != 4 {
		t.Fatal("Shards=4 config did not build a 4-shard engine")
	}
	used := map[int]bool{}
	for _, l := range nw.Links {
		used[l.Shard] = true
	}
	if len(used) != 4 {
		t.Fatalf("links landed on %d of 4 shards", len(used))
	}
}

// TestShardedRejectsBadShardCounts: the partition errors must surface through
// NewNetwork rather than panic later.
func TestShardedRejectsBadShardCounts(t *testing.T) {
	cfg := DefaultConfig(Chain(4), nv.ScenarioLab)
	cfg.Shards = 5 // more shards than nodes
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("5 shards on 4 nodes accepted")
	}
}
