package main

import (
	"embed"
	"fmt"
	"math/rand"
	"sort"
)

// The specs are copies the benchmark owns, so edits to scenarios/ never
// change what the benchmark runs.
//
//go:embed workloads/*.json
var specFS embed.FS

// flow is one source-destination pair of the end-to-end workload.
type flow struct{ src, dst int }

// workload is one set of inputs the benchmark runs. The program receives only
// the spec and the seed; everything else here sizes the run.
type workload struct {
	Name string
	Why  string
	// simPerSecond is how many simulated seconds of timed window one requested
	// second of measurement buys: the window is a fixed simulated duration so
	// both commits do identical work, sized so the 2-core reference container
	// spends about the requested wall time on it.
	simPerSecond float64
	// warmup is the simulated time run before the window opens, so sampler
	// caches, queues and session populations are steady.
	warmup float64
	// shards, when above 1, makes the traced pair repeat the reference span
	// on the sharded engine with that many shards. The timed run stays on the
	// serial engine: on the 2-core reference container the same sharded span
	// takes anywhere from 3.0 to 5.4 s, too unsteady to hold to a bound.
	shards int

	// End-to-end workload only: the benchmark is the caller of CREATE. Each
	// flow is an open loop of Poisson arrivals pre-drawn from the seed; an
	// open loop in simulated time is never late, so there is no lateness to
	// report.
	flows       []flow
	ratePerFlow float64 // requests per simulated second
	minFidelity float64
	deadline    float64 // simulated seconds
}

var workloads = []workload{
	{
		Name:         "link-sat",
		Why:          "one Lab link, closed loop of 4 MD sessions, no loss: the bare attempt fast path (sim, mhp, wire, photonics, classical); egp queueing, netsim fan-out and network idle",
		simPerSecond: 6.2, warmup: 1,
	},
	{
		Name:         "chain8-mixed",
		Why:          "scenarios/chain8-mixed as is: open-loop NL+MD and closed-loop CK with deadlines on 7 links: egp queue, scheduler and QMM, workload engine, CK storage, a 7-link event queue",
		simPerSecond: 1.76, warmup: 0.5,
	},
	{
		Name:         "chain8-lossy",
		Why:          "chain8-mixed at classical_loss 0.001 (paper Table 5): the same mhp/egp/classical code on its recovery path: DQP retransmits, EXPIRE, stale attempts",
		simPerSecond: 1, warmup: 0.5,
	},
	{
		Name: "e2e-grid9",
		Why:  "3x3 grid, the benchmark calls svc.Create for 4 flows under link, node and degrade faults: the only workload where network routing, swapping, re-routing, dense quantum swaps and faults work",
		// An end-to-end pair costs two link pairs plus idle polling on twelve
		// links, so this window takes about twice the requested wall time: a
		// shorter one completes too few requests for steady percentiles.
		simPerSecond: 6.25, warmup: 0.5,
		flows:       []flow{{3, 5}, {1, 7}, {1, 3}, {5, 7}},
		ratePerFlow: 2, minFidelity: 0.3, deadline: 3,
	},
	{
		Name:         "chain64",
		Why:          "64-node chain, one open-loop MD class at load 0.7: the deepest pending-event queue and the dearest set-up; the traced pair repeats it on the 2-shard engine (sim.shard_*)",
		simPerSecond: 0.46, warmup: 0.1,
		shards: 2,
	},
}

func (w *workload) endToEnd() bool { return len(w.flows) > 0 }

func (w *workload) spec() []byte {
	data, err := specFS.ReadFile("workloads/" + w.Name + ".json")
	if err != nil {
		// The file set is fixed at build time; names_test.go checks it.
		panic(err)
	}
	return data
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// arrival is one pre-drawn end-to-end CREATE.
type arrival struct {
	at   simNS
	flow int
}

// arrivals draws every flow's Poisson arrivals over [0, horizon) from the
// seed and merges them in time order. A shorter horizon yields a prefix of a
// longer one, which is what lets a short run check a long one.
func (w *workload) arrivals(seed int64, horizon simNS) []arrival {
	var out []arrival
	for f := range w.flows {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(f)))
		t := 0.0
		for {
			t += rng.ExpFloat64() / w.ratePerFlow
			at := simNS(t * 1e9)
			if at >= horizon {
				break
			}
			out = append(out, arrival{at: at, flow: f})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}
