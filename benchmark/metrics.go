package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
)

// Every number the benchmark reports names its time base. sim is simulated
// time, a property of the modelled protocol: deterministic for a seed, so it
// repeats exactly and two commits compare exactly. host is wall time (or
// memory) of the simulator process, which is noisy.
const (
	baseSim  = "sim"
	baseHost = "host"
)

// metricDef describes one reported metric. BENCHMARK.json repeats name, unit,
// better and bound; names_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end metric
	// may worsen before a change counts as a regression (0 for per-layer
	// metrics, which have none).
	Bound float64
	Base  string
	// Layer is the repo module a per-layer metric belongs to.
	Layer string
	What  string
}

// endToEnd are the metrics a caller of CREATE (sim base) and a user of the
// simulator (host base) see. The bounds are set by the spread measured over ten
// seeds (the driver that accepts the benchmark requires each metric's quartile
// spread to stay inside its bound): a percentile of a few hundred latencies
// moves by about a tenth from seed to seed. For one seed the sim-based metrics
// repeat exactly, and -check holds them to that.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Base: baseHost,
		What: "spec bytes to a network ready to run: parse, compile, netsim.NewNetwork, hooks, Attach / network.NewService; median of repeated fresh builds, first build excluded"},
	{Name: "pairs_per_wall_s", Unit: "pairs/s", Better: "higher", Bound: 0.25, Base: baseHost,
		What: "pairs delivered to their origin in the timed window / wall seconds of the window (the simulated duration is fixed, so the work is identical on both commits)"},
	{Name: "allocs_per_attempt", Unit: "count", Better: "lower", Bound: 0.10, Base: baseHost,
		What: "runtime.MemStats.Mallocs over the timed window / entanglement attempts in it; the collector stays on"},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25, Base: baseHost,
		What: "HeapAlloc after a forced collection at the end of the timed window, network and recorder still reachable"},
	{Name: "req_latency_p50_sim_ms", Unit: "ms", Better: "lower", Bound: 0.25, Base: baseSim,
		What: "CREATE to last pair of the request, median over requests completed in the window, origin side"},
	{Name: "req_latency_p90_sim_ms", Unit: "ms", Better: "lower", Bound: 0.25, Base: baseSim,
		What: "the same, 90th percentile: the highest every workload supports with at least ten samples beyond it"},
	{Name: "pairs_per_sim_s", Unit: "pairs/s", Better: "higher", Bound: 0.25, Base: baseSim,
		What: "delivered pairs / simulated seconds of the window (the paper's throughput)"},
	{Name: "mean_fidelity", Unit: "fidelity", Better: "higher", Bound: 0.05, Base: baseSim,
		What: "mean ground-truth fidelity of the pairs delivered in the window"},
	{Name: "req_ok_frac", Unit: "fraction", Better: "higher", Bound: 0.25, Base: baseSim,
		What: "requests that ended in the window with every pair delivered / all that reached a terminal state in it (1 - failed share: synchronous reject, TIMEOUT, LINKDOWN, NOROUTE, other)"},
}

// perLayer lists the metrics of single layers; layers are the repo's modules.
// Sources: counters the program exposes (read after the reference run), spans
// the benchmark records around its own calls, the traced run (CPU profile,
// observers, flight recorder), and layer drives (a layer's public function in
// a tight loop).
var perLayer = []metricDef{
	{Name: "sim.events_per_attempt", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.wall_ns_per_event", Unit: "ns", Better: "lower", Layer: "sim"},
	{Name: "sim.wall_ns_per_attempt", Unit: "ns", Better: "lower", Layer: "sim"},
	{Name: "sim.sim_s_per_wall_s", Unit: "sim_s/s", Better: "higher", Layer: "sim"},
	{Name: "sim.cpu_share", Unit: "share", Better: "lower", Layer: "sim"},
	{Name: "sim.batch_len_mean", Unit: "count", Better: "higher", Layer: "sim"},
	{Name: "sim.pending_mean", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.drive_ns_per_event_d16", Unit: "ns", Better: "lower", Layer: "sim"},
	{Name: "sim.drive_ns_per_event_d4096", Unit: "ns", Better: "lower", Layer: "sim"},
	{Name: "sim.drive_allocs_per_event", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.windows", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.cross_msgs_per_window", Unit: "count", Better: "lower", Layer: "sim"},
	{Name: "sim.window_wall_us_p50", Unit: "us", Better: "lower", Layer: "sim"},
	{Name: "sim.window_wall_us_p90", Unit: "us", Better: "lower", Layer: "sim"},
	{Name: "sim.shard_imbalance", Unit: "ratio", Better: "lower", Layer: "sim"},
	{Name: "sim.shard_speedup", Unit: "ratio", Better: "higher", Layer: "sim"},

	{Name: "go_runtime.cpu_share", Unit: "share", Better: "lower", Layer: "go_runtime"},
	{Name: "go_runtime.bg_share", Unit: "share", Better: "lower", Layer: "go_runtime"},
	{Name: "go_runtime.gc_cycles_per_wall_s", Unit: "1/s", Better: "lower", Layer: "go_runtime"},
	{Name: "go_runtime.bytes_per_attempt", Unit: "B", Better: "lower", Layer: "go_runtime"},

	{Name: "mhp.cpu_share", Unit: "share", Better: "lower", Layer: "mhp"},
	{Name: "mhp.attempts", Unit: "count", Better: "lower", Layer: "mhp"},
	{Name: "mhp.herald_success_ratio", Unit: "ratio", Better: "higher", Layer: "mhp"},
	{Name: "mhp.attempts_per_pair", Unit: "count", Better: "lower", Layer: "mhp"},
	{Name: "mhp.herald_drops", Unit: "count", Better: "lower", Layer: "mhp"},

	{Name: "photonics.cpu_share", Unit: "share", Better: "lower", Layer: "photonics"},
	{Name: "photonics.drive_ns_per_sample", Unit: "ns", Better: "lower", Layer: "photonics"},
	{Name: "photonics.drive_allocs_per_sample", Unit: "count", Better: "lower", Layer: "photonics"},

	{Name: "classical.cpu_share", Unit: "share", Better: "lower", Layer: "classical"},
	{Name: "classical.mux_routed_per_attempt", Unit: "count", Better: "lower", Layer: "classical"},
	{Name: "classical.mux_dropped", Unit: "count", Better: "lower", Layer: "classical"},
	{Name: "classical.drive_ns_per_msg", Unit: "ns", Better: "lower", Layer: "classical"},

	{Name: "wire.cpu_share", Unit: "share", Better: "lower", Layer: "wire"},
	{Name: "wire.drive_ns_per_gen_reply", Unit: "ns", Better: "lower", Layer: "wire"},
	{Name: "wire.drive_allocs_per_gen_reply", Unit: "count", Better: "lower", Layer: "wire"},

	{Name: "egp.cpu_share", Unit: "share", Better: "lower", Layer: "egp"},
	{Name: "egp.creates", Unit: "count", Better: "higher", Layer: "egp"},
	{Name: "egp.oks", Unit: "count", Better: "higher", Layer: "egp"},
	{Name: "egp.errors", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.expires", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.dqp_retransmits", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.dqp_rejects", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.queue_depth_mean", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.queue_depth_max", Unit: "count", Better: "lower", Layer: "egp"},
	{Name: "egp.qubits_leaked", Unit: "count", Better: "lower", Layer: "egp"},

	{Name: "quantum.cpu_share", Unit: "share", Better: "lower", Layer: "quantum"},
	{Name: "quantum.drive_ns_per_swap_dense", Unit: "ns", Better: "lower", Layer: "quantum"},
	{Name: "quantum.drive_ns_per_swap_belldiag", Unit: "ns", Better: "lower", Layer: "quantum"},
	{Name: "nv.cpu_share", Unit: "share", Better: "lower", Layer: "nv"},

	{Name: "netsim.cpu_share", Unit: "share", Better: "lower", Layer: "netsim"},
	{Name: "netsim.first_build_ms", Unit: "ms", Better: "lower", Layer: "netsim"},
	{Name: "netsim.build_ms", Unit: "ms", Better: "lower", Layer: "netsim"},
	{Name: "netsim.attach_ms", Unit: "ms", Better: "lower", Layer: "netsim"},
	{Name: "netsim.build_allocs", Unit: "count", Better: "lower", Layer: "netsim"},
	{Name: "netsim.link_downs", Unit: "count", Better: "lower", Layer: "netsim"},

	{Name: "network.cpu_share", Unit: "share", Better: "lower", Layer: "network"},
	{Name: "network.build_ms", Unit: "ms", Better: "lower", Layer: "network"},
	{Name: "network.swaps_per_pair", Unit: "count", Better: "lower", Layer: "network"},
	{Name: "network.frames_per_pair", Unit: "count", Better: "lower", Layer: "network"},
	{Name: "network.reroutes", Unit: "count", Better: "lower", Layer: "network"},
	{Name: "network.retries", Unit: "count", Better: "lower", Layer: "network"},
	{Name: "network.noroute", Unit: "count", Better: "lower", Layer: "network"},
	{Name: "network.swap_latency_p50_sim_ms", Unit: "ms", Better: "lower", Layer: "network"},
	{Name: "network.drive_ns_per_route", Unit: "ns", Better: "lower", Layer: "network"},

	{Name: "scenario.parse_compile_us", Unit: "us", Better: "lower", Layer: "scenario"},
	{Name: "workload.cpu_share", Unit: "share", Better: "lower", Layer: "workload"},
	{Name: "workload.offered", Unit: "count", Better: "higher", Layer: "workload"},
	{Name: "workload.rejected", Unit: "count", Better: "lower", Layer: "workload"},
	{Name: "faults.transitions", Unit: "count", Better: "lower", Layer: "faults"},

	{Name: "metrics.cpu_share", Unit: "share", Better: "lower", Layer: "metrics"},
	{Name: "metrics.stats_ms", Unit: "ms", Better: "lower", Layer: "metrics"},

	{Name: "obs.cpu_share", Unit: "share", Better: "lower", Layer: "obs"},
	{Name: "obs.records", Unit: "count", Better: "lower", Layer: "obs"},
	{Name: "obs.trace_overhead_frac", Unit: "fraction", Better: "lower", Layer: "obs"},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// minPercentileSamples is the least number of samples that supports a p90: ten
// must lie beyond it.
const minPercentileSamples = 100

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether the sample supports it: at least ten samples must lie
// beyond the rank on the far side of the median.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond := n - 1 - rank
	if q < 0.5 {
		beyond = rank
	}
	return sorted[rank], beyond >= 10
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// digest hashes the per-request tuples of every request that reached a
// terminal state at or before upTo: site, origin, create time, terminal time,
// code, pairs, fidelity. It is request-level on purpose: a change that fuses
// events changes event counts, not this. Sorting makes it independent of the
// order sites (links, shards) are visited in.
func digest(reqs []request, upTo simNS) (string, int) {
	sel := make([]request, 0, len(reqs))
	for _, r := range reqs {
		if r.terminal <= upTo {
			sel = append(sel, r)
		}
	}
	sort.Slice(sel, func(i, j int) bool {
		a, b := sel[i], sel[j]
		switch {
		case a.terminal != b.terminal:
			return a.terminal < b.terminal
		case a.site != b.site:
			return a.site < b.site
		case a.origin != b.origin:
			return a.origin < b.origin
		default:
			return a.create < b.create
		}
	})
	h := sha256.New()
	var buf [8 + 8 + 8 + 8 + 8]byte
	for _, r := range sel {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.create))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.terminal))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.site)<<32|uint64(r.origin)<<8|uint64(r.code))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.pairs))
		binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(r.fidelity))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), len(sel)
}
