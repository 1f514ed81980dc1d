package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// plan fixes what one measurement of one workload runs.
type plan struct {
	w    *workload
	seed int64
	// seconds is the requested measuring time; it buys a fixed simulated
	// window (see workload.simPerSecond), not a wall-clock deadline.
	seconds float64
}

// slices is how many equal nw.Run calls the window is driven in; the traced
// run records one span per slice.
const slices = 10

func (p plan) windowNS() simNS { return simNS(p.w.simPerSecond * p.seconds * 1e9) }

// simRun is one simulation of warm-up plus window, with what the benchmark
// measured around it.
type simRun struct {
	b                   *built
	windowStart, end    simNS
	wall                float64 // host seconds of the window
	mem0, mem1          runtime.MemStats
	c0, c1              counters
	liveHeapMB          float64
	stats               programStats
	statsMS             float64
	reqs                []request
	open                int
	batches, batchLen   uint64 // traced serial runs
	pendingSum          uint64
	windowWallUS        []float64 // sharded runs
	profile             string    // path of the CPU profile, traced runs
	records             uint64
	transitionsObserved uint64
}

// tracing selects what a traced run attaches on top of the timed one.
type tracing struct {
	spans   *spanLog
	profile string // CPU profile path
}

// simulate builds the workload and runs warm-up plus a window of the given
// simulated length. With tr set it is the traced run: flight recorder and
// registry attached, observers installed, spans recorded and the window
// CPU-profiled.
func simulate(w *workload, seed int64, window simNS, opt buildOptions, tr *tracing) (*simRun, error) {
	var spans *spanLog
	if tr != nil {
		spans = tr.spans
		opt.traced = true
	}
	opt.endToEnd = w.endToEnd()
	root := spans.begin("run:" + w.Name)
	defer root.end()

	b, _, err := build(w.spec(), w.Name, seed, opt, spans)
	if err != nil {
		return nil, err
	}
	r := &simRun{b: b}
	if b.sharded {
		last := time.Now()
		err = b.observeWindows(func(int) {
			now := time.Now()
			r.windowWallUS = append(r.windowWallUS, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
		})
	} else if tr != nil {
		err = b.observeBatches(func(batchLen, pending int) {
			r.batches++
			r.batchLen += uint64(batchLen)
			r.pendingSum += uint64(pending)
		})
	}
	if err != nil {
		return nil, err
	}

	warm := simNS(w.warmup * 1e9)
	end := warm + window
	var arr []arrival
	if w.endToEnd() {
		arr = w.arrivals(seed, end)
	}
	next := 0
	// advance runs the network to t, issuing the end-to-end CREATEs that fall
	// due on the way, each at its own arrival time.
	advance := func(t simNS) {
		for next < len(arr) && arr[next].at <= t {
			a := arr[next]
			next++
			b.runTo(a.at)
			f := w.flows[a.flow]
			b.create(a.flow, f.src, f.dst, 1, w.minFidelity, simNS(w.deadline*1e9))
		}
		b.runTo(t)
	}

	sp := spans.begin("warmup")
	advance(warm)
	sp.end()

	b.windowStart = b.now()
	r.windowStart = b.windowStart
	r.c0 = b.counters()
	r.batches, r.batchLen, r.pendingSum = 0, 0, 0
	r.windowWallUS = r.windowWallUS[:0]
	runtime.GC()
	if tr != nil && tr.profile != "" {
		f, err := os.Create(tr.profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		r.profile = tr.profile
	}
	runtime.ReadMemStats(&r.mem0)
	t0 := time.Now()
	for i := 1; i <= slices; i++ {
		sp := spans.begin(fmt.Sprintf("netsim.run[%d]", i))
		advance(warm + window*simNS(i)/slices)
		sp.end()
	}
	r.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&r.mem1)
	if r.profile != "" {
		pprof.StopCPUProfile()
	}
	r.end = b.now()
	r.c1 = b.counters()

	sp = spans.begin("network.finish")
	b.finish()
	sp.end()

	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	r.liveHeapMB = float64(live.HeapAlloc) / (1 << 20)

	sp = spans.begin("metrics.stats")
	s0 := time.Now()
	r.stats = b.programStats(float64(window) / 1e9)
	r.statsMS = time.Since(s0).Seconds() * 1e3
	sp.end()

	r.reqs, r.open = b.requests()
	r.records = b.traceRecords()
	r.transitionsObserved = b.transitions
	// The network stays reachable up to here, so live_heap_mb saw it.
	runtime.KeepAlive(b)
	return r, nil
}

// windowRequests splits the requests that reached a terminal state inside
// the window into completed latencies (sim ms) and the failed count.
func (r *simRun) windowRequests() (latencies []float64, failed int) {
	for _, q := range r.reqs {
		if q.terminal <= r.windowStart {
			continue
		}
		if q.code == codeOK {
			latencies = append(latencies, float64(q.terminal-q.create)/1e6)
		} else {
			failed++
		}
	}
	return latencies, failed
}

func (r *simRun) attempts() uint64 { return r.c1.attempts - r.c0.attempts }
func (r *simRun) events() uint64   { return r.c1.events - r.c0.events }
func (r *simRun) simSeconds() float64 {
	return float64(r.end-r.windowStart) / 1e9
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupResult is the set-up phase: repeated fresh builds of the workload.
type setupResult struct {
	builds      int
	medianS     float64 // whole build call, hooks included
	firstS      float64
	first       setupTimes
	median      setupTimes
	buildAllocs float64
}

// measureSetup builds the workload from spec bytes over and over and reports
// the median. The first build pays one-off costs (page faults, lazy runtime
// set-up), so it is reported apart and kept out of the median. Fast builds
// repeat more often than slow ones: the loop ends after budget seconds or
// maxBuilds, and never before minBuilds.
func measureSetup(w *workload, seed int64, budget float64) (setupResult, error) {
	const minBuilds, maxBuilds = 5, 200
	opt := buildOptions{endToEnd: w.endToEnd()}
	var res setupResult
	var totals, parse, netb, attach, svc, allocs []float64
	runtime.GC()
	start := time.Now()
	for n := 0; n < maxBuilds && (n < minBuilds+1 || time.Since(start).Seconds() < budget); n++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		b, st, err := build(w.spec(), w.Name, seed, opt, nil)
		total := time.Since(t0).Seconds()
		if err != nil {
			return res, err
		}
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(b)
		if n == 0 {
			res.first, res.firstS = st, total
			continue
		}
		totals = append(totals, total)
		parse = append(parse, st.parseCompile)
		netb = append(netb, st.netsimBuild)
		attach = append(attach, st.attach)
		svc = append(svc, st.networkBuild)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
	}
	res.builds = len(totals)
	res.medianS = median(totals)
	res.median = setupTimes{
		parseCompile: median(parse), netsimBuild: median(netb),
		attach: median(attach), networkBuild: median(svc),
	}
	res.buildAllocs = median(allocs)
	return res, nil
}

// result is everything one measurement of one workload produced.
type result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// WindowSimS is the simulated length of the timed window.
	WindowSimS float64          `json:"window_sim_s"`
	EndToEnd   map[string]value `json:"end_to_end,omitempty"`
	PerLayer   map[string]value `json:"per_layer,omitempty"`
	// Info holds sample counts and raw totals that explain the metrics.
	Info map[string]float64 `json:"info"`
	// Digest pins the simulated outcome of the timed run request by request.
	Digest string `json:"digest,omitempty"`
	// RefDigest does the same for the reference run of the traced pair.
	RefDigest string             `json:"ref_digest,omitempty"`
	WallS     map[string]float64 `json:"wall_s"`
	Failures  []string           `json:"failures,omitempty"`
	// Operations counts the requests simulated to a terminal state in the
	// measured windows; Broken those whose record violates an invariant.
	Operations int `json:"operations"`
	Broken     int `json:"broken"`
}

func (res *result) fail(format string, args ...any) {
	res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
}

func (res *result) timed(name string, t0 time.Time) {
	res.WallS[name] = time.Since(t0).Seconds()
}

// putMetric stores a measured value under a declared name with the declared
// unit; reporting a metric the tables do not list is a bug in the benchmark.
func putMetric(into map[string]value, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			into[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared metric " + name)
}

// checkRun applies the per-run correctness checks and counts operations.
func (res *result) checkRun(label string, w *workload, r *simRun) {
	c := r.c1
	var completed, failed uint64
	for _, q := range r.reqs {
		inWindow := q.terminal > r.windowStart
		if inWindow {
			res.Operations++
		}
		bad := false
		if q.code == codeOK {
			completed++
			bad = q.pairs < 1 || q.create < 0 || q.terminal < q.create
		} else {
			failed++
		}
		if q.pairs > 0 {
			// A single pair may fall below the maximally mixed 0.25 (a dark
			// count heralds a product state), so only the physical range is
			// held per request; the run's mean is checked with the metrics.
			f := q.fidelity / float64(q.pairs)
			bad = bad || f < 0 || f > 1+1e-9 || math.IsNaN(f)
		}
		if bad {
			if inWindow {
				res.Broken++
			}
			res.fail("%s: request at site %d ending %d ns violates an invariant (code %d, pairs %d, create %d, fidelity sum %g)",
				label, q.site, q.terminal, q.code, q.pairs, q.create, q.fidelity)
		}
	}
	ps := r.stats
	if w.endToEnd() {
		inflight := uint64(r.open)
		if r.b.created != completed+failed+inflight {
			res.fail("%s: created %d != completed %d + failed %d + in flight %d", label, r.b.created, completed, failed, inflight)
		}
		if ps.e2eRequests != r.b.created || ps.e2eCompleted != completed || ps.e2eFailed+ps.noroute != failed {
			res.fail("%s: service table (requests %d, completed %d, failed %d, noroute %d) disagrees with the caller's view (%d, %d, %d)",
				label, ps.e2eRequests, ps.e2eCompleted, ps.e2eFailed, ps.noroute, r.b.created, completed, failed)
		}
	} else {
		// Synchronous rejects never enter a queue, so the program does not
		// count them as submitted; the caller sees them as failures.
		async := failed - ps.rejected
		if c.submitted != completed+async+ps.inflight {
			res.fail("%s: submitted %d != completed %d + failed %d + in flight %d", label, c.submitted, completed, async, ps.inflight)
		}
		if ps.completed != completed || ps.failed != async {
			res.fail("%s: workload accounts (completed %d, failed %d) disagree with the caller's view (%d, %d)", label, ps.completed, ps.failed, completed, async)
		}
	}
	if leaked := int64(c.qmmAllocs) - int64(c.qmmReleases) - int64(c.qmmHeld); leaked != 0 {
		res.fail("%s: egp.qubits_leaked = %d", label, leaked)
	}
}

// measureTimed is the timed run: set-up, then warm-up and window with tracing
// off. Every end-to-end metric comes from here.
func measureTimed(p plan, res *result, setup setupResult) (*simRun, error) {
	t0 := time.Now()
	r, err := simulate(p.w, p.seed, p.windowNS(), buildOptions{}, nil)
	if err != nil {
		return nil, err
	}
	res.timed("timed_run", t0)
	res.checkRun("timed run", p.w, r)

	lat, failed := r.windowRequests()
	pairs, fid, _ := r.b.windowPairs()
	p50, _ := percentile(lat, 0.5)
	p90, ok90 := percentile(lat, 0.9)
	if !ok90 {
		res.fail("timed run: %d requests completed in the window, the percentiles need %d", len(lat), minPercentileSamples)
	}
	terminal := len(lat) + failed
	res.EndToEnd = map[string]value{}
	put := func(name string, v float64) { putMetric(res.EndToEnd, endToEnd, name, v) }
	put("setup_s", setup.medianS)
	put("pairs_per_wall_s", ratio(float64(pairs), r.wall))
	put("allocs_per_attempt", ratio(float64(r.mem1.Mallocs-r.mem0.Mallocs), float64(r.attempts())))
	put("live_heap_mb", r.liveHeapMB)
	put("req_latency_p50_sim_ms", p50)
	put("req_latency_p90_sim_ms", p90)
	put("pairs_per_sim_s", ratio(float64(pairs), r.simSeconds()))
	meanFid := ratio(fid, float64(pairs))
	put("mean_fidelity", meanFid)
	// Link pairs are useful only above the maximally mixed 0.25. Delivered
	// end-to-end pairs on Lab hardware are not (a finding the README records),
	// so there only the physical range is held.
	if lo := map[bool]float64{false: 0.25, true: 0}[p.w.endToEnd()]; meanFid < lo || meanFid > 1 {
		res.fail("timed run: mean delivered fidelity %.4f outside [%.2f, 1]", meanFid, lo)
	}
	put("req_ok_frac", ratio(float64(len(lat)), float64(terminal)))

	res.Info["req_completed"] = float64(len(lat))
	res.Info["req_failed"] = float64(failed)
	res.Info["req_in_flight_at_end"] = float64(r.open) + float64(r.stats.inflight)
	res.Info["pairs"] = float64(pairs)
	res.Info["attempts"] = float64(r.attempts())
	res.Info["events"] = float64(r.events())
	res.Info["window_wall_s"] = r.wall
	res.Info["setup_builds"] = float64(setup.builds)
	res.Info["setup_first_build_s"] = setup.firstS
	res.Digest, _ = digest(r.reqs, r.end)

	// An immediate repeat over the first eighth of the window must reproduce
	// the long run's outcome request for request up to where it stops.
	t0 = time.Now()
	short, err := simulate(p.w, p.seed, p.windowNS()/8, buildOptions{}, nil)
	if err != nil {
		return nil, err
	}
	res.timed("repeat_run", t0)
	want, n := digest(r.reqs, short.end)
	if got, _ := digest(short.reqs, short.end); got != want {
		res.fail("repeat over the first %.3f sim-s gives digest %s, the timed run gave %s over the same %d requests", float64(short.end)/1e9, got, want, n)
	}
	res.Info["repeat_requests"] = float64(n)
	return r, nil
}

// measureTraced is the traced pair: a reference run with tracing off and a
// traced run of the same spec, seed and span (a quarter of the timed window),
// then the layer drives. Every per-layer metric comes from here.
func measureTraced(p plan, res *result, setup setupResult, timed *simRun) error {
	window := p.windowNS() / 4
	w := p.w

	t0 := time.Now()
	ref, err := simulate(w, p.seed, window, buildOptions{}, nil)
	if err != nil {
		return err
	}
	res.timed("reference_run", t0)
	res.checkRun("reference run", w, ref)
	res.RefDigest, _ = digest(ref.reqs, ref.end)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	spans := newSpanLog()
	t0 = time.Now()
	tr, err := simulate(w, p.seed, window, buildOptions{}, &tracing{
		spans:   spans,
		profile: filepath.Join(outDir, w.Name+".cpu.pprof"),
	})
	if err != nil {
		return err
	}
	res.timed("traced_run", t0)
	res.checkRun("traced run", w, tr)
	if err := spans.write(filepath.Join(outDir, w.Name+".spans.json")); err != nil {
		return err
	}

	// Tracing must not perturb the simulation: same requests, same counters.
	if got, _ := digest(tr.reqs, tr.end); got != res.RefDigest {
		res.fail("traced run digest %s differs from the reference run's %s", got, res.RefDigest)
	}
	if tr.attempts() != ref.attempts() || tr.events() != ref.events() {
		res.fail("traced run did %d attempts in %d events, the reference run %d in %d", tr.attempts(), tr.events(), ref.attempts(), ref.events())
	}
	if timed != nil {
		want, _ := digest(timed.reqs, ref.end)
		if res.RefDigest != want {
			res.fail("reference run digest %s differs from the timed run's first quarter %s", res.RefDigest, want)
		}
	}

	t0 = time.Now()
	shares, err := cpuShares(tr.profile)
	if err != nil {
		return err
	}
	res.timed("pprof", t0)

	res.PerLayer = map[string]value{}
	put := func(name string, v float64) { putMetric(res.PerLayer, perLayer, name, v) }

	att, ev := float64(ref.attempts()), float64(ref.events())
	c0, c1 := ref.c0, ref.c1
	pairs, _, swapLat := ref.b.windowPairs()
	put("sim.events_per_attempt", ratio(ev, att))
	put("sim.wall_ns_per_event", ratio(ref.wall*1e9, ev))
	put("sim.wall_ns_per_attempt", ratio(ref.wall*1e9, att))
	put("sim.sim_s_per_wall_s", ratio(ref.simSeconds(), ref.wall))
	put("sim.batch_len_mean", ratio(float64(tr.batchLen), float64(tr.batches)))
	put("sim.pending_mean", ratio(float64(tr.pendingSum), float64(tr.batches)))

	// The same span on the sharded engine, for the one workload that asks for
	// it: its wall time under the serial one is the speed-up, and its requests
	// must match the serial engine's one for one. Zero elsewhere.
	var windows, crossMsgs, imbalance, speedup float64
	var windowWallUS []float64
	if w.shards > 1 {
		t0 = time.Now()
		sh, err := simulate(w, p.seed, window, buildOptions{shards: w.shards}, nil)
		if err != nil {
			return err
		}
		res.timed("sharded_run", t0)
		res.checkRun("sharded run", w, sh)
		if got, _ := digest(sh.reqs, sh.end); got != res.RefDigest {
			res.fail("sharded engine digest %s differs from the serial engine's %s", got, res.RefDigest)
		}
		windows = float64(sh.c1.windows - sh.c0.windows)
		crossMsgs = float64(sh.c1.crossMsgs - sh.c0.crossMsgs)
		windowWallUS = sh.windowWallUS
		var sum, top float64
		for i := range sh.c1.shardEvents {
			e := float64(sh.c1.shardEvents[i] - sh.c0.shardEvents[i])
			sum += e
			top = math.Max(top, e)
		}
		imbalance = ratio(top, sum/float64(len(sh.c1.shardEvents)))
		speedup = ratio(ref.wall, sh.wall)
		res.Info["sharded_window_wall_s"] = sh.wall
	}
	put("sim.windows", windows)
	put("sim.cross_msgs_per_window", ratio(crossMsgs, windows))
	p50, _ := percentile(windowWallUS, 0.5)
	p90, ok90 := percentile(windowWallUS, 0.9)
	if !ok90 {
		p90 = 0
	}
	put("sim.window_wall_us_p50", p50)
	put("sim.window_wall_us_p90", p90)
	put("sim.shard_imbalance", imbalance)
	put("sim.shard_speedup", speedup)

	put("go_runtime.gc_cycles_per_wall_s", ratio(float64(ref.mem1.NumGC-ref.mem0.NumGC), ref.wall))
	put("go_runtime.bytes_per_attempt", ratio(float64(ref.mem1.TotalAlloc-ref.mem0.TotalAlloc), att))

	matched := float64(c1.midMatched - c0.midMatched)
	put("mhp.attempts", float64(c1.mhpAttempts-c0.mhpAttempts))
	put("mhp.herald_success_ratio", ratio(float64(c1.midSuccess-c0.midSuccess), matched))
	put("mhp.attempts_per_pair", ratio(att, float64(pairs)))
	put("mhp.herald_drops", float64((c1.midTimeMismatch-c0.midTimeMismatch)+(c1.midQueueMismatch-c0.midQueueMismatch)+(c1.midSolo-c0.midSolo)))

	put("classical.mux_routed_per_attempt", ratio(float64(c1.muxRouted-c0.muxRouted), att))
	put("classical.mux_dropped", float64(c1.muxDropped-c0.muxDropped))

	put("egp.creates", float64(c1.egpCreates-c0.egpCreates))
	put("egp.oks", float64(c1.egpOKs-c0.egpOKs))
	put("egp.errors", float64(c1.egpErrs-c0.egpErrs))
	put("egp.expires", float64(c1.egpExpires-c0.egpExpires))
	put("egp.dqp_retransmits", float64(c1.dqpRetransmits-c0.dqpRetransmits))
	put("egp.dqp_rejects", float64(c1.dqpRejects-c0.dqpRejects))
	put("egp.queue_depth_mean", ref.stats.queueDepthMean)
	put("egp.queue_depth_max", ref.stats.queueDepthMax)
	put("egp.qubits_leaked", float64(int64(c1.qmmAllocs)-int64(c1.qmmReleases)-int64(c1.qmmHeld)))

	put("netsim.first_build_ms", setup.first.netsimBuild*1e3)
	put("netsim.build_ms", setup.median.netsimBuild*1e3)
	put("netsim.attach_ms", setup.median.attach*1e3)
	put("netsim.build_allocs", setup.buildAllocs)
	put("netsim.link_downs", float64(c1.linkDowns-c0.linkDowns))

	// Zero on the link workloads: they never build the network layer.
	put("network.build_ms", setup.median.networkBuild*1e3)
	put("network.swaps_per_pair", ratio(float64(c1.swaps-c0.swaps), float64(pairs)))
	put("network.frames_per_pair", ratio(float64(c1.frames-c0.frames), float64(pairs)))
	put("network.reroutes", float64(ref.stats.reroutes))
	put("network.retries", float64(ref.stats.retries))
	put("network.noroute", float64(ref.stats.noroute))
	swapP50, _ := percentile(swapLat, 0.5)
	put("network.swap_latency_p50_sim_ms", swapP50)

	put("scenario.parse_compile_us", setup.median.parseCompile*1e6)
	if w.endToEnd() {
		put("workload.offered", float64(ref.b.created))
		put("workload.rejected", float64(ref.stats.noroute))
	} else {
		put("workload.offered", float64(ref.stats.offered))
		put("workload.rejected", float64(ref.stats.rejected))
	}
	put("faults.transitions", float64(ref.transitionsObserved))
	put("metrics.stats_ms", ref.statsMS)
	put("obs.records", float64(tr.records))
	put("obs.trace_overhead_frac", ratio(tr.wall, ref.wall)-1)

	put("go_runtime.cpu_share", shares.runtimeLeaf)
	put("go_runtime.bg_share", shares.background)
	sum := 0.0
	for _, d := range perLayer {
		if d.Layer == "go_runtime" || d.Name != d.Layer+".cpu_share" {
			continue
		}
		put(d.Name, shares.layer[d.Layer])
		sum += shares.layer[d.Layer]
	}
	sum += shares.other
	if math.Abs(sum-1) > 0.02 {
		res.fail("per-layer cpu shares sum to %.3f, not 1 (other packages: %.3f)", sum, shares.other)
	}
	res.Info["cpu_profile_samples"] = shares.samples
	res.Info["cpu_share_other_packages"] = shares.other
	res.Info["reference_window_wall_s"] = ref.wall
	res.Info["traced_window_wall_s"] = tr.wall
	res.Info["reference_attempts"] = att

	t0 = time.Now()
	for name, v := range layerDrives() {
		put(name, v)
	}
	res.timed("layer_drives", t0)

	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok {
			panic("per-layer metric not measured: " + d.Name)
		}
	}
	return nil
}

// measure runs one workload: the timed run when timed is set, the traced pair
// when traced is set.
func measure(p plan, timed, traced bool) (*result, error) {
	res := &result{
		Workload: p.w.Name, Seed: p.seed, Seconds: p.seconds,
		WindowSimS: float64(p.windowNS()) / 1e9,
		Info:       map[string]float64{}, WallS: map[string]float64{},
	}
	// setup_s is bounded, so the timed run repeats the build for longer than
	// the per-layer build spans need on their own.
	budget := 0.5
	if timed {
		budget = 1.5
	}
	t0 := time.Now()
	setup, err := measureSetup(p.w, p.seed, budget)
	if err != nil {
		return nil, err
	}
	res.timed("setup", t0)
	var run *simRun
	if timed {
		if run, err = measureTimed(p, res, setup); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := measureTraced(p, res, setup, run); err != nil {
			return nil, err
		}
	}
	return res, nil
}
