package network

import (
	"math"

	"repro/internal/obs"
)

// pathAgg accumulates the per-path observations of one run.
type pathAgg struct {
	path        string
	hops        int
	requests    uint64
	completed   uint64
	failed      uint64
	noRoute     uint64
	reroutes    uint64
	retries     uint64
	pairs       int
	fidelity    obs.Series
	predicted   obs.Series
	swapLatency obs.Series
	pairLatency obs.Series
	ttp         obs.Series
}

// aggFor returns (creating on first use) the aggregate bucket of a path,
// keeping first-seen order for deterministic reporting.
func (s *Service) aggFor(p Path) *pathAgg {
	key := p.String()
	agg, ok := s.aggs[key]
	if !ok {
		agg = &pathAgg{path: key, hops: p.Hops()}
		s.aggs[key] = agg
		s.aggOrder = append(s.aggOrder, key)
	}
	return agg
}

// pathAggFor is the stats bucket a request reports into: the bucket of the
// path it was submitted on, even after reroutes changed the live path.
func (s *Service) pathAggFor(r *requestState) *pathAgg {
	if r.agg != nil {
		return r.agg
	}
	return s.aggFor(r.path)
}

// PathStats summarises one path's delivered end-to-end performance (or the
// pooled aggregate when Path is "aggregate").
type PathStats struct {
	Path      string
	Hops      int
	Requests  uint64
	Completed uint64
	Failed    uint64
	// NoRoute counts synchronous no-route rejects (request never admitted:
	// disconnected under outages, or fidelity floor infeasible), separately
	// from asynchronous Failed requests. The aggregate row also folds in
	// rejects that resolved no path at all.
	NoRoute uint64
	// Reroutes counts completed re-paths of admitted requests; Retries counts
	// backoff attempts (including ones that then found no path).
	Reroutes  uint64
	Retries   uint64
	Pairs     int
	OKRate    float64 // delivered end-to-end pairs per simulated second
	Fidelity  float64 // mean delivered fidelity
	Predicted float64 // mean closed-form prediction
	// Swap latency percentiles: delivery minus last constituent link pair,
	// in seconds.
	SwapP50, SwapP90, SwapP99 float64
	// End-to-end per-pair latency percentiles: delivery minus submission.
	E2EP50, E2EP99 float64
	// Time-to-pair p99: the per-pair production time (delivery minus the
	// previous delivery of the same request; the first pair counts from
	// submission), in seconds. Unlike E2EP99 it does not accumulate across
	// a request's earlier pairs, so it is the per-class SLO signal.
	TTPP99 float64
}

// statsFrom summarises one aggregate bucket over the given interval.
func statsFrom(agg *pathAgg, seconds float64) PathStats {
	return PathStats{
		Path:      agg.path,
		Hops:      agg.hops,
		Requests:  agg.requests,
		Completed: agg.completed,
		Failed:    agg.failed,
		NoRoute:   agg.noRoute,
		Reroutes:  agg.reroutes,
		Retries:   agg.retries,
		Pairs:     agg.pairs,
		OKRate:    obs.SafeRate(float64(agg.pairs), seconds),
		Fidelity:  agg.fidelity.Mean(),
		Predicted: agg.predicted.Mean(),
		SwapP50:   agg.swapLatency.Percentile(50),
		SwapP90:   agg.swapLatency.Percentile(90),
		SwapP99:   agg.swapLatency.Percentile(99),
		E2EP50:    agg.pairLatency.Percentile(50),
		E2EP99:    agg.pairLatency.Percentile(99),
		TTPP99:    agg.ttp.Percentile(99),
	}
}

// Stats returns the per-path summaries in first-seen order plus the pooled
// aggregate row, whose percentiles are true percentiles over the pooled raw
// observations (not averages of per-path percentiles).
func (s *Service) Stats() (perPath []PathStats, aggregate PathStats) {
	seconds := s.end.Seconds()
	var fid, pred, swapLat, e2eLat, ttp obs.Series
	maxHops := 0
	for _, key := range s.aggOrder {
		agg := s.aggs[key]
		perPath = append(perPath, statsFrom(agg, seconds))
		aggregate.Requests += agg.requests
		aggregate.Completed += agg.completed
		aggregate.Failed += agg.failed
		aggregate.NoRoute += agg.noRoute
		aggregate.Reroutes += agg.reroutes
		aggregate.Retries += agg.retries
		aggregate.Pairs += agg.pairs
		if agg.hops > maxHops {
			maxHops = agg.hops
		}
		fid.Merge(&agg.fidelity)
		pred.Merge(&agg.predicted)
		swapLat.Merge(&agg.swapLatency)
		e2eLat.Merge(&agg.pairLatency)
		ttp.Merge(&agg.ttp)
	}
	aggregate.Path = "aggregate"
	aggregate.Hops = maxHops
	// Rejects that resolved no path at all belong to no per-path row; they
	// are offered traffic, so the aggregate row carries them.
	aggregate.Requests += s.noPathRejects
	aggregate.NoRoute += s.noPathRejects
	aggregate.OKRate = obs.SafeRate(float64(aggregate.Pairs), seconds)
	aggregate.Fidelity = fid.Mean()
	aggregate.Predicted = pred.Mean()
	aggregate.SwapP50 = swapLat.Percentile(50)
	aggregate.SwapP90 = swapLat.Percentile(90)
	aggregate.SwapP99 = swapLat.Percentile(99)
	aggregate.E2EP50 = e2eLat.Percentile(50)
	aggregate.E2EP99 = e2eLat.Percentile(99)
	aggregate.TTPP99 = ttp.Percentile(99)
	return perPath, aggregate
}

// MeanPathStats averages the same path's stats across trials in trial order,
// mirroring netsim.MeanStats: fidelity and prediction weight by delivered
// pairs, latency percentiles average only over delivering trials, and the
// helper is total on empty input (no NaN).
func MeanPathStats(rows []PathStats) PathStats {
	var out PathStats
	if len(rows) == 0 {
		return out
	}
	out.Path = rows[0].Path
	for _, r := range rows {
		if r.Hops > out.Hops {
			out.Hops = r.Hops
		}
	}
	n := float64(len(rows))
	var requests, completed, failed, noRoute, reroutes, retries, pairs, fidW, latTrials float64
	for _, r := range rows {
		requests += float64(r.Requests)
		completed += float64(r.Completed)
		failed += float64(r.Failed)
		noRoute += float64(r.NoRoute)
		reroutes += float64(r.Reroutes)
		retries += float64(r.Retries)
		pairs += float64(r.Pairs)
		out.OKRate += r.OKRate / n
		if r.Pairs > 0 {
			w := float64(r.Pairs)
			out.Fidelity += r.Fidelity * w
			out.Predicted += r.Predicted * w
			fidW += w
			out.SwapP50 += r.SwapP50
			out.SwapP90 += r.SwapP90
			out.SwapP99 += r.SwapP99
			out.E2EP50 += r.E2EP50
			out.E2EP99 += r.E2EP99
			out.TTPP99 += r.TTPP99
			latTrials++
		}
	}
	if fidW > 0 {
		out.Fidelity /= fidW
		out.Predicted /= fidW
	}
	if latTrials > 0 {
		out.SwapP50 /= latTrials
		out.SwapP90 /= latTrials
		out.SwapP99 /= latTrials
		out.E2EP50 /= latTrials
		out.E2EP99 /= latTrials
		out.TTPP99 /= latTrials
	}
	out.Requests = uint64(math.Round(requests / n))
	out.Completed = uint64(math.Round(completed / n))
	out.Failed = uint64(math.Round(failed / n))
	out.NoRoute = uint64(math.Round(noRoute / n))
	out.Reroutes = uint64(math.Round(reroutes / n))
	out.Retries = uint64(math.Round(retries / n))
	out.Pairs = int(math.Round(pairs / n))
	return out
}
