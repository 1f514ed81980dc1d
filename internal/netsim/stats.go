package netsim

import (
	"math"

	"repro/internal/egp"
	"repro/internal/obs"
)

// LinkStats summarises one link's delivered performance over a run (or the
// aggregate over all links when Link is "aggregate").
type LinkStats struct {
	Link                               string
	Requests                           uint64
	Errors                             uint64
	Pairs                              int
	OKRate                             float64 // delivered pairs per simulated second
	Fidelity                           float64 // mean delivered fidelity
	LatencyP50, LatencyP90, LatencyP99 float64 // per-pair latency percentiles, seconds
	QueueMean                          float64
	QueueMax                           float64
	// Robustness surface, fed by the fault injector (all zero in fault-free
	// runs): Downs counts outages, DowntimeSeconds the cumulative time spent
	// administratively down (including a still-open outage at run end), and
	// RecoverySeconds the mean time from repair to the first delivered pair.
	Downs           uint64
	DowntimeSeconds float64
	RecoverySeconds float64
}

// lanes merges a per-priority series across the priority lanes in priority
// order.
func lanes(s *[egp.NumQueues]obs.Series) *obs.Series {
	out := &obs.Series{}
	for i := range s {
		out.Merge(&s[i])
	}
	return out
}

// statsFromSeries builds one link's summary from its account plus the
// already-merged fidelity and per-pair latency series.
func (l *Link) statsFromSeries(fid, lat *obs.Series) LinkStats {
	a := &l.Account
	pairs := fid.Count()
	st := LinkStats{
		Link:            l.Name,
		Requests:        l.Submitted,
		Errors:          l.Errors(),
		Pairs:           pairs,
		OKRate:          obs.SafeRate(float64(pairs), a.DurationSeconds()),
		Fidelity:        fid.Mean(),
		LatencyP50:      lat.Percentile(50),
		LatencyP90:      lat.Percentile(90),
		LatencyP99:      lat.Percentile(99),
		QueueMean:       a.queue.Mean(),
		QueueMax:        a.queue.Max(),
		Downs:           l.Downs,
		DowntimeSeconds: l.DowntimeAt(l.Eng.Now()).Seconds(),
	}
	if l.Recoveries > 0 {
		st.RecoverySeconds = l.RecoveryTotal.Seconds() / float64(l.Recoveries)
	}
	return st
}

// Stats computes one link's summary from its account.
func (l *Link) Stats() LinkStats {
	return l.statsFromSeries(lanes(&l.Account.fidelity), lanes(&l.Account.pairLatency))
}

// Stats returns the per-link summaries in link-ID order plus the aggregate
// row computed from the pooled raw observations (so aggregate percentiles
// are true percentiles, not averages of per-link percentiles). Each link's
// merged series is computed once and reused for both the per-link row and
// the aggregate pool.
func (nw *Network) Stats() (perLink []LinkStats, aggregate LinkStats) {
	var fid, lat, queue obs.Series
	duration := 0.0
	for _, l := range nw.Links {
		linkFid, linkLat := lanes(&l.Account.fidelity), lanes(&l.Account.pairLatency)
		row := l.statsFromSeries(linkFid, linkLat)
		perLink = append(perLink, row)
		fid.Merge(linkFid)
		lat.Merge(linkLat)
		queue.Merge(&l.Account.queue)
		aggregate.Requests += l.Submitted
		aggregate.Errors += row.Errors
		aggregate.Downs += row.Downs
		aggregate.DowntimeSeconds += row.DowntimeSeconds
		aggregate.RecoverySeconds += row.RecoverySeconds * float64(row.Downs)
		duration = max(duration, l.Account.DurationSeconds())
	}
	aggregate.Link = "aggregate"
	aggregate.Pairs = fid.Count()
	aggregate.OKRate = obs.SafeRate(float64(aggregate.Pairs), duration)
	aggregate.Fidelity = fid.Mean()
	aggregate.LatencyP50 = lat.Percentile(50)
	aggregate.LatencyP90 = lat.Percentile(90)
	aggregate.LatencyP99 = lat.Percentile(99)
	aggregate.QueueMean = queue.Mean()
	aggregate.QueueMax = queue.Max()
	if aggregate.Downs > 0 {
		aggregate.RecoverySeconds /= float64(aggregate.Downs)
	}
	return perLink, aggregate
}

// MeanStats averages the same link's stats across trials, field by field, in
// trial order (so the result is independent of execution interleaving).
// Fidelity is weighted by delivered pairs and latency percentiles average
// only over trials that delivered, so empty trials do not drag quality
// metrics towards zero. It is total on degenerate input: an empty slice
// yields the zero value, a single trial yields that trial's stats, and
// all-empty trials yield zero quality metrics — never NaN.
func MeanStats(rows []LinkStats) LinkStats {
	var out LinkStats
	if len(rows) == 0 {
		return out
	}
	out.Link = rows[0].Link
	n := float64(len(rows))
	var requests, errs, downs, pairs, fidW, latTrials float64
	for _, r := range rows {
		requests += float64(r.Requests)
		errs += float64(r.Errors)
		downs += float64(r.Downs)
		pairs += float64(r.Pairs)
		out.OKRate += r.OKRate / n
		out.QueueMean += r.QueueMean / n
		out.DowntimeSeconds += r.DowntimeSeconds / n
		out.RecoverySeconds += r.RecoverySeconds / n
		if r.QueueMax > out.QueueMax {
			out.QueueMax = r.QueueMax
		}
		if r.Pairs > 0 {
			w := float64(r.Pairs)
			out.Fidelity += r.Fidelity * w
			fidW += w
			out.LatencyP50 += r.LatencyP50
			out.LatencyP90 += r.LatencyP90
			out.LatencyP99 += r.LatencyP99
			latTrials++
		}
	}
	if fidW > 0 {
		out.Fidelity /= fidW
	}
	if latTrials > 0 {
		out.LatencyP50 /= latTrials
		out.LatencyP90 /= latTrials
		out.LatencyP99 /= latTrials
	}
	out.Requests = uint64(math.Round(requests / n))
	out.Errors = uint64(math.Round(errs / n))
	out.Downs = uint64(math.Round(downs / n))
	out.Pairs = int(math.Round(pairs / n))
	return out
}
