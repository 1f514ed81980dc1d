package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"text/tabwriter"

	"repro/internal/sim"
)

// HistogramStats is one histogram's snapshot: observation count, value sum,
// and nearest-rank quantiles at the bucket lower bound. Sim-time histograms
// are nanosecond-valued, so quantiles divide by 1e9 for seconds.
type HistogramStats struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P90   uint64  `json:"p90"`
	P99   uint64  `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry, serialisable as JSON
// (map keys sort, so output is deterministic) or a text table.
type Snapshot struct {
	SimSeconds float64                   `json:"sim_seconds"`
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. now stamps the snapshot
// with the sim clock so rates can be derived offline.
func (r *Registry) Snapshot(now sim.Time) Snapshot {
	snap := Snapshot{SimSeconds: now.Seconds()}
	if r == nil {
		return snap
	}
	snap.Counters = r.readCounters()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramStats, len(r.histograms))
		for name, h := range r.histograms {
			st := HistogramStats{
				Count: h.Count(),
				Sum:   h.Sum(),
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			}
			if st.Count > 0 {
				st.Mean = float64(st.Sum) / float64(st.Count)
			}
			snap.Histograms[name] = st
		}
	}
	return snap
}

// readCounters calls every registered counter's read function. The reads
// are the counting layers' code, so they run without the registry's lock.
func (r *Registry) readCounters() map[string]uint64 {
	r.mu.Lock()
	reads := maps.Clone(r.counters)
	r.mu.Unlock()
	if len(reads) == 0 {
		return nil
	}
	counters := make(map[string]uint64, len(reads))
	for name, read := range reads {
		counters[name] = read()
	}
	return counters
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable writes the snapshot as an aligned text table, one metric per
// row in sorted-name order.
func (s Snapshot) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# metrics snapshot at t=%.6fs\n", s.SimSeconds)
	if len(s.Counters) > 0 {
		fmt.Fprintln(tw, "counter\tvalue")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(tw, "%s\t%d\n", name, s.Counters[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(tw, "histogram\tcount\tmean\tp50\tp90\tp99")
		for _, name := range sortedKeys(s.Histograms) {
			st := s.Histograms[name]
			fmt.Fprintf(tw, "%s\t%d\t%.1f\t%d\t%d\t%d\n", name, st.Count, st.Mean, st.P50, st.P90, st.P99)
		}
	}
	return tw.Flush()
}

// classNames maps EGP priority classes to metric name suffixes
// (0 = network/NL, 1 = create-and-keep/CK, 2 = measure-directly/MD).
var classNames = [3]string{"nl", "ck", "md"}

// ClassHistograms is a per-request-class family of nanosecond-valued
// time-to-pair histograms, indexed by EGP priority.
type ClassHistograms struct {
	h [3]*Histogram
}

// NewClassHistograms registers one histogram per request class under
// prefix.<class> (e.g. "link.ttp_ns.md").
func NewClassHistograms(r *Registry, prefix string) *ClassHistograms {
	ch := &ClassHistograms{}
	for i, name := range classNames {
		ch.h[i] = r.Histogram(prefix + "." + name)
	}
	return ch
}

// Observe records a duration for one class. Out-of-range classes and nil
// receivers are no-ops.
func (ch *ClassHistograms) Observe(class int, d sim.Duration) {
	if ch == nil || class < 0 || class >= len(ch.h) {
		return
	}
	ch.h[class].Observe(int64(d))
}

// Class returns the histogram of one class (nil when out of range).
func (ch *ClassHistograms) Class(class int) *Histogram {
	if ch == nil || class < 0 || class >= len(ch.h) {
		return nil
	}
	return ch.h[class]
}
