package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of a log-linear histogram: values
// 0..7 land in exact buckets, every octave above is split into 8 linear
// sub-buckets, covering the full uint64 range (~2.3% worst-case relative
// error at the bucket lower bound).
const histBuckets = 8 + 61*8

// bucketIndex maps a value to its log-linear bucket.
func bucketIndex(v uint64) int {
	if v < 8 {
		return int(v)
	}
	octave := bits.Len64(v) - 4
	return 8 + octave*8 + int((v>>uint(octave))&7)
}

// bucketLow is the inclusive lower bound of a bucket, used as the
// deterministic representative value when reporting quantiles.
func bucketLow(i int) uint64 {
	if i < 8 {
		return uint64(i)
	}
	octave := (i - 8) / 8
	sub := (i - 8) % 8
	return uint64(8+sub) << uint(octave)
}

// Histogram is a fixed-size log-linear distribution with 0-alloc, lock-free
// Observe. Values are non-negative int64s (sim-time histograms record
// nanoseconds); negative observations clamp to 0. Nil-safe.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Zero allocations; safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the running total of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the lower bound of the bucket containing the q-quantile
// (q in [0,1], nearest-rank), or 0 when empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum > rank {
			return bucketLow(i)
		}
	}
	return bucketLow(histBuckets - 1)
}

// Registry is a named collection of metrics: counters the layers keep as
// their own fields, read through CounterFunc when a snapshot is taken, and
// histograms observed directly. Registration takes a lock and may allocate;
// the histogram handles are lock-free. A nil *Registry is the disabled
// registry: it ignores every registration, hands out nil histograms, and all
// operations on those are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]func() uint64
	histograms map[string]*Histogram
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]func() uint64{},
		histograms: map[string]*Histogram{},
	}
}

// CounterFunc registers a counter whose value read reports at snapshot
// time. The count stays where the layer that counts the event keeps it, so
// a run with the registry off counts the same. A name registered twice
// panics; a nil registry ignores the call.
func (r *Registry) CounterFunc(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.counters[name]; dup {
		panic("obs: counter " + name + " registered twice")
	}
	r.counters[name] = read
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// names returns the sorted keys of one metric family.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
