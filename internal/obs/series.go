package obs

import (
	"math"
	"sort"
)

// Series keeps every observation of one statistic exactly, for the report
// tables and the paper's estimators: means, standard errors and
// nearest-rank percentiles over the raw samples. Histogram is its
// bounded-memory counterpart for the hot-path registry. Series is not safe
// for concurrent use; each owner (a link, a path, a class account) mutates
// its own on its engine's goroutine and merges in a fixed order.
type Series struct {
	values []float64
	sum    float64
	sumSq  float64
	sorted []float64 // lazily sorted copy for percentiles; nil when stale
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	s.sumSq += v * v
	s.sorted = nil
}

// Merge appends other's observations to s in their recorded order, so the
// running sums round exactly as if each had been added to s directly.
func (s *Series) Merge(other *Series) {
	s.values = append(s.values, other.values...)
	for _, v := range other.values {
		s.sum += v
		s.sumSq += v * v
	}
	s.sorted = nil
}

// Count returns the number of observations.
func (s *Series) Count() int { return len(s.values) }

// Mean returns the sample mean (0 when empty).
func (s *Series) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (s *Series) variance() float64 {
	n := float64(len(s.values))
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	v := (s.sumSq - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// StdErr returns the standard error of the mean (the parenthesised values of
// Tables 1, 3 and 4).
func (s *Series) StdErr() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return math.Sqrt(s.variance()) / math.Sqrt(float64(len(s.values)))
}

// Max returns the largest observation (0 when empty).
func (s *Series) Max() float64 {
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using nearest-rank on
// the sorted observations. The sorted copy is cached until the next Add or
// Merge, so a sweep of p50/p90/p99 costs one sort.
func (s *Series) Percentile(p float64) float64 {
	if s.sorted == nil && len(s.values) > 0 {
		s.sorted = append(make([]float64, 0, len(s.values)), s.values...)
		sort.Float64s(s.sorted)
	}
	sorted := s.sorted
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := max(0, int(math.Ceil(p/100*float64(len(sorted))))-1)
	return sorted[rank]
}

// SafeRate divides a count by a duration in seconds, returning 0 for empty,
// zero or non-finite intervals instead of NaN/Inf.
func SafeRate(count, seconds float64) float64 {
	if seconds <= 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return 0
	}
	return count / seconds
}
