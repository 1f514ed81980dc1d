package obs

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.StdErr() != 0 || s.Count() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Mean() != 3 {
		t.Fatalf("mean = %v, count = %d", s.Mean(), s.Count())
	}
	if math.Abs(s.StdErr()-math.Sqrt(2.5/5)) > 1e-12 {
		t.Fatalf("stderr = %v", s.StdErr())
	}
	if s.Max() != 5 {
		t.Fatalf("max = %v, want 5", s.Max())
	}
	if s.Percentile(50) != 3 || s.Percentile(0) != 1 || s.Percentile(100) != 5 {
		t.Fatalf("percentiles wrong: %v %v %v", s.Percentile(50), s.Percentile(0), s.Percentile(100))
	}
}

func TestSeriesPercentile(t *testing.T) {
	cases := []struct {
		name          string
		values        []float64
		p50, p90, p99 float64
	}{
		{name: "empty", values: nil, p50: 0, p90: 0, p99: 0},
		{name: "single", values: []float64{7}, p50: 7, p90: 7, p99: 7},
		{name: "two", values: []float64{1, 9}, p50: 1, p90: 9, p99: 9},
		{name: "duplicate-heavy", values: []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 100}, p50: 5, p90: 5, p99: 100},
		{name: "all-equal", values: []float64{2, 2, 2, 2}, p50: 2, p90: 2, p99: 2},
		{name: "unsorted", values: []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10}, p50: 5, p90: 9, p99: 10},
		{name: "hundred", values: func() []float64 {
			v := make([]float64, 100)
			for i := range v {
				v[i] = float64(100 - i)
			}
			return v
		}(), p50: 50, p90: 90, p99: 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Series
			for _, v := range tc.values {
				s.Add(v)
			}
			checks := []struct {
				p    float64
				want float64
			}{{50, tc.p50}, {90, tc.p90}, {99, tc.p99}}
			for _, c := range checks {
				if got := s.Percentile(c.p); got != c.want {
					t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
				}
			}
		})
	}
}

func TestSeriesPercentileCacheInvalidation(t *testing.T) {
	var s Series
	s.Add(10)
	if s.Percentile(50) != 10 {
		t.Fatalf("p50 = %v, want 10", s.Percentile(50))
	}
	// Adding after a percentile query must invalidate the sorted cache.
	s.Add(1)
	s.Add(2)
	if got := s.Percentile(50); got != 2 {
		t.Fatalf("p50 after adds = %v, want 2", got)
	}
	// So must merging.
	var more Series
	more.Add(0)
	s.Merge(&more)
	if got := s.Percentile(0); got != 0 {
		t.Fatalf("p0 after merge = %v, want 0", got)
	}
	// Percentile queries must not reorder the raw observation log.
	if !slices.Equal(s.values, []float64{10, 1, 2, 0}) {
		t.Fatalf("observations reordered: %v", s.values)
	}
}

// TestSeriesMergeMatchesAdds pins the merge the tables pool with: merging
// series one after another is bit-identical to adding every observation to
// one series in the same order, rounding of the running sums included.
func TestSeriesMergeMatchesAdds(t *testing.T) {
	parts := [][]float64{{0.1, 0.7, 1e-9}, {}, {3.3, 0.2}, {1e6, 0.3}}
	var merged, added Series
	for _, p := range parts {
		var s Series
		for _, v := range p {
			s.Add(v)
			added.Add(v)
		}
		merged.Merge(&s)
	}
	if merged.Count() != added.Count() || merged.Mean() != added.Mean() || merged.StdErr() != added.StdErr() {
		t.Fatalf("merged %d/%v/%v, added %d/%v/%v", merged.Count(), merged.Mean(), merged.StdErr(), added.Count(), added.Mean(), added.StdErr())
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if merged.Percentile(p) != added.Percentile(p) {
			t.Errorf("p%v: merged %v, added %v", p, merged.Percentile(p), added.Percentile(p))
		}
	}
}

// Property: Series mean always lies between the smallest and the largest
// observation; stderr is non-negative.
func TestPropertySeriesBounds(t *testing.T) {
	f := func(values []float64) bool {
		var s Series
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				continue
			}
			s.Add(v)
		}
		if s.Count() == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Percentile(0)-1e-9 && m <= s.Max()+1e-9 && s.StdErr() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSafeRate pins the shared division guard against empty, zero and
// non-finite denominators.
func TestSafeRate(t *testing.T) {
	cases := []struct {
		count, seconds, want float64
	}{
		{10, 2, 5},
		{10, 0, 0},
		{10, -1, 0},
		{0, 0, 0},
		{10, math.NaN(), 0},
		{10, math.Inf(1), 0},
	}
	for _, tc := range cases {
		if got := SafeRate(tc.count, tc.seconds); got != tc.want {
			t.Errorf("SafeRate(%g, %g) = %g, want %g", tc.count, tc.seconds, got, tc.want)
		}
	}
}
