package main

import "testing"

func TestPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if v, ok := percentile(xs[:99], 0.9); ok {
		t.Errorf("p90 of 99 samples reported as supported (%g)", v)
	}
	v, ok := percentile(xs, 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %g, supported %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %g, supported %v; want 50, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Error("p50 of 19 samples reported as supported")
	}
	if v, ok := percentile(nil, 0.9); ok || v != 0 {
		t.Errorf("p90 of nothing = %g, supported %v", v, ok)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestDigestIsOrderFreeAndCutsAtTheHorizon(t *testing.T) {
	a := request{site: 1, create: 10, terminal: 50, pairs: 1, fidelity: 0.7}
	b := request{site: 2, origin: 1, create: -1, terminal: 60, code: 3}
	c := request{site: 1, create: 20, terminal: 90, pairs: 2, fidelity: 1.4}
	d1, n1 := digest([]request{a, b, c}, 100)
	d2, n2 := digest([]request{c, a, b}, 100)
	if d1 != d2 || n1 != 3 || n2 != 3 {
		t.Errorf("digest depends on order: %s (%d) vs %s (%d)", d1, n1, d2, n2)
	}
	prefix, n := digest([]request{c, a, b}, 60)
	if want, _ := digest([]request{a, b}, 60); prefix != want || n != 2 {
		t.Errorf("digest up to 60 covers %d requests (%s), want the first two (%s)", n, prefix, want)
	}
	changed := c
	changed.fidelity += 1e-12
	if d3, _ := digest([]request{a, b, changed}, 100); d3 == d1 {
		t.Error("digest ignores the delivered fidelity")
	}
}
