package main

import "testing"

// tiny returns a copy of the workload sized for a unit test: no warm-up and,
// end to end, arrivals dense enough that a 50 ms window sees CREATEs.
func tiny(w *workload) *workload {
	c := *w
	c.warmup = 0
	if c.endToEnd() {
		c.ratePerFlow = 100
	}
	return &c
}

// outcome is what two runs of the same spec and seed must agree on.
type outcome struct {
	digest           string
	requests         int
	attempts, events uint64
}

func outcomeOf(r *simRun) outcome {
	d, n := digest(r.reqs, r.end)
	return outcome{digest: d, requests: n, attempts: r.c1.attempts, events: r.c1.events}
}

func TestEveryWorkloadRepeatsExactlyAndTracingDoesNotPerturbIt(t *testing.T) {
	for i := range workloads {
		w := tiny(&workloads[i])
		window := simNS(50e6)
		if w.shards > 1 {
			window = simNS(10e6) // 63 links: keep the test fast
		}
		t.Run(w.Name, func(t *testing.T) {
			first, err := simulate(w, 1, window, buildOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := outcomeOf(first)
			if want.attempts == 0 {
				t.Fatal("the run made no entanglement attempt")
			}
			again, err := simulate(w, 1, window, buildOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeOf(again); got != want {
				t.Errorf("repeat gave %+v, first run %+v", got, want)
			}
			traced, err := simulate(w, 1, window, buildOptions{}, &tracing{spans: newSpanLog()})
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeOf(traced); got != want {
				t.Errorf("traced run gave %+v, untraced %+v", got, want)
			}
			if traced.records == 0 {
				t.Error("the traced run recorded nothing")
			}
			if w.shards > 1 {
				sharded, err := simulate(w, 1, window, buildOptions{shards: w.shards}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := outcomeOf(sharded); got != want {
					t.Errorf("sharded engine gave %+v, serial %+v", got, want)
				}
			}
			other, err := simulate(w, 2, window, buildOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeOf(other); got == want {
				t.Errorf("seed 2 reproduced seed 1: %+v", got)
			}

			// A shorter run is a prefix of a longer one.
			half, err := simulate(w, 1, window/2, buildOptions{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			prefix, _ := digest(first.reqs, half.end)
			if got, _ := digest(half.reqs, half.end); got != prefix {
				t.Errorf("half-length run digest %s, the full run's first half %s", got, prefix)
			}
		})
	}
}

func TestSpansNestAndSelfTimeAddsUp(t *testing.T) {
	l := newSpanLog()
	root := l.begin("root")
	a := l.begin("a")
	a.end()
	b := l.begin("b")
	c := l.begin("c")
	c.end()
	b.end()
	root.end()
	if len(l.spans) != 4 || len(l.open) != 0 {
		t.Fatalf("%d spans, %d still open", len(l.spans), len(l.open))
	}
	parents := []int{-1, 0, 0, 2}
	for i, s := range l.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, parents[i])
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	l.fillSelf()
	var total int64
	for _, s := range l.spans {
		total += s.SelfNS
	}
	if want := l.spans[0].EndNS - l.spans[0].StartNS; total != want {
		t.Errorf("self times sum to %d ns, the root span lasts %d", total, want)
	}
	var none *spanLog
	none.begin("ignored").end()
}
