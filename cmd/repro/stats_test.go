package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/quantum"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// statLines runs trial 0 of a spec for the given simulated seconds on the
// dense backend and renders every statistic a table is printed from, one
// line per row with %+v (which prints each float exactly): the per-link and
// aggregate rows of nw.Stats(), the per-path and aggregate rows of
// svc.Stats() and the per-class SLO rows.
func statLines(t *testing.T, path string, seconds float64) []string {
	t.Helper()
	sp, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c.Seconds = seconds
	c.Config.Backend = quantum.BackendDense
	r, err := runTrial(c, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range r.perLink {
		lines = append(lines, fmt.Sprintf("%+v", row))
	}
	if c.Service == nil {
		lines = append(lines, fmt.Sprintf("%+v", r.linkAgg))
	}
	for _, row := range r.perPath {
		lines = append(lines, fmt.Sprintf("%+v", row))
	}
	if c.Service != nil {
		lines = append(lines, fmt.Sprintf("%+v", r.pathAgg))
	}
	if len(c.Classes) > 0 {
		for _, s := range workload.BuildSLO(c.Classes, r.accounts, r.oldest, c.Seconds) {
			lines = append(lines, fmt.Sprintf("%+v", s))
		}
	}
	return lines
}

// TestStatsMatchRecordedRuns pins every field of the statistics behind the
// printed tables to values recorded before the statistics moved from the
// deleted metrics package to their owners: a fixed-seed multi-link mixed
// workload (open-loop NL and MD, closed-loop CK with deadlines), the same
// chain under an outage plan (downtime and recovery fields) and an
// e2e-chain5 service. Any change to how a sample is kept, merged, averaged
// or ranked fails it.
func TestStatsMatchRecordedRuns(t *testing.T) {
	cases := []struct {
		spec    string
		seconds float64
		want    []string
	}{
		{"../../scenarios/chain8-mixed.json", 1, []string{
			"{Link:n0-n1 Requests:7 Errors:0 Pairs:5 OKRate:5 Fidelity:0.6920163673868611 LatencyP50:0.102901101 LatencyP90:0.294208134 LatencyP99:0.294208134 QueueMean:1.15 QueueMax:3 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n1-n2 Requests:10 Errors:1 Pairs:4 OKRate:4 Fidelity:0.6951724149704622 LatencyP50:0.080095911 LatencyP90:0.278818417 LatencyP99:0.278818417 QueueMean:2 QueueMax:5 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n2-n3 Requests:10 Errors:0 Pairs:9 OKRate:9 Fidelity:0.6934754635480561 LatencyP50:0.248056839 LatencyP90:0.370061158 LatencyP99:0.370061158 QueueMean:1.8 QueueMax:2 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n3-n4 Requests:7 Errors:1 Pairs:4 OKRate:4 Fidelity:0.7075583075176125 LatencyP50:0.179954404 LatencyP90:0.412342541 LatencyP99:0.412342541 QueueMean:1.5 QueueMax:3 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n4-n5 Requests:9 Errors:1 Pairs:7 OKRate:7 Fidelity:0.6944693250806858 LatencyP50:0.155132162 LatencyP90:0.318663891 LatencyP99:0.318663891 QueueMean:2 QueueMax:4 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n5-n6 Requests:11 Errors:0 Pairs:8 OKRate:8 Fidelity:0.6914494633543643 LatencyP50:0.26001056 LatencyP90:0.439073886 LatencyP99:0.439073886 QueueMean:2.2 QueueMax:5 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n6-n7 Requests:12 Errors:0 Pairs:10 OKRate:10 Fidelity:0.6990409111203653 LatencyP50:0.090415088 LatencyP90:0.210230409 LatencyP99:0.219687842 QueueMean:1.25 QueueMax:3 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:aggregate Requests:66 Errors:3 Pairs:47 OKRate:47 Fidelity:0.695650510477074 LatencyP50:0.160911566 LatencyP90:0.370061158 LatencyP99:0.439073886 QueueMean:1.7 QueueMax:5 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Class:metro-data Priority:2 Offered:23 Rejected:0 NoRoute:0 Pairs:19 Completed:14 TimedOut:1 Outage:0 Failed:0 Outstanding:8 Throughput:19 TTPP50:0.155132162 TTPP99:0.439073886 TimeoutRate:0.06666666666666667 OldestWaitSeconds:0.317334018 Starved:false}",
			"{Class:net-layer Priority:0 Offered:7 Rejected:0 NoRoute:0 Pairs:2 Completed:2 TimedOut:2 Outage:0 Failed:0 Outstanding:3 Throughput:2 TTPP50:0.162003192 TTPP99:0.179954404 TimeoutRate:0.5 OldestWaitSeconds:0.081530491 Starved:false}",
			"{Class:keep-sessions Priority:1 Offered:36 Rejected:0 NoRoute:0 Pairs:26 Completed:26 TimedOut:0 Outage:0 Failed:0 Outstanding:10 Throughput:26 TTPP50:0.154773519 TTPP99:0.412342541 TimeoutRate:0 OldestWaitSeconds:0.348135649 Starved:false}",
		}},
		{"../../scenarios/chain8-outage.json", 1, []string{
			"{Link:n0-n1 Requests:8 Errors:0 Pairs:9 OKRate:9 Fidelity:0.6901097648763747 LatencyP50:0.149481215 LatencyP90:0.361028278 LatencyP99:0.361028278 QueueMean:1.35 QueueMax:4 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n1-n2 Requests:7 Errors:0 Pairs:6 OKRate:6 Fidelity:0.6933626468555337 LatencyP50:0.074541858 LatencyP90:0.122792187 LatencyP99:0.122792187 QueueMean:0.6 QueueMax:2 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n2-n3 Requests:8 Errors:0 Pairs:11 OKRate:11 Fidelity:0.6918327838229512 LatencyP50:0.165356575 LatencyP90:0.227855038 LatencyP99:0.255482638 QueueMean:1 QueueMax:2 Downs:1 DowntimeSeconds:0.040106205 RecoverySeconds:0.159437824}",
			"{Link:n3-n4 Requests:2 Errors:0 Pairs:2 OKRate:2 Fidelity:0.7000940441988969 LatencyP50:0.039139782 LatencyP90:0.063506902 LatencyP99:0.063506902 QueueMean:0.15 QueueMax:1 Downs:1 DowntimeSeconds:0.25 RecoverySeconds:0.5117441}",
			"{Link:n4-n5 Requests:4 Errors:0 Pairs:6 OKRate:6 Fidelity:0.6917644100390848 LatencyP50:0.22565031 LatencyP90:0.388453056 LatencyP99:0.388453056 QueueMean:0.8 QueueMax:2 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:n5-n6 Requests:5 Errors:2 Pairs:3 OKRate:3 Fidelity:0.6933626468555337 LatencyP50:0.140103724 LatencyP90:0.159512887 LatencyP99:0.159512887 QueueMean:0.6 QueueMax:2 Downs:1 DowntimeSeconds:0.078425858 RecoverySeconds:0.500347865}",
			"{Link:n6-n7 Requests:9 Errors:0 Pairs:11 OKRate:11 Fidelity:0.6900892527504614 LatencyP50:0.09046257 LatencyP90:0.115899467 LatencyP99:0.18579551 QueueMean:0.8 QueueMax:2 Downs:0 DowntimeSeconds:0 RecoverySeconds:0}",
			"{Link:aggregate Requests:43 Errors:2 Pairs:48 OKRate:48 Fidelity:0.6917326803443133 LatencyP50:0.10297343 LatencyP90:0.255482638 LatencyP99:0.388453056 QueueMean:0.7571428571428571 QueueMax:4 Downs:3 DowntimeSeconds:0.368532063 RecoverySeconds:0.3905099296666667}",
			"{Class:metro-data Priority:2 Offered:28 Rejected:2 NoRoute:2 Pairs:35 Completed:25 TimedOut:0 Outage:1 Failed:0 Outstanding:0 Throughput:35 TTPP50:0.114153187 TTPP99:0.388453056 TimeoutRate:0 OldestWaitSeconds:0 Starved:false}",
			"{Class:keep-traffic Priority:1 Offered:19 Rejected:2 NoRoute:2 Pairs:13 Completed:13 TimedOut:0 Outage:1 Failed:0 Outstanding:3 Throughput:13 TTPP50:0.09535135 TTPP99:0.300069291 TimeoutRate:0 OldestWaitSeconds:0.139936474 Starved:false}",
		}},
		{"../../scenarios/e2e-chain5.json", 3, []string{
			"{Path:n0>n1>n2>n3>n4 Hops:4 Requests:5 Completed:5 Failed:0 NoRoute:0 Reroutes:0 Retries:0 Pairs:5 OKRate:1.6666666666666667 Fidelity:0.32569881569413645 Predicted:0.34664472608740304 SwapP50:1e-07 SwapP90:1e-07 SwapP99:1e-07 E2EP50:0.330065475 E2EP99:0.437902925 TTPP99:0.437902925}",
			"{Path:aggregate Hops:4 Requests:5 Completed:5 Failed:0 NoRoute:0 Reroutes:0 Retries:0 Pairs:5 OKRate:1.6666666666666667 Fidelity:0.32569881569413645 Predicted:0.34664472608740304 SwapP50:1e-07 SwapP90:1e-07 SwapP99:1e-07 E2EP50:0.330065475 E2EP99:0.437902925 TTPP99:0.437902925}",
			"{Class:e2e Priority:0 Offered:5 Rejected:0 NoRoute:0 Pairs:5 Completed:5 TimedOut:0 Outage:0 Failed:0 Outstanding:0 Throughput:1.6666666666666667 TTPP50:0.330065475 TTPP99:0.437902925 TimeoutRate:0 OldestWaitSeconds:0 Starved:false}",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			got := statLines(t, tc.spec, tc.seconds)
			if len(got) != len(tc.want) {
				t.Fatalf("%d rows, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("row %d:\n got %s\nwant %s", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestMetricsCountersMatchRecordedRuns pins every counter of the -metrics
// snapshot to values recorded while each still had a second copy kept
// beside its layer's own count: a chain under an outage plan (fault events,
// errors), serially and on 4 shards, the e2e-chain5 service, and a service
// whose flow is rerouted and then cut off. The station's three disagreement
// counters were added later, pinned at their first recorded values.
func TestMetricsCountersMatchRecordedRuns(t *testing.T) {
	outage := map[string]uint64{
		"egp.errors": 2, "egp.expires": 0, "egp.oks": 96,
		"mhp.attempts": 701383, "mhp.matched": 350682, "mhp.successes": 48,
		"mhp.no_message_other": 11, "mhp.queue_mismatches": 0, "mhp.time_mismatches": 5,
		"netsim.fault_events": 7, "netsim.oks": 48, "netsim.submitted": 43,
	}
	// A 3x3 grid whose service path loses one link at a time, rerouting
	// requests in flight, and then its source node, failing them NOROUTE.
	reroute := writeSpec(t, "grid9-reroute.json", `{
  "name": "grid9-reroute",
  "description": "e2e flow 0-8 on a 3x3 grid under short link outages, then a source outage",
  "topology": {"kind": "grid", "nodes": 9},
  "protocol": {"hold_pairs": true},
  "run": {"seconds": 3, "trials": 1},
  "traffic": {"classes": [{"name": "e2e", "priority": "NL", "arrival": {"kind": "poisson", "load": 0.5},
    "max_pairs": 1, "min_fidelity": 0.35}]},
  "service": {"src": 0, "dst": 8, "cost": "hops"},
  "faults": {"events": [
    {"at_s": 0.2, "state": "down", "link": [5, 8]}, {"at_s": 0.25, "state": "up", "link": [5, 8]},
    {"at_s": 0.5, "state": "down", "link": [0, 1]}, {"at_s": 0.55, "state": "up", "link": [0, 1]},
    {"at_s": 0.8, "state": "down", "link": [1, 2]}, {"at_s": 0.85, "state": "up", "link": [1, 2]},
    {"at_s": 1.1, "state": "down", "link": [2, 5]}, {"at_s": 1.15, "state": "up", "link": [2, 5]},
    {"at_s": 1.4, "state": "down", "link": [5, 8]}, {"at_s": 1.45, "state": "up", "link": [5, 8]},
    {"at_s": 1.7, "state": "down", "link": [0, 1]}, {"at_s": 1.75, "state": "up", "link": [0, 1]},
    {"at_s": 2, "state": "down", "link": [1, 2]}, {"at_s": 2.05, "state": "up", "link": [1, 2]},
    {"at_s": 2.3, "state": "down", "link": [2, 5]}, {"at_s": 2.35, "state": "up", "link": [2, 5]},
    {"at_s": 2.5, "state": "down", "node": 0}, {"at_s": 2.8, "state": "up", "node": 0}]}
}`)
	cases := []struct {
		name string
		args []string
		want map[string]uint64
	}{
		{"chain8-outage", []string{"../../scenarios/chain8-outage.json", "-seconds", "1"}, outage},
		{"chain8-outage-shards4", []string{"../../scenarios/chain8-outage.json", "-seconds", "1", "-shards", "4"}, outage},
		{"e2e-chain5", []string{"../../scenarios/e2e-chain5.json", "-seconds", "3"}, map[string]uint64{
			"e2e.fails": 0, "e2e.noroute": 0, "e2e.oks": 5, "e2e.reroutes": 0, "e2e.swaps": 15,
			"egp.errors": 0, "egp.expires": 0, "egp.oks": 40,
			"mhp.attempts": 365920, "mhp.matched": 182960, "mhp.successes": 20,
			"mhp.no_message_other": 0, "mhp.queue_mismatches": 0, "mhp.time_mismatches": 0,
			"netsim.fault_events": 0, "netsim.oks": 20, "netsim.submitted": 20,
		}},
		{"grid9-reroute", []string{reroute}, map[string]uint64{
			"e2e.fails": 4, "e2e.noroute": 4, "e2e.oks": 8, "e2e.reroutes": 9, "e2e.swaps": 31,
			"egp.errors": 10, "egp.expires": 0, "egp.oks": 142,
			"mhp.attempts": 1345797, "mhp.matched": 672636, "mhp.successes": 71,
			"mhp.no_message_other": 522, "mhp.queue_mismatches": 0, "mhp.time_mismatches": 3,
			"netsim.fault_events": 20, "netsim.oks": 71, "netsim.submitted": 84,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "metrics.json")
			args := append([]string{"run"}, tc.args...)
			if code, _, stderr := repro(t, append(args, "-trials", "1", "-metrics", out)...); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var snap obs.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(snap.Counters, tc.want) {
				t.Errorf("counters\n got %v\nwant %v", snap.Counters, tc.want)
			}
		})
	}
}
