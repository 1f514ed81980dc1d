// Command benchmark is the repo's benchmark: it drives the simulator in
// process and from outside — it builds networks from spec files it owns, is
// itself the caller of CREATE for end-to-end traffic, observes deliveries
// through the public hooks and times only calls into public functions.
//
//	go run ./benchmark                      every workload, timed and traced
//	go run ./benchmark -repeat 2            the stability check
//	go run ./benchmark -check               also compare with benchmark/expected
//	go run ./benchmark --workload link-sat --seed 3 --seconds 10 --trace 0
//
// The last form is the one the driver runs; its last line of output is one
// JSON object. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring time the
// workload windows and the golden digests are sized for.
const defaultSeconds = 10

// Paths are relative to the repo root, where the command runs.
const (
	outDir      = "benchmark/out"
	expectedDir = "benchmark/expected"
)

// environment is recorded with every results file, so numbers can be traced
// to the host and commit that produced them.
type environment struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

// resultsFile is what the benchmark writes to <out>/results.json.
type resultsFile struct {
	Environment environment `json:"environment"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	// Passes holds one entry per -repeat pass, each with one result per
	// workload.
	Passes [][]*result `json:"passes"`
	WallS  float64     `json:"wall_s"`
}

// contractLine is the one JSON object the driver reads from the last line of
// standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// expected pins a workload's simulated outcome for one seed and run length.
type expected struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Digest   string             `json:"digest"`
	Sim      map[string]float64 `json:"sim"`
}

func expectedPath(workload string, seed int64) string {
	return filepath.Join(expectedDir, fmt.Sprintf("%s.seed%d.json", workload, seed))
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	repeat   int
	check    bool
	writeExp bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed handed to the program as Config.Seed")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "measuring time per workload; it buys a fixed simulated window")
	flag.StringVar(&o.trace, "trace", "both", "0: timed run, end-to-end metrics; 1: traced pair, per-layer metrics; both")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set this many times and compare the passes")
	flag.BoolVar(&o.check, "check", false, "compare digests and sim-based metrics with "+expectedDir)
	flag.BoolVar(&o.writeExp, "write-expected", false, "rewrite "+expectedDir+" from this run (a benchmark change)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// Both variables silently change netsim.DefaultConfig (queue discipline,
	// pair-state backend); a benchmark run under them measures another program.
	for _, v := range []string{"REPRO_QUEUE", "REPRO_BACKEND"} {
		if os.Getenv(v) != "" {
			return fmt.Errorf("%s is set; unset it, the benchmark measures the default configuration", v)
		}
	}
	var timed, traced bool
	switch o.trace {
	case "0":
		timed = true
	case "1":
		traced = true
	case "both":
		timed, traced = true, true
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.seconds <= 0 || o.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	var selected []*workload
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}

	runtime.GOMAXPROCS(2)
	file := resultsFile{
		Environment: environment{
			GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Commit: commit(), Started: time.Now().UTC().Format(time.RFC3339),
		},
		Seed: o.seed, Seconds: o.seconds,
	}
	start := time.Now()
	broken := false
	for pass := 0; pass < o.repeat; pass++ {
		var results []*result
		for _, w := range selected {
			// Workloads run one after another in one process; collect what
			// the previous one left behind first.
			runtime.GC()
			res, err := measure(plan{w: w, seed: o.seed, seconds: o.seconds}, timed, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if o.check && timed {
				checkExpected(res)
			}
			if o.writeExp && timed && len(res.Failures) == 0 {
				if err := writeExpected(res); err != nil {
					return err
				}
			}
			printResult(res)
			broken = broken || len(res.Failures) > 0
			results = append(results, res)
		}
		file.Passes = append(file.Passes, results)
	}
	if o.repeat > 1 && timed {
		broken = compareRepeats(file.Passes) || broken
	}
	file.WallS = time.Since(start).Seconds()
	if err := writeResults(&file); err != nil {
		return err
	}
	fmt.Printf("\nwall %.1f s; results in %s\n", file.WallS, filepath.Join(outDir, "results.json"))

	if len(selected) == 1 && o.trace != "both" && o.repeat == 1 {
		res := file.Passes[0][0]
		line := contractLine{Correct: !broken, Attempted: max(res.Operations, 1), Failed: res.Broken, Metrics: res.EndToEnd}
		if traced {
			line.Metrics = res.PerLayer
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
	}
	if broken {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

func writeResults(file *resultsFile) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
}

// simValues are the sim-based end-to-end values of a result.
func simValues(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, d := range endToEnd {
		if d.Base == baseSim {
			out[d.Name] = res.EndToEnd[d.Name].Value
		}
	}
	return out
}

// checkExpected holds the timed run to the golden file of its seed, when one
// exists for this run length. A change meant only to speed the simulator up
// must leave every sim-based number identical.
func checkExpected(res *result) {
	path := expectedPath(res.Workload, res.Seed)
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Printf("  -check: no golden file %s, skipped\n", path)
		return
	}
	var exp expected
	if err := json.Unmarshal(data, &exp); err != nil {
		res.fail("-check: %s: %v", path, err)
		return
	}
	if exp.Seconds != res.Seconds {
		fmt.Printf("  -check: %s is for -seconds %g, skipped\n", path, exp.Seconds)
		return
	}
	if exp.Digest != res.Digest {
		res.fail("-check: digest %s, %s expects %s", res.Digest, path, exp.Digest)
	}
	for name, got := range simValues(res) {
		if want := exp.Sim[name]; got != want {
			res.fail("-check: %s = %v, %s expects %v", name, got, path, want)
		}
	}
	fmt.Printf("  -check: compared with %s\n", path)
}

func writeExpected(res *result) error {
	if err := os.MkdirAll(expectedDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(expected{
		Workload: res.Workload, Seed: res.Seed, Seconds: res.Seconds,
		Digest: res.Digest, Sim: simValues(res),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath(res.Workload, res.Seed), append(data, '\n'), 0o644)
}

func printMetric(d metricDef, v value, note string) {
	base := d.Base
	if base != "" {
		base = " [" + base + "]"
	}
	fmt.Printf("  %-36s %16.6g %-9s%s%s\n", d.Name, v.Value, v.Unit, base, note)
}

func printResult(res *result) {
	fmt.Printf("\n== %s (seed %d, %.3f sim-s window) ==\n", res.Workload, res.Seed, res.WindowSimS)
	if res.EndToEnd != nil {
		fmt.Printf(" end to end (timed run, %.2f s wall, digest %s)\n", res.Info["window_wall_s"], res.Digest)
		for _, d := range endToEnd {
			note := ""
			if strings.HasPrefix(d.Name, "req_latency") {
				note = fmt.Sprintf("  (req_completed %.0f)", res.Info["req_completed"])
			}
			printMetric(d, res.EndToEnd[d.Name], note)
		}
	}
	if res.PerLayer != nil {
		fmt.Printf(" per layer (reference %.2f s and traced %.2f s wall over a quarter window, digest %s)\n",
			res.Info["reference_window_wall_s"], res.Info["traced_window_wall_s"], res.RefDigest)
		for _, d := range perLayer {
			printMetric(d, res.PerLayer[d.Name], "")
		}
	}
	var names []string
	for k := range res.WallS {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Print(" wall:")
	for _, k := range names {
		fmt.Printf(" %s %.2fs", k, res.WallS[k])
	}
	fmt.Println()
	for _, f := range res.Failures {
		fmt.Println(" FAIL:", f)
	}
}

// compareRepeats prints, per workload and end-to-end metric, the value of
// every pass, the largest relative difference from the first and the bound,
// marking any outside it. Sim-based metrics must not differ at all.
func compareRepeats(passes [][]*result) (broken bool) {
	fmt.Printf("\n== stability over %d passes ==\n", len(passes))
	for wi, first := range passes[0] {
		fmt.Printf(" %s\n", first.Workload)
		for _, d := range endToEnd {
			base := first.EndToEnd[d.Name].Value
			var vals []string
			worst := 0.0
			for _, pass := range passes {
				v := pass[wi].EndToEnd[d.Name].Value
				vals = append(vals, fmt.Sprintf("%.6g", v))
				if base != 0 {
					if diff := (v - base) / base; diff*diff > worst*worst {
						worst = diff
					}
				} else if v != 0 {
					worst = 1
				}
			}
			mark := ""
			switch {
			case d.Base == baseSim && worst != 0:
				mark = "  <-- sim-based metric differs between passes"
				broken = true
			case worst > d.Bound || worst < -d.Bound:
				mark = "  <-- outside bound"
			}
			fmt.Printf("  %-28s %-40s diff %+8.3f%%  bound %4.0f%%%s\n", d.Name, strings.Join(vals, " | "), worst*100, d.Bound*100, mark)
		}
	}
	return broken
}
