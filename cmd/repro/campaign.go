package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
)

// campaign is `repro campaign`: it runs the experiment runners, one per table
// or figure of the paper's evaluation, and prints their tables with the rows
// mirroring the series the paper reports.
func campaign(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("campaign", stderr)
	filter := fs.String("run", "all", "name filter: comma-separated runner names or substrings (see -list), or 'all'")
	list := fs.Bool("list", false, "list available runners and exit")
	seconds := fs.Float64("seconds", 6, "simulated seconds per protocol scenario")
	seed := fs.Int64("seed", 1, "base random seed")
	quick := fs.Bool("quick", false, "reduced sweep resolution for a fast smoke run")
	parallel := fs.Int("parallel", 0, "worker goroutines per runner, <=0 one per CPU (tables are identical at any level)")
	pos, err := parse(fs, args)
	if err != nil {
		return parseExit(err)
	}
	if len(pos) > 0 {
		fmt.Fprintf(stderr, "repro campaign: unexpected argument %q\n%s", pos[0], usage)
		return 2
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", r.Name, r.Description)
		}
		return 0
	}
	runners, err := selectRunners(*filter)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	opt := experiments.Options{
		SimulatedSeconds: *seconds,
		Seed:             *seed,
		Quick:            *quick,
		Parallelism:      *parallel,
	}

	suiteStart := time.Now()
	for _, r := range runners {
		start := time.Now()
		fmt.Fprintf(stdout, "# %s — %s\n", r.Name, r.Description)
		for _, table := range r.Run(opt) {
			fmt.Fprintln(stdout, table.String())
		}
		fmt.Fprintf(stdout, "(%s completed in %.1fs wall time)\n\n", r.Name, time.Since(start).Seconds())
	}
	fmt.Fprintf(stdout, "(suite: %d runner(s) in %.1fs wall time at parallelism %d)\n",
		len(runners), time.Since(suiteStart).Seconds(), opt.Parallelism)
	return 0
}

// selectRunners resolves the -run filter: "all" (or empty) selects every
// runner; otherwise each comma-separated term selects runners whose name
// matches exactly or contains the term as a substring. A term matching no
// runner is an error so typos cannot silently drop results.
func selectRunners(filter string) ([]experiments.Runner, error) {
	if filter == "" || filter == "all" {
		return experiments.All(), nil
	}
	selected := make(map[string]bool)
	var out []experiments.Runner
	for _, raw := range strings.Split(filter, ",") {
		term := strings.TrimSpace(raw)
		if term == "" {
			continue
		}
		if term == "all" {
			return experiments.All(), nil
		}
		matched := false
		for _, r := range experiments.All() {
			if r.Name == term || strings.Contains(r.Name, term) {
				matched = true
				if !selected[r.Name] {
					selected[r.Name] = true
					out = append(out, r)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("no experiment matches %q (use -list)", term)
		}
	}
	return out, nil
}
