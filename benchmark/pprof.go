package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// repoPrefix is where the program's packages live; a layer is the path
// element after it.
const repoPrefix = "repro/internal/"

// cpuSplit is the traced run's CPU profile split by layer.
type cpuSplit struct {
	samples float64
	// layer[l] is the share of the program's own samples whose deepest frame
	// inside repro/internal is in package l, so runtime and standard-library
	// callees are charged to the layer that called them. Shares are of the
	// samples with at least one repo frame and sum to 1 with other.
	layer map[string]float64
	// other is the share charged to repo packages that are not a layer the
	// benchmark reports.
	other float64
	// background is the share of all samples with no repo frame at all
	// (collector workers, the benchmark's own loop).
	background float64
	// runtimeLeaf is the share of all samples whose leaf is in the Go runtime:
	// allocation, write barriers, collection, map and memmove intrinsics.
	runtimeLeaf float64
}

// topRow is one function row of `go tool pprof -top`.
type topRow struct {
	flat float64
	name string
}

var (
	topTotalRE = regexp.MustCompile(`Showing nodes accounting for ([0-9.]+)\w*, [0-9.]+% of ([0-9.]+)\w* total`)
	topRowRE   = regexp.MustCompile(`^\s*([0-9.]+)\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+\s+[0-9.]+%\s+(\S.*)$`)
)

// parseTop reads the text `go tool pprof -top -sample_index=samples` prints:
// the samples shown, the total in the profile and one row per function.
func parseTop(out string) (shown, total float64, rows []topRow, err error) {
	sc := bufio.NewScanner(strings.NewReader(out))
	seenHeader := false
	for sc.Scan() {
		line := sc.Text()
		if m := topTotalRE.FindStringSubmatch(line); m != nil {
			shown, _ = strconv.ParseFloat(m[1], 64)
			total, _ = strconv.ParseFloat(m[2], 64)
			continue
		}
		if strings.Contains(line, "flat%") {
			seenHeader = true
			continue
		}
		if !seenHeader {
			continue
		}
		m := topRowRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		flat, perr := strconv.ParseFloat(m[1], 64)
		if perr != nil {
			return 0, 0, nil, fmt.Errorf("pprof row %q: %w", line, perr)
		}
		rows = append(rows, topRow{flat: flat, name: strings.TrimSuffix(m[2], " (inline)")})
	}
	if !seenHeader {
		return 0, 0, nil, fmt.Errorf("no pprof -top table in output:\n%s", out)
	}
	return shown, total, rows, nil
}

// layerOf maps a function name to its repo package, "" when it is not the
// program's.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// splitByLayer turns the -show='^repro/internal/' table into per-layer
// shares. With only repo frames shown, a function's flat count is the samples
// whose deepest repo frame it is.
func splitByLayer(shown, total float64, rows []topRow, layers map[string]bool) cpuSplit {
	s := cpuSplit{samples: total, layer: map[string]float64{}}
	if shown == 0 || total == 0 {
		return s
	}
	for _, r := range rows {
		l := layerOf(r.name)
		switch {
		case l == "":
		case layers[l]:
			s.layer[l] += r.flat / shown
		default:
			s.other += r.flat / shown
		}
	}
	s.background = (total - shown) / total
	return s
}

// runtimeLeafShare sums, over the unfiltered table, the samples whose leaf
// function belongs to the Go runtime.
func runtimeLeafShare(total float64, rows []topRow) float64 {
	if total == 0 {
		return 0
	}
	var n float64
	for _, r := range rows {
		if strings.HasPrefix(r.name, "runtime.") || strings.HasPrefix(r.name, "runtime/") || strings.HasPrefix(r.name, "internal/runtime/") {
			n += r.flat
		}
	}
	return n / total
}

func pprofTop(profile string, extra ...string) (string, error) {
	args := append([]string{"tool", "pprof", "-top", "-sample_index=samples", "-nodecount=100000", "-nodefraction=0"}, extra...)
	out, err := exec.Command("go", append(args, profile)...).Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// cpuShares splits a CPU profile by layer with two `go tool pprof -top`
// passes: one showing only repo frames, one unfiltered for the runtime leaves.
func cpuShares(profile string) (cpuSplit, error) {
	layers := map[string]bool{}
	for _, d := range perLayer {
		layers[d.Layer] = true
	}
	out, err := pprofTop(profile, "-show=^"+repoPrefix)
	if err != nil {
		return cpuSplit{}, err
	}
	shown, total, rows, err := parseTop(out)
	if err != nil {
		return cpuSplit{}, err
	}
	s := splitByLayer(shown, total, rows, layers)

	out, err = pprofTop(profile)
	if err != nil {
		return cpuSplit{}, err
	}
	_, total, rows, err = parseTop(out)
	if err != nil {
		return cpuSplit{}, err
	}
	s.runtimeLeaf = runtimeLeafShare(total, rows)
	return s, nil
}
