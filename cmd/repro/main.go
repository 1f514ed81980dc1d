// Command repro is the reproduction's one front door. A scenario spec (see
// internal/scenario and the committed scenarios/ library) is the only run
// configuration; repro runs it, checks it, or runs the paper's evaluation
// campaign:
//
//	repro run [flags] <spec.json>       run one spec and print its tables
//	repro check [-w] <spec.json>...     validate specs (and canonicalise with -w)
//	repro campaign [flags]              regenerate the paper's tables and figures
//
// A spec with a service section runs the network layer end to end and prints
// per-path tables; any other spec runs the link layer and prints per-link
// tables, plus per-class service levels when it has traffic classes. Trials
// fan out over a worker pool; each derives its seed from the base seed and
// its index, so every printed table is byte-identical at any -parallel level
// (and, for link-layer specs, at any -shards count).
//
// Examples:
//
//	repro run scenarios/chain8-mixed.json -parallel 4
//	repro run scenarios/chain16-bench.json -shards 4
//	repro run scenarios/e2e-chain5.json -seconds 1 -trials 2
//	repro check scenarios/*.json
//	repro campaign -run fig6a,netload -quick
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

const usage = `usage:
  repro run [flags] <spec.json>
  repro check [-w] <spec.json>...
  repro campaign [-run names] [-list] [-seconds s] [-seed n] [-quick] [-parallel n]
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one command line (without the program name) and returns the
// process exit code: 0 on success, 1 when a run or check fails, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return runSpec(args[1:], stdout, stderr)
	case "check":
		return check(args[1:], stdout, stderr)
	case "campaign":
		return campaign(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "repro: unknown command %q\n%s", args[0], usage)
	return 2
}

// newFlagSet returns a subcommand's flag set, reporting parse errors to
// stderr instead of exiting.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("repro "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args into fs, accepting flags before and after the positional
// arguments (repro run spec.json -seconds 2), and returns the positionals.
func parse(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos = append(pos, fs.Arg(0))
		args = fs.Args()[1:]
	}
}

// parseExit maps a flag parse error to an exit code: 0 for -h, else 2.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}
