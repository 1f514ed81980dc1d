package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// check is `repro check`: each file must parse strictly (unknown fields
// rejected), compile into a runnable configuration, and sit in the canonical
// encoding so parse → re-emit is byte-stable. -w rewrites files into
// canonical form instead of failing on them.
func check(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("check", stderr)
	write := fs.Bool("w", false, "rewrite files into canonical form instead of failing on drift")
	paths, err := parse(fs, args)
	if err != nil {
		return parseExit(err)
	}
	if len(paths) == 0 {
		fmt.Fprintf(stderr, "repro check: want at least one spec file\n%s", usage)
		return 2
	}
	code := 0
	for _, path := range paths {
		if err := checkSpec(path, *write); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		} else {
			fmt.Fprintf(stdout, "ok %s\n", path)
		}
	}
	return code
}

// checkSpec validates one spec file; with write, a non-canonical file is
// rewritten instead of reported.
func checkSpec(path string, write bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sp, err := scenario.Parse(data, path)
	if err != nil {
		return err
	}
	if _, err := sp.Compile(); err != nil {
		return err
	}
	canon, err := sp.Canonical()
	if err != nil {
		return err
	}
	if bytes.Equal(data, canon) {
		return nil
	}
	if write {
		return os.WriteFile(path, canon, 0o644)
	}
	return fmt.Errorf("%s: not in canonical form (run repro check -w to rewrite)", path)
}
