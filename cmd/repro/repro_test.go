package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// repro runs one command line and returns its exit code, stdout and stderr.
func repro(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeSpec writes a spec document into the test's temporary directory.
func writeSpec(t *testing.T, name, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every kept override applies to a spec with no optional sections, and an
// explicitly non-positive -seconds or -trials is a usage error rather than
// the spec's default.
func TestOverridesOnSparseSpec(t *testing.T) {
	spec := writeSpec(t, "sparse.json", `{"name": "sparse", "topology": {"kind": "chain", "nodes": 3}}`)
	out := t.TempDir()
	cases := []struct {
		flags []string
		code  int
		want  string // substring of stdout on success
	}{
		{[]string{"-seed", "5"}, 0, "seed=5 "},
		{[]string{"-seconds", "0.2"}, 0, " 0.2s simulated"},
		{[]string{"-trials", "2"}, 0, ", 2 trial(s)"},
		{[]string{"-shards", "2"}, 0, "n1-n2"},
		{[]string{"-shards", "8"}, 0, "n1-n2"},
		{[]string{"-parallel", "0"}, 0, "n0-n1"},
		{[]string{"-trace", filepath.Join(out, "t.json"), "-tracecap", "64"}, 0, "n0-n1"},
		{[]string{"-metrics", filepath.Join(out, "m.json")}, 0, "n0-n1"},
		{[]string{"-cpuprofile", filepath.Join(out, "cpu.pprof")}, 0, "n0-n1"},
		{[]string{"-memprofile", filepath.Join(out, "mem.pprof")}, 0, "n0-n1"},
		{[]string{"-seconds", "0"}, 2, ""},
		{[]string{"-seconds", "-1"}, 2, ""},
		{[]string{"-trials", "0"}, 2, ""},
		{[]string{"-trials", "-2"}, 2, ""},
		{[]string{"-shards", "-1"}, 2, ""},
		{[]string{"-bogus"}, 2, ""},
	}
	for _, tc := range cases {
		// Name the case without the temporary directory, which differs per run.
		name := strings.ReplaceAll(strings.Join(tc.flags, " "), out+string(filepath.Separator), "")
		t.Run(name, func(t *testing.T) {
			args := append([]string{"run"}, tc.flags...)
			if tc.code == 0 && !slices.Contains(tc.flags, "-seconds") {
				args = append(args, "-seconds", "0.05")
			}
			if tc.code == 0 && !slices.Contains(tc.flags, "-trials") {
				args = append(args, "-trials", "1")
			}
			code, stdout, stderr := repro(t, append(args, spec)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr)
			}
			if tc.code != 0 {
				if stderr == "" {
					t.Error("usage error printed nothing to stderr")
				}
				return
			}
			if !strings.Contains(stdout, tc.want) {
				t.Errorf("stdout lacks %q:\n%s", tc.want, stdout)
			}
		})
	}
	for _, name := range []string{"t.json", "m.json", "cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(filepath.Join(out, name)); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s not written (%v)", name, err)
		}
	}
}

// A spec runs on the layer its sections name: a service section selects the
// end-to-end tables, anything else the link-layer ones.
func TestSpecRunsOnTheLayerItsSectionsName(t *testing.T) {
	code, stdout, stderr := repro(t, "run", "../../scenarios/e2e-chain5.json", "-seconds", "0.2", "-trials", "1")
	if code != 0 {
		t.Fatalf("e2e-chain5: exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "# e2e ") || !strings.Contains(stdout, "== e2e-paths:") {
		t.Errorf("e2e-chain5 printed no end-to-end tables:\n%s", stdout)
	}
	if strings.Contains(stdout, "netsim-") {
		t.Errorf("e2e-chain5 printed link-layer tables:\n%s", stdout)
	}

	args := []string{"run", "../../scenarios/chain8-mixed.json", "-seconds", "0.2", "-trials", "2"}
	code, stdout, stderr = repro(t, append(args, "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("chain8-mixed: exit %d; stderr:\n%s", code, stderr)
	}
	for _, id := range []string{"netsim-links", "netsim-aggregate", "netsim-classes"} {
		if !strings.Contains(stdout, "== "+id+":") {
			t.Errorf("chain8-mixed lacks table %s:\n%s", id, stdout)
		}
	}
	// Neither the worker count nor the shard count changes a table.
	for _, extra := range [][]string{{"-parallel", "0"}, {"-shards", "2"}} {
		_, again, _ := repro(t, append(args, extra...)...)
		if again != stdout {
			t.Errorf("chain8-mixed %v differs from -parallel 1:\n%s\nvs\n%s", extra, again, stdout)
		}
	}

	code, _, stderr = repro(t, "run", "../../scenarios/e2e-chain5.json", "-shards", "2", "-seconds", "0.2", "-trials", "1")
	if code == 0 || !strings.Contains(stderr, "serial") {
		t.Errorf("e2e-chain5 -shards 2: exit %d, stderr %q; want a serial-only error", code, stderr)
	}
}

func TestCheck(t *testing.T) {
	reordered := writeSpec(t, "reordered.json", `{"topology": {"nodes": 3, "kind": "chain"}, "name": "reordered"}`)
	code, _, stderr := repro(t, "check", reordered)
	if code != 1 || !strings.Contains(stderr, "-w") {
		t.Fatalf("re-ordered spec: exit %d, stderr %q; want 1 naming -w", code, stderr)
	}
	if code, _, stderr := repro(t, "check", "-w", reordered); code != 0 {
		t.Fatalf("check -w: exit %d; stderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(reordered)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := scenario.Parse(data, reordered)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, canon) {
		t.Errorf("check -w left non-canonical bytes:\n%s", data)
	}
	if code, stdout, stderr := repro(t, "check", reordered); code != 0 || stdout != "ok "+reordered+"\n" {
		t.Errorf("check after -w: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	unknown := writeSpec(t, "unknown.json", `{"name": "unknown", "topology": {"kind": "chain", "nodes": 3}, "bogus": 1}`)
	if code, _, stderr := repro(t, "check", unknown); code != 1 || !strings.Contains(stderr, "bogus") {
		t.Errorf("unknown field: exit %d, stderr %q; want 1 naming the field", code, stderr)
	}
	if code, _, _ := repro(t, "check"); code != 2 {
		t.Errorf("check without files: exit %d, want 2", code)
	}
}

func TestCampaignSelection(t *testing.T) {
	code, _, stderr := repro(t, "campaign", "-run", "nosuch")
	if code != 2 || !strings.Contains(stderr, "no experiment matches") {
		t.Errorf("-run nosuch: exit %d, stderr %q; want 2", code, stderr)
	}
	code, stdout, _ := repro(t, "campaign", "-list")
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	if code != 0 || len(lines) != 13 {
		t.Fatalf("-list: exit %d, %d lines, want 13 runners:\n%s", code, len(lines), stdout)
	}
	for i, r := range experiments.All() {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != r.Name {
			t.Errorf("-list line %d is %q, want runner %s", i, lines[i], r.Name)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"run"},
		{"run", "a.json", "b.json"},
		{"run", "nosuch.json"},
		{"campaign", "extra"},
	} {
		if code, _, stderr := repro(t, args...); code != 2 || stderr == "" {
			t.Errorf("%q: exit %d, stderr %q; want a usage error", args, code, stderr)
		}
	}
}
