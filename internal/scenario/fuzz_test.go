package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary documents through Parse and Compile, seeded with
// the committed spec library: every input yields a compiled scenario or an
// error, never a panic or a runaway allocation. A document that parses
// re-emits canonically, and the canonical form is a fixed point.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","topology":{"kind":"chain","nodes":20000000}}`))
	f.Add([]byte(`{"name":"x","topology":{"kind":"dragonfly","routers":4,"groups":5},"traffic":{"poisson":{"load":0.7,"keep":true,"max_time_s":0.4}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data, "fuzz.json")
		if err != nil {
			return
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatalf("canonical: %v", err)
		}
		again, err := Parse(canon, "canonical.json")
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		if recanon, err := again.Canonical(); err != nil || !bytes.Equal(canon, recanon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, recanon)
		}
		_, _ = sp.Compile()
	})
}
