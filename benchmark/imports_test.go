package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// allowedSurface is every package-level name of the program the benchmark may
// use, by package. It is the surface ROADMAP item 3 keeps; anything else fails
// the test, so the coupling cannot widen unnoticed.
var allowedSurface = map[string][]string{
	"scenario":  {"Parse"},
	"netsim":    {"NewNetwork", "Network", "Link", "LinkState", "MultiTraffic"},
	"network":   {"NewService", "Service", "DefaultConfig", "CreateRequest", "OKEvent", "ErrorEvent", "NewRouter"},
	"obs":       {"NewTracer", "NewRegistry", "Tracer", "Registry", "LayerSim", "KindBatch", "KindWindow", "BarrierTrack"},
	"egp":       {"EGP", "OKEvent", "ErrorEvent"},
	"sim":       {"New", "Simulator", "Time", "Duration", "ArgHandler", "Microsecond", "Nanosecond"},
	"wire":      {"ErrNone", "AbsoluteQueueID", "GENFrame", "REPLYFrame", "DecodeGEN", "DecodeREPLY", "OutcomeStateOne"},
	"classical": {"NewMux", "NewChannel", "Message", "TagPort"},
	"quantum":   {"WernerState", "NewBellDiagWerner", "SwapVia", "SwapBellDiag", "PsiPlus"},
}

// forbiddenNames may not appear anywhere in the benchmark's sources: they are
// the variant-matrix knobs and legacy generators ROADMAP item 3 removes.
var forbiddenNames = []string{"QueueKind", "AttachTraffic", "TrafficConfig"}

func TestCouplingToTheProgramStaysNarrow(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		mayImport := name == "adapter.go" || strings.HasPrefix(name, "drive_")
		internal := map[string]string{} // local package name -> layer
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			layer, ok := strings.CutPrefix(path, repoPrefix)
			if !ok {
				if strings.HasPrefix(path, "repro") {
					t.Errorf("%s imports %s: only %s<layer> is allowed", name, path, repoPrefix)
				}
				continue
			}
			if !mayImport {
				t.Errorf("%s imports %s: calls into the program live in adapter.go and drive_*.go", name, path)
			}
			if _, ok := allowedSurface[layer]; !ok {
				t.Errorf("%s imports %s, which is outside the allowed surface", name, path)
			}
			local := layer
			if imp.Name != nil {
				local = imp.Name.Name
			}
			internal[local] = layer
		}
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			case *ast.Ident:
				for _, bad := range forbiddenNames {
					if n.Name == bad {
						t.Errorf("%s: %s names %s", fset.Position(n.Pos()), name, bad)
					}
				}
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Obj == nil {
					if layer, ok := internal[pkg.Name]; ok {
						allowed := false
						for _, a := range allowedSurface[layer] {
							allowed = allowed || a == n.Sel.Name
						}
						if !allowed {
							t.Errorf("%s: %s.%s is outside the allowed surface", fset.Position(n.Pos()), layer, n.Sel.Name)
						}
					}
				}
				// Config.Queue selects the event-queue discipline; the EGP's
				// Queue() accessor is a method call and is fine.
				if n.Sel.Name == "Queue" && !called[n] {
					t.Errorf("%s: the Queue field is named", fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}
