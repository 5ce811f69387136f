package perigee

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestOptionNamesGolden pins the simulator's whole option surface — every
// With* function returning an Option, by file name and then declaration
// order — so adding or removing an option is a reviewed change to this
// list.
func TestOptionNamesGolden(t *testing.T) {
	want := []string{
		// adversary.go
		"WithAdversary",
		// options.go
		"WithSeed", "WithOutDegree", "WithRoundBlocks", "WithWorkers",
		"WithObservationWindow", "WithWorkload", "WithBlockInterval",
		"WithTraceFile", "WithSelector", "WithLatency", "WithPower",
		"WithValidation", "WithDynamics", "WithObserver",
		// tracing.go
		"WithTraceLevel", "WithCounterfactualK",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			if res := fn.Type.Results; res != nil && len(res.List) == 1 {
				if id, ok := res.List[0].Type.(*ast.Ident); ok && id.Name == "Option" {
					got = append(got, fn.Name.Name)
				}
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("options\n got %q\nwant %q", got, want)
	}
}
