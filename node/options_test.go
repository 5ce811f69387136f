package node

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestOptionNamesGolden pins the live node's whole option surface, in
// declaration order, so adding or removing an option is a reviewed change
// to this list.
func TestOptionNamesGolden(t *testing.T) {
	want := []string{
		"WithListen", "WithSeed", "WithNodeID", "WithNetwork",
		"WithOutDegree", "WithMaxInbound", "WithSelector", "WithRoundBlocks",
		"WithObserver", "WithLatencyInjection", "WithMiner", "WithAdversary",
		"WithFaults", "WithAddrBookPath", "WithIdleTimeout",
		"WithRedialInterval", "WithDiscovery", "WithFeelerInterval", "WithLogf",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "options.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "With") {
			got = append(got, fn.Name.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("options\n got %q\nwant %q", got, want)
	}
}
