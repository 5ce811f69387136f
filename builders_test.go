package perigee

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// oneBuilder names what only internal/paper may do outside tests and the
// benchmark module: build an engine, assemble a workload run, sample the
// geographic universe and its latency model. A second site would pick its
// own defaults, and a default changed in one would silently not reach the
// other.
var oneBuilder = []struct {
	pkg, name string
	literal   bool // a composite literal of the type, not a call
}{
	{"internal/core", "NewEngine", false},
	{"internal/workload", "Config", true},
	{"internal/geo", "SampleUniverse", false},
	{"internal/latency", "NewGeographic", false},
}

// TestOneEngineBuilder fails when the non-test Go files outside benchmark/
// hold more than one site of any oneBuilder entry.
func TestOneEngineBuilder(t *testing.T) {
	const module = "github.com/perigee-net/perigee"
	sites := make([][]string, len(oneBuilder))
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (p == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// local maps each import's name in this file to its path inside the
		// module; the file's own package is reached unqualified.
		local := map[string]string{"": path.Dir(filepath.ToSlash(p))}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ip, module+"/")
			if !ok {
				continue
			}
			name := path.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var expr ast.Expr
			literal := false
			switch n := n.(type) {
			case *ast.CallExpr:
				expr = n.Fun
			case *ast.CompositeLit:
				expr, literal = n.Type, true
			default:
				return true
			}
			var qual, name string
			switch e := expr.(type) {
			case *ast.Ident:
				name = e.Name
			case *ast.SelectorExpr:
				x, ok := e.X.(*ast.Ident)
				if !ok {
					return true
				}
				qual, name = x.Name, e.Sel.Name
			default:
				return true
			}
			pkg, ok := local[qual]
			if !ok {
				return true
			}
			for i, b := range oneBuilder {
				if b.pkg == pkg && b.name == name && b.literal == literal {
					sites[i] = append(sites[i], fset.Position(n.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range oneBuilder {
		if len(sites[i]) > 1 {
			t.Errorf("%s.%s has %d sites outside tests and benchmark/, want one (internal/paper's): %s",
				b.pkg, b.name, len(sites[i]), strings.Join(sites[i], ", "))
		}
	}
}
