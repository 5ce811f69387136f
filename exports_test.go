package perigee

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// exportAllowlist names the exported identifiers of internal packages that
// no non-test file references but that stay exported, each with its reason.
// An entry whose identifier gains a non-test reference, or no longer
// exists, fails TestInternalExportsReferenced, so the list only shrinks.
var exportAllowlist = map[string]string{
	"internal/chain.Store.OrphanCount":    "p2p's window and adversary tests read the live orphan stash through it",
	"internal/topology.Table.Validate":    "the invariant checker that core's engine tests run on the engine's table",
	"internal/trace.ReadNDJSON":           "reads WriteNDJSON's stream back: trace's tests round-trip through it, and replaying a recorded decision trace will",
	"internal/netsim.Simulator.Streaming": "goes with streaming latency once the benchmark of record no longer forces it",
	"internal/des.DeliveryQueue.PeekMin":  "workload's inbox test reads the queue's head through it; goes with package des once the benchmark of record no longer times the queue",
	"internal/faults.Recorder.Log":        "p2p's chaos tests read the injected-fault log through it",
}

// exportExemptPackages are internal packages whose exports the gate does
// not check, each with its reason.
var exportExemptPackages = map[string]string{
	"internal/bench": "its micro kernels are called by the root bench_test.go and scripts/bench.sh",
}

// TestInternalExportsReferenced fails when an exported identifier of an
// internal package is referenced by no non-test Go file of this module or
// of the benchmark module. staticcheck's U1000 covers unexported code;
// this covers exported internal code, which U1000 cannot see. A method
// also counts as referenced when its type, or a pointer to it, implements
// an interface that declares the method.
func TestInternalExportsReferenced(t *testing.T) {
	start := time.Now()
	fset := token.NewFileSet()
	var (
		exports = map[string]string{}
		lists   [][]listedPackage
	)
	for _, dir := range []string{".", "benchmark"} {
		pkgs, err := goListExport(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if p.export != "" {
				exports[p.path] = p.export
			}
		}
		lists = append(lists, pkgs)
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := &sourceImporter{checked: map[string]*types.Package{}, fallback: gc}
	gate := newExportGate(modulePath + "/")
	seen := map[string]bool{}
	for _, pkgs := range lists {
		for _, p := range pkgs {
			if p.depOnly {
				continue
			}
			files, err := parseFiles(fset, p.dir, p.goFiles)
			if err != nil {
				t.Fatal(err)
			}
			rel := strings.TrimPrefix(p.path, modulePath+"/")
			_, exempt := exportExemptPackages[rel]
			seen[rel] = true
			if err := gate.check(imp, fset, p.path, files, strings.HasPrefix(rel, "internal/") && !exempt); err != nil {
				t.Fatal(err)
			}
		}
	}
	for rel := range exportExemptPackages {
		if !seen[rel] {
			t.Errorf("stale package exemption %s: no such package", rel)
		}
	}
	for _, problem := range gate.problems(exportAllowlist) {
		t.Error(problem)
	}
	t.Logf("%d packages checked in %v", len(seen), time.Since(start).Round(time.Millisecond))
}

// TestExportGateRules runs the gate on testdata/exportgate, type-checked
// from source with no go list: an unreferenced export is reported unless
// allowlisted, a reference from the second ("benchmark") package clears
// one, a method that implements an interface is not reported while a
// same-named method on a type that does not implement it is, and an
// allowlist entry that is referenced or names nothing fails.
func TestExportGateRules(t *testing.T) {
	allow := map[string]string{
		"internal/lib.Kept": "unreferenced, so allowed",
		"internal/lib.Used": "referenced by app, so stale",
		"internal/lib.Gone": "declared nowhere, so stale",
	}
	stale := []string{
		"stale allowlist entry internal/lib.Gone: no such exported identifier",
		"stale allowlist entry internal/lib.Used: now referenced",
	}
	for _, tc := range []struct {
		pkgs   []string
		unused []string
	}{
		{[]string{"internal/lib", "app"}, []string{"internal/lib.BenchOnly", "internal/lib.Other.Name", "internal/lib.Unused"}},
		{[]string{"internal/lib", "app", "benchmark"}, []string{"internal/lib.Other.Name", "internal/lib.Unused"}},
	} {
		fset := token.NewFileSet()
		imp := &sourceImporter{checked: map[string]*types.Package{}}
		gate := newExportGate("fixture/")
		for _, rel := range tc.pkgs {
			dir := filepath.Join("testdata", "exportgate", rel)
			names, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			files, err := parseFiles(fset, "", names)
			if err != nil {
				t.Fatal(err)
			}
			if err := gate.check(imp, fset, "fixture/"+rel, files, strings.HasPrefix(rel, "internal/")); err != nil {
				t.Fatal(err)
			}
		}
		var want []string
		for _, key := range tc.unused {
			want = append(want, key+": exported, but no non-test file references it")
		}
		want = append(want, stale...)
		if got := gate.problems(allow); !reflect.DeepEqual(got, want) {
			t.Errorf("packages %v:\n got %q\nwant %q", tc.pkgs, got, want)
		}
	}
}

// modulePath is this module's import path.
const modulePath = "github.com/perigee-net/perigee"

// listedPackage is one package as go list reports it.
type listedPackage struct {
	path, dir, export string
	depOnly           bool
	goFiles           []string
}

// goListExport lists the packages of the module in dir and all their
// dependencies, in dependency order, with each one's export data file.
func goListExport(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Export}}\t{{.DepOnly}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("go list in %s: malformed line %q", dir, line)
		}
		pkgs = append(pkgs, listedPackage{
			path: f[0], dir: f[1], export: f[2], depOnly: f[3] == "true",
			goFiles: strings.Fields(f[4]),
		})
	}
	return pkgs, nil
}

// parseFiles parses the named files of dir.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// sourceImporter resolves a package type-checked from source to that
// package, so every reference to it shares one set of objects, and any
// other package through fallback.
type sourceImporter struct {
	checked  map[string]*types.Package
	fallback types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.checked[path]; ok {
		return p, nil
	}
	if im.fallback == nil {
		return nil, fmt.Errorf("package %q not checked", path)
	}
	return im.fallback.Import(path)
}

// exportGate collects the exported identifiers the checked packages
// declare and the identifiers their files reference. Identifiers are keyed
// "pkgpath.Name" for package-level objects and "pkgpath.Type.Method" for
// methods, with the module prefix trimmed from pkgpath.
type exportGate struct {
	prefix   string
	declared map[string]*types.Func // the method, or nil for a package-level object
	used     map[string]bool
	pkgs     []*types.Package
}

func newExportGate(prefix string) *exportGate {
	return &exportGate{prefix: prefix, declared: map[string]*types.Func{}, used: map[string]bool{}}
}

// check type-checks one package's non-test files, records what they
// reference and, if declares is set, the exported identifiers the package
// declares. Packages must be checked in dependency order.
func (g *exportGate) check(imp *sourceImporter, fset *token.FileSet, path string, files []*ast.File, declares bool) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return err
	}
	imp.checked[path] = pkg
	g.pkgs = append(g.pkgs, pkg)
	for _, obj := range info.Uses {
		if obj.Exported() {
			if key := g.key(obj); key != "" {
				g.used[key] = true
			}
		}
	}
	if !declares {
		return nil
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		g.declared[g.key(obj)] = nil
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				g.declared[g.key(m)] = m
			}
		}
	}
	return nil
}

// key names obj as the gate's keys do, or returns "" for an object that
// is neither package-level nor a method of a named type.
func (g *exportGate) key(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	path := strings.TrimPrefix(obj.Pkg().Path(), g.prefix)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// namedOf returns the generic origin of the named type t or *t denotes,
// or nil.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// problems reports every declared identifier that is unreferenced and not
// allowlisted, and every allowlist entry that names an identifier that is
// referenced or does not exist.
func (g *exportGate) problems(allow map[string]string) []string {
	ifaces := g.interfaces()
	implemented := func(m *types.Func) bool {
		named := namedOf(m.Type().(*types.Signature).Recv().Type())
		if named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range ifaces[m.Name()] {
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}
	referenced := func(key string) bool {
		if g.used[key] {
			return true
		}
		m := g.declared[key]
		return m != nil && implemented(m)
	}
	var out []string
	for key := range g.declared {
		if _, ok := allow[key]; !ok && !referenced(key) {
			out = append(out, key+": exported, but no non-test file references it")
		}
	}
	for key := range allow {
		_, declared := g.declared[key]
		switch {
		case !declared:
			out = append(out, "stale allowlist entry "+key+": no such exported identifier")
		case referenced(key):
			out = append(out, "stale allowlist entry "+key+": now referenced")
		}
	}
	sort.Strings(out)
	return out
}

// interfaces indexes, by method name, every named interface type declared
// by a checked package or by any package they import, and error.
func (g *exportGate) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				add(named)
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range g.pkgs {
		visit(p)
	}
	return byName
}
