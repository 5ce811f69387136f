// The export data importer keeps type aliases (perigee.Selector and the
// like) as aliases only under gotypesalias=1, which a go 1.22 module does
// not set by default.

//go:debug gotypesalias=1

package perigee

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// nodeAPI is every exported identifier of package node, as nodeAPILines
// renders it: kind, then underlying type or signature, then the method set
// of T and *T. A type is pinned by its underlying type, so a type alias and
// a defined type with the same fields read the same.
var nodeAPI = []string{
	"func New(...Option) (*Node, error)",
	"func WithAddrBookPath(string) Option",
	"func WithAdversary(perigee.Adversary) Option",
	"func WithDiscovery(time.Duration, int) Option",
	"func WithFaults(perigee.FaultPlan) Option",
	"func WithFeelerInterval(time.Duration) Option",
	"func WithIdleTimeout(time.Duration) Option",
	"func WithLatencyInjection(func(uint64) time.Duration) Option",
	"func WithListen(string) Option",
	"func WithLogf(func(string, ...any)) Option",
	"func WithMaxInbound(int) Option",
	"func WithMiner(time.Duration) Option",
	"func WithNetwork(string) Option",
	"func WithNodeID(uint64) Option",
	"func WithObserver(Observer) Option",
	"func WithOutDegree(int) Option",
	"func WithRedialInterval(time.Duration) Option",
	"func WithRoundBlocks(int) Option",
	"func WithSeed(uint64) Option",
	"func WithSelector(perigee.Selector) Option",
	"type BlockID [32]byte",
	"method BlockID.String() string",
	"method *BlockID.String() string",
	"type DiscoveryStats struct{SelfAnnounces int; AddrsRelayed int; RefreshGetAddrs int; AddrsLearned int; AddrsInvalid int; AddrsStale int; UnsolicitedDropped int; GetAddrThrottled int; FeelerDials int; FeelerVerified int}",
	"type Node struct{…}",
	"method *Node.AddAddresses(...string)",
	"method *Node.Addr() string",
	"method *Node.BannedPeers() []uint64",
	"method *Node.Connect(string) error",
	"method *Node.Discovery() DiscoveryStats",
	"method *Node.HasBlock(BlockID) bool",
	"method *Node.Height() uint64",
	"method *Node.ID() uint64",
	"method *Node.KnownAddresses() int",
	"method *Node.MineBlock([][]byte) (BlockID, error)",
	"method *Node.ObservationWindow() int",
	"method *Node.OutboundCount() int",
	"method *Node.Peers() []PeerInfo",
	"method *Node.Resilience() ResilienceStats",
	"method *Node.Round() (perigee.RoundStats, error)",
	"method *Node.Start() error",
	"method *Node.Stop()",
	"method *Node.VerifiedAddresses() int",
	"type Observer interface{ObserveRound(*Node, perigee.RoundStats)}",
	"method Observer.ObserveRound(*Node, perigee.RoundStats)",
	"type ObserverFunc func(*Node, perigee.RoundStats)",
	"method ObserverFunc.ObserveRound(*Node, perigee.RoundStats)",
	"method *ObserverFunc.ObserveRound(*Node, perigee.RoundStats)",
	"type Option func(*config) error",
	"type PeerInfo struct{ID uint64; Outbound bool; ListenAddr string}",
	"type ResilienceStats struct{AcceptsShed int; BannedRefused int; DialFailures int; FaultedDials int; FaultedConns int; Bans int; SlowConsumerDrops int; Redials int; DesperationDials int}",
	"var ErrStopped error",
}

// TestNodeAPIPinned pins the live node's public API, so a change to any
// exported name, signature, field or method of package node is a reviewed
// edit of nodeAPI. It reads node's export data through go list, as the
// export gate does.
func TestNodeAPIPinned(t *testing.T) {
	pkgs, err := goListExport(".", "./node")
	if err != nil {
		t.Fatal(err)
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.path] = p.export
	}
	gc := importer.ForCompiler(token.NewFileSet(), "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	pkg, err := gc.Import(modulePath + "/node")
	if err != nil {
		t.Fatal(err)
	}
	if got := nodeAPILines(pkg); !reflect.DeepEqual(got, nodeAPI) {
		t.Errorf("node's API moved:\n got %q\nwant %q", got, nodeAPI)
	}
}

// nodeAPILines renders pkg's exported package-level objects, sorted by
// kind and name. Parameter names are left out; a struct lists its exported
// fields in order and reads struct{…} when it has none.
func nodeAPILines(pkg *types.Package) []string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var funcs, typs, vars []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				funcs = append(funcs, "func "+name+signatureString(obj.Type().(*types.Signature), qual))
			}
		case *types.Var:
			if obj.Exported() {
				vars = append(vars, "var "+name+" "+types.TypeString(obj.Type(), qual))
			}
		case *types.Const:
			if obj.Exported() {
				vars = append(vars, "const "+name+" "+types.TypeString(obj.Type(), qual))
			}
		case *types.TypeName:
			if obj.Exported() {
				typs = append(typs, typeLines(name, obj.Type(), qual)...)
			}
		}
	}
	return append(append(funcs, typs...), vars...)
}

// typeLines renders one exported type: its underlying type, then the
// exported methods of its value and pointer method sets.
func typeLines(name string, t types.Type, qual types.Qualifier) []string {
	var under string
	switch u := t.Underlying().(type) {
	case *types.Struct:
		var fields []string
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				fields = append(fields, f.Name()+" "+types.TypeString(f.Type(), qual))
			}
		}
		under = "struct{" + strings.Join(fields, "; ") + "}"
		if len(fields) == 0 {
			under = "struct{…}"
		}
	case *types.Interface:
		var methods []string
		for i := 0; i < u.NumMethods(); i++ {
			m := u.Method(i)
			methods = append(methods, m.Name()+signatureString(m.Type().(*types.Signature), qual))
		}
		under = "interface{" + strings.Join(methods, "; ") + "}"
	case *types.Signature:
		under = "func" + signatureString(u, qual)
	default:
		under = types.TypeString(u, qual)
	}
	lines := []string{"type " + name + " " + under}
	for _, recv := range []struct {
		label string
		t     types.Type
	}{{name, t}, {"*" + name, types.NewPointer(t)}} {
		ms := types.NewMethodSet(recv.t)
		var methods []string
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				methods = append(methods, "method "+recv.label+"."+m.Name()+signatureString(m.Type().(*types.Signature), qual))
			}
		}
		sort.Strings(methods)
		lines = append(lines, methods...)
	}
	return lines
}

// signatureString renders sig's parameters and results without their
// names, as "(int, ...string) (T, error)".
func signatureString(sig *types.Signature, qual types.Qualifier) string {
	str := func(t types.Type) string {
		if sig, ok := t.(*types.Signature); ok {
			return "func" + signatureString(sig, qual)
		}
		return types.TypeString(t, qual)
	}
	list := func(tup *types.Tuple, variadic bool) []string {
		out := make([]string, tup.Len())
		for i := range out {
			t := tup.At(i).Type()
			if variadic && i == tup.Len()-1 {
				out[i] = "..." + str(t.(*types.Slice).Elem())
				continue
			}
			out[i] = str(t)
		}
		return out
	}
	s := "(" + strings.Join(list(sig.Params(), sig.Variadic()), ", ") + ")"
	switch res := list(sig.Results(), false); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}
