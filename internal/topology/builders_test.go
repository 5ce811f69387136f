package topology

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/rng"
)

func TestRandomTopology(t *testing.T) {
	const n, dout, maxIn = 200, 8, 20
	tbl, err := Random(n, dout, maxIn, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		if got := tbl.OutDegree(u); got != dout {
			t.Fatalf("node %d out-degree %d, want %d", u, got, dout)
		}
		if got := len(tbl.in[u]); got > maxIn {
			t.Fatalf("node %d in-degree %d exceeds cap %d", u, got, maxIn)
		}
	}
	if !isConnected(tbl.Undirected()) {
		t.Fatal("random topology with degree 8 should be connected")
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a, err := Random(50, 4, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(50, 4, 10, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		au, bu := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(au) != len(bu) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range au {
			if au[i] != bu[i] {
				t.Fatalf("node %d neighbors differ: %v vs %v", u, au, bu)
			}
		}
	}
}

// equalTables reports the first node at which two tables differ.
func equalTables(t *testing.T, a, b *Table) {
	t.Helper()
	if a.N() != b.N() || a.maxIn != b.maxIn || totalEdges(a) != totalEdges(b) {
		t.Fatalf("tables differ in shape: n %d/%d, maxIn %d/%d, edges %d/%d",
			a.N(), b.N(), a.maxIn, b.maxIn, totalEdges(a), totalEdges(b))
	}
	for u := 0; u < a.N(); u++ {
		if !reflect.DeepEqual(a.OutNeighbors(u), b.OutNeighbors(u)) || !reflect.DeepEqual(a.InNeighbors(u), b.InNeighbors(u)) {
			t.Fatalf("node %d differs: out %v vs %v, in %v vs %v",
				u, a.OutNeighbors(u), b.OutNeighbors(u), a.InNeighbors(u), b.InNeighbors(u))
		}
	}
}

// TestBuildersFillEveryNode runs the three capped builders from the smallest
// network that can hold the out-degree up to 5 000 nodes: same seed, same
// table (also across Clone), every node at outDegree, nobody over maxIn.
func TestBuildersFillEveryNode(t *testing.T) {
	const dout, maxIn = 8, 20
	builders := map[string]func(n int, seed uint64) (*Table, error){
		"random":   func(n int, seed uint64) (*Table, error) { return Random(n, dout, maxIn, rng.New(seed)) },
		"kademlia": func(n int, seed uint64) (*Table, error) { return Kademlia(n, dout, maxIn, rng.New(seed)) },
		"geographic": func(n int, seed uint64) (*Table, error) {
			u, err := geo.SampleUniverse(n, rng.New(seed+100))
			if err != nil {
				return nil, err
			}
			return Geographic(u, dout, dout/2, maxIn, rng.New(seed))
		},
	}
	for name, build := range builders {
		for _, n := range []int{2 * dout, 300, 5000} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				tbl, err := build(n, 9)
				if err != nil {
					t.Fatal(err)
				}
				if err := tbl.Validate(); err != nil {
					t.Fatal(err)
				}
				for u := 0; u < n; u++ {
					if tbl.OutDegree(u) != dout || len(tbl.in[u]) > maxIn {
						t.Fatalf("node %d: out-degree %d (want %d), in-degree %d (cap %d)",
							u, tbl.OutDegree(u), dout, len(tbl.in[u]), maxIn)
					}
				}
				again, err := build(n, 9)
				if err != nil {
					t.Fatal(err)
				}
				equalTables(t, tbl, again)
				equalTables(t, tbl, tbl.Clone())
			})
		}
	}
}

// TestRandomExactFit leaves no spare incoming slot (maxIn == outDegree): the
// last nodes must scan nearly every peer, and a build either fills everyone
// or reports the node that ran out of peers — it never spins.
func TestRandomExactFit(t *testing.T) {
	const dout = 4
	filled, stuck := 0, 0
	for _, n := range []int{2 * dout, 60, 300} {
		for seed := uint64(0); seed < 40; seed++ {
			tbl, err := Random(n, dout, dout, rng.New(seed))
			if err != nil {
				if !strings.Contains(err.Error(), "stuck at out-degree") {
					t.Fatalf("n=%d seed=%d: %v", n, seed, err)
				}
				stuck++
				continue
			}
			filled++
			if err := tbl.Validate(); err != nil {
				t.Fatal(err)
			}
			for u := 0; u < n; u++ {
				if tbl.OutDegree(u) != dout || len(tbl.in[u]) != dout {
					t.Fatalf("n=%d seed=%d node %d: degrees %d/%d, want %d/%d", n, seed, u, tbl.OutDegree(u), len(tbl.in[u]), dout, dout)
				}
			}
		}
	}
	if filled == 0 || stuck == 0 {
		t.Fatalf("exact fit: %d builds filled, %d stuck; the test wants to see both outcomes", filled, stuck)
	}
}

// TestRandomTargetsUniform counts, over 500 builds with no binding incoming
// cap, how often each node u dials each peer v. Every ordered pair is equally
// likely, so both the per-peer totals (49 degrees of freedom) and the
// per-pair counts (50·48) must pass a χ² test at 5 σ.
func TestRandomTargetsUniform(t *testing.T) {
	const n, dout, builds = 50, 4, 500
	var pair [n][n]int
	for seed := uint64(0); seed < builds; seed++ {
		tbl, err := Random(n, dout, n, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for _, v := range tbl.OutNeighbors(u) {
				pair[u][v]++
			}
		}
	}
	var peerChi2, pairChi2 float64
	peerWant, pairWant := float64(builds*dout), float64(builds*dout)/(n-1)
	for v := 0; v < n; v++ {
		total := 0
		for u := 0; u < n; u++ {
			total += pair[u][v]
			if u != v {
				d := float64(pair[u][v]) - pairWant
				pairChi2 += d * d / pairWant
			}
		}
		d := float64(total) - peerWant
		peerChi2 += d * d / peerWant
	}
	if peerChi2 > 49+5*9.9 {
		t.Errorf("per-peer χ² = %.1f, want < %.1f", peerChi2, 49+5*9.9)
	}
	if pairChi2 > 2400+5*69.3 {
		t.Errorf("per-pair χ² = %.1f, want < %.1f", pairChi2, 2400+5*69.3)
	}
}

// countingSource counts the 64-bit words a build draws.
type countingSource struct {
	src   rand.Source
	draws int
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// TestRandomDrawsLinear holds the build to O(n·outDegree) random words: one
// node-order permutation plus a few draws per edge (≈ 50 000 at n = 5 000).
// A full permutation per node would be n² = 25 000 000.
func TestRandomDrawsLinear(t *testing.T) {
	const n, dout = 5000, 8
	src := &countingSource{src: rand.NewPCG(1, 2)}
	if _, err := Random(n, dout, 20, &rng.RNG{Rand: rand.New(src)}); err != nil {
		t.Fatal(err)
	}
	if src.draws > 3*n*dout {
		t.Fatalf("build drew %d random words, want at most %d", src.draws, 3*n*dout)
	}
	t.Logf("n=%d: %d draws", n, src.draws)
}

func TestRandomTopologyErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Random(10, 0, 5, r); err == nil {
		t.Fatal("expected error for dout=0")
	}
	if _, err := Random(10, 10, 5, r); err == nil {
		t.Fatal("expected error for dout >= n")
	}
	if _, err := Random(10, 5, 20, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestGeographicTopology(t *testing.T) {
	u, err := geo.SampleUniverse(300, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	const dout, inRegion, maxIn = 8, 4, 20
	tbl, err := Geographic(u, dout, inRegion, maxIn, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	totalLocal, total := 0, 0
	for v := 0; v < u.N(); v++ {
		if got := tbl.OutDegree(v); got != dout {
			t.Fatalf("node %d out-degree %d, want %d", v, got, dout)
		}
		for _, w := range tbl.OutNeighbors(v) {
			total++
			if u.Region(v) == u.Region(w) {
				totalLocal++
			}
		}
	}
	// Half the connections target the local region (plus random choices
	// landing locally by chance), so well over a quarter must be local.
	if frac := float64(totalLocal) / float64(total); frac < 0.3 {
		t.Fatalf("only %.2f of edges are intra-region; geographic preference not applied", frac)
	}
}

func TestGeographicErrors(t *testing.T) {
	u, err := geo.SampleUniverse(50, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Geographic(nil, 8, 4, 20, rng.New(1)); err == nil {
		t.Fatal("expected error for nil universe")
	}
	if _, err := Geographic(u, 8, 9, 20, rng.New(1)); err == nil {
		t.Fatal("expected error for inRegion > outDegree")
	}
	if _, err := Geographic(u, 8, -1, 20, rng.New(1)); err == nil {
		t.Fatal("expected error for negative inRegion")
	}
	if _, err := Geographic(u, 8, 4, 20, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestKademliaTopology(t *testing.T) {
	const n, dout, maxIn = 256, 8, 20
	tbl, err := Kademlia(n, dout, maxIn, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if got := tbl.OutDegree(v); got != dout {
			t.Fatalf("node %d out-degree %d, want %d", v, got, dout)
		}
	}
	if !isConnected(tbl.Undirected()) {
		t.Fatal("kademlia topology should be connected")
	}
}

func TestKademliaErrors(t *testing.T) {
	if _, err := Kademlia(10, 0, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for dout=0")
	}
	if _, err := Kademlia(10, 5, 20, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestGeometricGraph(t *testing.T) {
	// Four points on a line with unit spacing; radius 1.5 links adjacent
	// points only.
	coords := []float64{0, 1, 2, 3}
	dist := func(u, v int) float64 {
		d := coords[u] - coords[v]
		if d < 0 {
			d = -d
		}
		return d
	}
	adj, err := Geometric(4, dist, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg := []int{1, 2, 2, 1}
	for u, want := range wantDeg {
		if len(adj[u]) != want {
			t.Fatalf("node %d degree %d, want %d (adj=%v)", u, len(adj[u]), want, adj)
		}
	}
}

func TestGeometricErrors(t *testing.T) {
	dist := func(u, v int) float64 { return 1 }
	if _, err := Geometric(0, dist, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := Geometric(5, nil, 1); err == nil {
		t.Fatal("expected error for nil dist")
	}
	if _, err := Geometric(5, dist, 0); err == nil {
		t.Fatal("expected error for radius 0")
	}
}

func TestRandomUndirected(t *testing.T) {
	adj, err := RandomUndirected(100, 3, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for u := range adj {
		if len(adj[u]) < 3 {
			t.Fatalf("node %d has degree %d < 3", u, len(adj[u]))
		}
		seen := map[int]bool{}
		for _, v := range adj[u] {
			if v == u {
				t.Fatalf("self loop at %d", u)
			}
			if seen[v] {
				t.Fatalf("duplicate edge %d-%d", u, v)
			}
			seen[v] = true
		}
	}
	// Symmetry.
	for u := range adj {
		for _, v := range adj[u] {
			found := false
			for _, w := range adj[v] {
				if w == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", u, v)
			}
		}
	}
}

func TestRandomUndirectedErrors(t *testing.T) {
	if _, err := RandomUndirected(1, 1, rng.New(1)); err == nil {
		t.Fatal("expected error for n too small")
	}
	if _, err := RandomUndirected(10, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for degree 0")
	}
	if _, err := RandomUndirected(10, 3, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestRelayTree(t *testing.T) {
	members := []int{10, 20, 30, 40, 50, 60, 70}
	edges, err := RelayTree(members, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(members)-1 {
		t.Fatalf("tree has %d edges, want %d", len(edges), len(members)-1)
	}
	// Verify it is a tree: pin it into an empty table over member space
	// and check connectivity on the undirected graph.
	tbl, err := NewTable(71, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := tbl.Pin(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	hops := bfsHops(tbl.Undirected(), 10)
	for _, m := range members {
		if hops[m] == -1 {
			t.Fatalf("member %d unreachable from root", m)
		}
	}
	// Binary tree of 7 nodes has height 2.
	for _, m := range members {
		if hops[m] > 2 {
			t.Fatalf("member %d at depth %d, want <= 2", m, hops[m])
		}
	}
}

func TestRelayTreeErrors(t *testing.T) {
	if _, err := RelayTree([]int{1}, 2); err == nil {
		t.Fatal("expected error for single member")
	}
	if _, err := RelayTree([]int{1, 2}, 0); err == nil {
		t.Fatal("expected error for branching 0")
	}
	if _, err := RelayTree([]int{1, 2, 1}, 2); err == nil {
		t.Fatal("expected error for duplicate member")
	}
}

// TestBuildersMatchReference builds each capped builder's tables in one
// table edit and, through the per-edge reference builders, one Connect at
// a time: for n ∈ {9, 300, 1000} (and 20,000 without -short, except for
// Kademlia, whose O(n²) bucketing takes over a minute there) and seeds 1
// to 5 the two must be the same table, field for field, and an infeasible
// build (an incoming cap below the out-degree) must fail with the same
// error text. The edit changes where in-rows are written, never which
// draw a build makes or which dial it accepts.
func TestBuildersMatchReference(t *testing.T) {
	const dout, inRegion = 8, 4
	universe := func(n int, seed uint64) *geo.Universe {
		u, err := geo.SampleUniverse(n, rng.New(seed+100))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	type builder func(n, maxIn int, seed uint64) (*Table, error)
	builders := []struct {
		name      string
		got, want builder
	}{
		{"random",
			func(n, maxIn int, seed uint64) (*Table, error) { return Random(n, dout, maxIn, rng.New(seed)) },
			func(n, maxIn int, seed uint64) (*Table, error) { return refRandom(n, dout, maxIn, rng.New(seed)) }},
		{"geographic",
			func(n, maxIn int, seed uint64) (*Table, error) {
				return Geographic(universe(n, seed), dout, inRegion, maxIn, rng.New(seed))
			},
			func(n, maxIn int, seed uint64) (*Table, error) {
				return refGeographic(universe(n, seed), dout, inRegion, maxIn, rng.New(seed))
			}},
		{"kademlia",
			func(n, maxIn int, seed uint64) (*Table, error) { return Kademlia(n, dout, maxIn, rng.New(seed)) },
			func(n, maxIn int, seed uint64) (*Table, error) { return refKademlia(n, dout, maxIn, rng.New(seed)) }},
	}
	sizes := []int{9, 300, 1000}
	if !testing.Short() {
		sizes = append(sizes, 20000)
	}
	for _, b := range builders {
		for _, n := range sizes {
			if n > 1000 && b.name == "kademlia" {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d", b.name, n), func(t *testing.T) {
				for seed := uint64(1); seed <= 5; seed++ {
					got, err := b.got(n, 20, seed)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					want, err := b.want(n, 20, seed)
					if err != nil {
						t.Fatalf("seed %d: reference: %v", seed, err)
					}
					if !reflect.DeepEqual(got, want) {
						equalTables(t, got, want)
						t.Fatalf("seed %d: tables differ beyond their rows (version %d, reference %d)", seed, got.Version(), want.Version())
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				if n == 9 {
					return
				}
				_, err := b.got(n, dout-1, 1)
				_, want := b.want(n, dout-1, 1)
				if err == nil || want == nil || err.Error() != want.Error() {
					t.Fatalf("infeasible build: error %v, reference %v", err, want)
				}
			})
		}
	}
}
