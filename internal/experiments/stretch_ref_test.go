package experiments

import (
	"container/heap"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// The stretch pipeline's references: the [][]int graph builders and the
// heap Dijkstra the figures ran on before the graphs became tables of pins
// and the distances the simulator's flood. TestUndirectedBuildersMatchReference
// holds the tables and the flood stretch to them.

// refGeometric is topology.Geometric as adjacency lists in build order.
func refGeometric(n int, dist func(u, v int) float64, radius float64) [][]int {
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dist(u, v) < radius {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}

// refRandomUndirected is topology.RandomUndirected as adjacency lists in
// build order, with its own copy of the builders' lazy shuffle so that it
// draws what the table build draws.
func refRandomUndirected(n, degree int, r *rng.RNG) [][]int {
	type pair struct{ a, b int }
	seen := make(map[pair]bool, n*degree)
	adj := make([][]int, n)
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || seen[pair{a, b}] {
			return
		}
		seen[pair{a, b}] = true
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	cand := make([]int, n)
	for i := range cand {
		cand[i] = i
	}
	for u := 0; u < n; u++ {
		made := 0
		for i := 0; i < n && made < degree; i++ {
			j := i + r.IntN(n-i)
			cand[i], cand[j] = cand[j], cand[i]
			v := cand[i]
			if v == u {
				continue
			}
			before := len(adj[u])
			add(u, v)
			if len(adj[u]) > before {
				made++
			}
		}
	}
	return adj
}

// refDijkstra computes single-source shortest paths over adj with a binary
// heap; unreachable nodes get stats.InfDuration.
func refDijkstra(adj [][]int, weight func(u, v int) time.Duration, src int) []time.Duration {
	dist := make([]time.Duration, len(adj))
	for i := range dist {
		dist[i] = stats.InfDuration
	}
	dist[src] = 0
	pq := &distHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(distItem)
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		u := item.node
		for _, v := range adj[u] {
			if d := dist[u] + weight(u, v); d < dist[v] {
				dist[v] = d
				heap.Push(pq, distItem{node: v, dist: d})
			}
		}
	}
	return dist
}

type distItem struct {
	node int
	dist time.Duration
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refStretchSample is stretchSample's sampling loop over refDijkstra.
func refStretchSample(adj [][]int, weight func(u, v int) time.Duration, pairs int, r *rng.RNG) []float64 {
	n := len(adj)
	var out []float64
	const perSource = 4
	for attempts := 0; len(out) < pairs && attempts < pairs*50; attempts++ {
		src := r.IntN(n)
		dist := refDijkstra(adj, weight, src)
		for k := 0; k < perSource && len(out) < pairs; k++ {
			dst := r.IntN(n)
			if dst == src {
				continue
			}
			direct := weight(src, dst)
			if direct <= 0 || dist[dst] == stats.InfDuration {
				continue
			}
			out = append(out, float64(dist[dst])/float64(direct))
		}
	}
	return out
}

// TestUndirectedBuildersMatchReference builds the geometric and random
// graphs of the stretch figures (the theorems' degree and Figure 1's 3) at
// every theorem size and seeds 1–5, and checks that each table's rows are
// the reference builder's rows sorted and that the flood's stretch equals
// the reference Dijkstra's to the bit.
func TestUndirectedBuildersMatchReference(t *testing.T) {
	for _, n := range TheoremSizes {
		for seed := uint64(1); seed <= 5; seed++ {
			root := rng.New(seed)
			cube, err := latency.NewHypercube(n, 2, 100*time.Millisecond, root.Derive("points"))
			if err != nil {
				t.Fatal(err)
			}
			deg := max(int(math.Ceil(math.Log(float64(n))/2)), 2)
			graphs := []struct {
				name string
				tbl  func() (*topology.Table, error)
				ref  func() [][]int
			}{
				{"geometric", func() (*topology.Table, error) {
					return topology.Geometric(n, cube.Distance, geometricRadius(n, 2))
				}, func() [][]int { return refGeometric(n, cube.Distance, geometricRadius(n, 2)) }},
				{"random", func() (*topology.Table, error) {
					return topology.RandomUndirected(n, deg, root.Derive("graph"))
				}, func() [][]int { return refRandomUndirected(n, deg, root.Derive("graph")) }},
				{"random-3", func() (*topology.Table, error) {
					return topology.RandomUndirected(n, 3, root.Derive("random"))
				}, func() [][]int { return refRandomUndirected(n, 3, root.Derive("random")) }},
			}
			for _, g := range graphs {
				t.Run(fmt.Sprintf("%s/n=%d/seed=%d", g.name, n, seed), func(t *testing.T) {
					tbl, err := g.tbl()
					if err != nil {
						t.Fatal(err)
					}
					ref := g.ref()
					var row []int32
					for u := range n {
						row = tbl.AppendUndirected(row[:0], u)
						want := slices.Clone(ref[u])
						slices.Sort(want)
						got := make([]int, len(row))
						for i, v := range row {
							got[i] = int(v)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("row %d: table %v, reference %v", u, got, want)
						}
					}
					got, err := stretchSample(tbl, cube, 150, root.Derive("pairs"))
					if err != nil {
						t.Fatal(err)
					}
					want := refStretchSample(ref, cube.Delay, 150, root.Derive("pairs"))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("flood stretch differs from Dijkstra's:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// TestStretchSampleGeometricVsRandom checks the paper's Figure 1 claim on
// one graph pair: geometric graphs have far smaller stretch than random
// graphs on embedded points, and no stretch is below 1.
func TestStretchSampleGeometricVsRandom(t *testing.T) {
	const n = 400
	r := rng.New(11)
	cube, err := latency.NewHypercube(n, 2, time.Second, r.Derive("points"))
	if err != nil {
		t.Fatal(err)
	}
	random, err := topology.RandomUndirected(n, 3, r.Derive("random"))
	if err != nil {
		t.Fatal(err)
	}
	// Radius ~ sqrt(log n / n) keeps the geometric graph connected w.h.p.
	geom, err := topology.Geometric(n, cube.Distance, 0.14)
	if err != nil {
		t.Fatal(err)
	}
	randStretch, err := stretchSample(random, cube, 150, r.Derive("pairs-a"))
	if err != nil {
		t.Fatal(err)
	}
	geomStretch, err := stretchSample(geom, cube, 150, r.Derive("pairs-b"))
	if err != nil {
		t.Fatal(err)
	}
	randMed := stats.Percentile(randStretch, 0.5)
	geomMed := stats.Percentile(geomStretch, 0.5)
	if geomMed >= randMed {
		t.Fatalf("geometric stretch %.2f should beat random stretch %.2f", geomMed, randMed)
	}
	for _, s := range geomStretch {
		if s < 1-1e-9 {
			t.Fatalf("stretch %v below 1 is impossible", s)
		}
	}
}

func TestStretchSampleErrors(t *testing.T) {
	unit := latency.Constant{Nodes: 3, D: time.Second}
	table := func(n int, edges ...[2]int) *topology.Table {
		t.Helper()
		tbl, err := topology.NewTable(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if err := tbl.Pin(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	line := table(3, [2]int{0, 1}, [2]int{1, 2})
	if _, err := stretchSample(line, unit, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for pairs=0")
	}
	if _, err := stretchSample(line, unit, 5, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := stretchSample(table(1), unit, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for single node")
	}
	// Fully disconnected graph cannot produce pairs and must not hang.
	if _, err := stretchSample(table(3), unit, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}
