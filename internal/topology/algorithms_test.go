package topology

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

// lineGraph returns a path 0-1-2-...-(n-1).
func lineGraph(n int) [][]int {
	adj := make([][]int, n)
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	return adj
}

// bfsHops returns the hop distance from src to every node, or -1 when
// unreachable.
func bfsHops(adj [][]int, src int) []int {
	n := len(adj)
	hops := make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if hops[v] == -1 {
				hops[v] = hops[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return hops
}

// isConnected reports whether the undirected graph is a single component.
func isConnected(adj [][]int) bool {
	if len(adj) == 0 {
		return true
	}
	hops := bfsHops(adj, 0)
	for _, h := range hops {
		if h == -1 {
			return false
		}
	}
	return true
}

func unitWeight(u, v int) time.Duration { return time.Second }

func TestDijkstraLine(t *testing.T) {
	adj := lineGraph(5)
	dist := Dijkstra(adj, unitWeight, 0)
	for i, want := range []time.Duration{0, 1, 2, 3, 4} {
		if dist[i] != want*time.Second {
			t.Fatalf("dist[%d] = %v, want %v", i, dist[i], want*time.Second)
		}
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// 0-1-2 with cheap hops vs direct heavy edge 0-2.
	adj := [][]int{{1, 2}, {0, 2}, {0, 1}}
	w := func(u, v int) time.Duration {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10 * time.Second
		}
		return time.Second
	}
	dist := Dijkstra(adj, w, 0)
	if dist[2] != 2*time.Second {
		t.Fatalf("dist[2] = %v, want 2s via node 1", dist[2])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	adj := [][]int{{1}, {0}, {}}
	dist := Dijkstra(adj, unitWeight, 0)
	if dist[2] != stats.InfDuration {
		t.Fatalf("unreachable node distance = %v, want InfDuration", dist[2])
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	adj, err := RandomUndirected(80, 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	dist := Dijkstra(adj, unitWeight, 0)
	hops := bfsHops(adj, 0)
	for i := range adj {
		if hops[i] == -1 {
			if dist[i] != stats.InfDuration {
				t.Fatalf("node %d: BFS unreachable but Dijkstra %v", i, dist[i])
			}
			continue
		}
		if dist[i] != time.Duration(hops[i])*time.Second {
			t.Fatalf("node %d: dijkstra %v != %d hops", i, dist[i], hops[i])
		}
	}
}

func TestBFSHops(t *testing.T) {
	adj := lineGraph(4)
	hops := bfsHops(adj, 2)
	want := []int{2, 1, 0, 1}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops = %v, want %v", hops, want)
		}
	}
}

func TestIsConnected(t *testing.T) {
	if !isConnected(lineGraph(10)) {
		t.Fatal("line graph should be connected")
	}
	if isConnected([][]int{{1}, {0}, {}}) {
		t.Fatal("graph with isolated node reported connected")
	}
	if !isConnected(nil) {
		t.Fatal("empty graph is trivially connected")
	}
}

func TestStretchSampleGeometricVsRandom(t *testing.T) {
	// The paper's Figure 1 claim: geometric graphs have far smaller
	// stretch than random graphs on embedded points.
	const n = 400
	r := rng.New(11)
	cube, err := latency.NewHypercube(n, 2, time.Second, r.Derive("points"))
	if err != nil {
		t.Fatal(err)
	}
	w := func(u, v int) time.Duration { return cube.Delay(u, v) }

	randomAdj, err := RandomUndirected(n, 3, r.Derive("random"))
	if err != nil {
		t.Fatal(err)
	}
	// Radius ~ sqrt(log n / n) keeps the geometric graph connected w.h.p.
	geomAdj, err := Geometric(n, cube.Distance, 0.14)
	if err != nil {
		t.Fatal(err)
	}
	randStretch, err := StretchSample(randomAdj, w, 150, r.Derive("pairs-a"))
	if err != nil {
		t.Fatal(err)
	}
	geomStretch, err := StretchSample(geomAdj, w, 150, r.Derive("pairs-b"))
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
	adj := lineGraph(3)
	if _, err := StretchSample(adj, unitWeight, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for pairs=0")
	}
	if _, err := StretchSample(adj, unitWeight, 5, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	if _, err := StretchSample([][]int{{}}, unitWeight, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for single node")
	}
	// Fully disconnected graph cannot produce pairs and must not hang.
	if _, err := StretchSample([][]int{{}, {}, {}}, unitWeight, 5, rng.New(1)); err == nil {
		t.Fatal("expected error for disconnected graph")
	}
}
