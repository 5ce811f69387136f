package topology

import "testing"

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
