package topology

import (
	"container/heap"
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

// WeightFunc returns the weight of the undirected edge (u, v).
type WeightFunc func(u, v int) time.Duration

// Dijkstra computes single-source shortest paths over undirected adjacency
// lists with non-negative edge weights. Unreachable nodes get
// stats.InfDuration.
func Dijkstra(adj [][]int, weight WeightFunc, src int) []time.Duration {
	n := len(adj)
	dist := make([]time.Duration, n)
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
			d := dist[u] + weight(u, v)
			if d < dist[v] {
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
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// BFSHops returns the hop distance from src to every node, or -1 when
// unreachable.
func BFSHops(adj [][]int, src int) []int {
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

// IsConnected reports whether the undirected graph is a single component.
func IsConnected(adj [][]int) bool {
	if len(adj) == 0 {
		return true
	}
	hops := BFSHops(adj, 0)
	for _, h := range hops {
		if h == -1 {
			return false
		}
	}
	return true
}

// StretchSample measures multiplicative path stretch over random node
// pairs: Dijkstra graph distance divided by the direct point-to-point
// delay. Pairs with zero direct delay or in different components are
// skipped. It returns one stretch value per usable pair.
func StretchSample(adj [][]int, weight WeightFunc, pairs int, r *rng.RNG) ([]float64, error) {
	n := len(adj)
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 nodes for stretch")
	}
	if pairs <= 0 {
		return nil, fmt.Errorf("topology: pair count %d must be positive", pairs)
	}
	if r == nil {
		return nil, fmt.Errorf("topology: nil rng")
	}
	var out []float64
	// Group pairs by source so one Dijkstra serves several targets. Bound
	// total attempts so a disconnected or degenerate graph cannot loop
	// forever.
	const perSource = 4
	maxAttempts := pairs * 50
	for attempts := 0; len(out) < pairs; attempts++ {
		if attempts >= maxAttempts {
			return nil, fmt.Errorf("topology: could not find %d usable pairs in %d attempts (graph disconnected?)", pairs, maxAttempts)
		}
		src := r.IntN(n)
		dist := Dijkstra(adj, weight, src)
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
	return out, nil
}
