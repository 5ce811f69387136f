package topology

import (
	"fmt"
	"math/bits"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/rng"
)

// Random builds the Bitcoin-style random topology (§3.1): every node opens
// outDegree outgoing connections to uniformly random distinct peers,
// honoring the incoming cap. Nodes connect in random order; a node that
// cannot fill its quota after scanning every peer returns an error (with
// sensible parameters — maxIn >= outDegree — this does not happen in
// practice). A build costs time and memory proportional to its edges.
func Random(n, outDegree, maxIn int, r *rng.RNG) (*Table, error) {
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
	}
	if outDegree <= 0 || outDegree >= n {
		return nil, fmt.Errorf("topology: out-degree %d outside (0, n=%d)", outDegree, n)
	}
	if r == nil {
		return nil, fmt.Errorf("topology: nil rng")
	}
	cand := identity(n)
	t.Begin()
	for _, u := range r.Perm(n) {
		if err := fillRandom(t, u, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	t.Commit()
	return t, nil
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// draw fixes position i of a forward Fisher–Yates shuffle of cand and
// returns it. Calling it for i = 0, 1, ... visits cand in uniformly random
// order whatever arrangement cand starts in, so one array serves every scan
// of a build without being reset, and a scan costs only what it reads.
func draw(cand []int, i int, r *rng.RNG) int {
	j := i + r.IntN(len(cand)-i)
	cand[i], cand[j] = cand[j], cand[i]
	return cand[i]
}

// fillFrom dials u to the peers a random scan of cand offers, skipping those
// that are u, already dialed or out of incoming slots, until u has quota
// outgoing connections or every candidate has been offered. A builder runs
// it inside its edit (see Table.Begin), so a dial writes only u's row.
func fillFrom(t *Table, u, quota int, cand []int, r *rng.RNG) {
	for i := 0; i < len(cand) && t.OutDegree(u) < quota; i++ {
		t.tryConnect(u, draw(cand, i, r))
	}
}

// fillRandom fills u to quota from cand, which holds every node; a u that
// is still short after all of them were offered is an error.
func fillRandom(t *Table, u, quota int, cand []int, r *rng.RNG) error {
	fillFrom(t, u, quota, cand, r)
	if t.OutDegree(u) < quota {
		return fmt.Errorf("topology: node %d stuck at out-degree %d, want %d", u, t.OutDegree(u), quota)
	}
	return nil
}

// Geographic builds the geography-aware baseline of §3.2: each node opens
// inRegion connections to random peers in its own region and
// outDegree-inRegion connections to random peers anywhere. Nodes in regions
// too small to supply inRegion distinct peers fall back to random choices.
func Geographic(u *geo.Universe, outDegree, inRegion, maxIn int, r *rng.RNG) (*Table, error) {
	if u == nil {
		return nil, fmt.Errorf("topology: nil universe")
	}
	if inRegion < 0 || inRegion > outDegree {
		return nil, fmt.Errorf("topology: in-region count %d outside [0, %d]", inRegion, outDegree)
	}
	n := u.N()
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
	}
	if outDegree <= 0 || outDegree >= n {
		return nil, fmt.Errorf("topology: out-degree %d outside (0, n=%d)", outDegree, n)
	}
	if r == nil {
		return nil, fmt.Errorf("topology: nil rng")
	}
	// Pre-index region membership once.
	byRegion := make([][]int, geo.NumRegions)
	for i := 0; i < n; i++ {
		reg := u.Region(i)
		byRegion[reg] = append(byRegion[reg], i)
	}
	cand := identity(n)
	t.Begin()
	for _, v := range r.Perm(n) {
		// Local connections first; a region too small leaves a shortfall.
		fillFrom(t, v, inRegion, byRegion[u.Region(v)], r)
		// Remaining connections anywhere (also tops up any local shortfall).
		if err := fillRandom(t, v, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	t.Commit()
	return t, nil
}

// Kademlia builds a Kadcast-style structured overlay (§5.1, [37]): nodes
// get random 64-bit IDs; peers are grouped into XOR-distance buckets by the
// index of the highest differing bit, and each node connects to one random
// member of each bucket, starting from the farthest bucket, until
// outDegree connections are made. Unfillable slots (empty buckets, full
// incoming caps) fall back to random peers so every node reaches
// outDegree. Bucketing every peer for every node is O(n²): this builder is
// for figure-scale networks only.
func Kademlia(n, outDegree, maxIn int, r *rng.RNG) (*Table, error) {
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
	}
	if outDegree <= 0 || outDegree >= n {
		return nil, fmt.Errorf("topology: out-degree %d outside (0, n=%d)", outDegree, n)
	}
	if r == nil {
		return nil, fmt.Errorf("topology: nil rng")
	}
	ids := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for i := range ids {
		for {
			id := r.Uint64()
			if !seen[id] {
				seen[id] = true
				ids[i] = id
				break
			}
		}
	}
	// buckets[u][b] lists nodes whose ID differs from u's in bit b as the
	// most significant differing bit (bucket 63 = farthest).
	cand := identity(n)
	t.Begin()
	for _, u := range r.Perm(n) {
		var buckets [64][]int
		for v := 0; v < n; v++ {
			if v == u {
				continue
			}
			b := 63 - bits.LeadingZeros64(ids[u]^ids[v])
			buckets[b] = append(buckets[b], v)
		}
		for b := 63; b >= 0 && t.OutDegree(u) < outDegree; b-- {
			members := buckets[b]
			if len(members) == 0 {
				continue
			}
			// Try a few random members before giving up on this bucket.
			for attempt := 0; attempt < 4; attempt++ {
				if t.tryConnect(u, members[r.IntN(len(members))]) {
					break
				}
			}
		}
		if err := fillRandom(t, u, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	t.Commit()
	return t, nil
}

// Geometric builds the threshold geometric graph of §3.3 over a point set:
// nodes u, v are adjacent iff dist(u, v) < radius. Every edge is a pin (see
// Table.Pin): the graph has no degree caps — it is a theoretical construct.
func Geometric(n int, dist func(u, v int) float64, radius float64) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: geometric graph size %d must be positive", n)
	}
	if dist == nil {
		return nil, fmt.Errorf("topology: nil distance function")
	}
	if radius <= 0 {
		return nil, fmt.Errorf("topology: radius %v must be positive", radius)
	}
	t, err := NewTable(n, 1) // pins take no slot, so the cap is moot
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dist(u, v) < radius {
				if err := t.Pin(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return t, nil
}

// RandomUndirected builds an Erdős–Rényi-flavored undirected graph where
// each node links to degree uniformly random peers (used for the Figure 1
// and Theorem 1 experiments, which have no degree caps). Every edge is a
// pin; a drawn peer u is already pinned to does not count toward u's degree.
func RandomUndirected(n, degree int, r *rng.RNG) (*Table, error) {
	if n <= 1 {
		return nil, fmt.Errorf("topology: undirected graph size %d too small", n)
	}
	if degree <= 0 || degree >= n {
		return nil, fmt.Errorf("topology: degree %d outside (0, n=%d)", degree, n)
	}
	if r == nil {
		return nil, fmt.Errorf("topology: nil rng")
	}
	t, err := NewTable(n, 1)
	if err != nil {
		return nil, err
	}
	cand := identity(n)
	for u := 0; u < n; u++ {
		made := 0
		for i := 0; i < n && made < degree; i++ {
			v := draw(cand, i, r)
			if v == u {
				continue
			}
			// Pin steps Version only when the pair is new.
			before := t.Version()
			if err := t.Pin(u, v); err != nil {
				return nil, err
			}
			if t.Version() != before {
				made++
			}
		}
	}
	return t, nil
}

// RelayTree returns the undirected edges of a b-ary tree over the given
// member nodes, in the order provided: members[i] links to
// members[(i-1)/branching]. This reproduces the Figure 4(c) relay network
// (100 nodes organized as a tree with low-latency links).
func RelayTree(members []int, branching int) ([][2]int, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("topology: relay tree needs at least 2 members, got %d", len(members))
	}
	if branching <= 0 {
		return nil, fmt.Errorf("topology: branching %d must be positive", branching)
	}
	seen := make(map[int]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("topology: duplicate relay member %d", m)
		}
		seen[m] = true
	}
	edges := make([][2]int, 0, len(members)-1)
	for i := 1; i < len(members); i++ {
		parent := members[(i-1)/branching]
		edges = append(edges, [2]int{parent, members[i]})
	}
	return edges, nil
}
