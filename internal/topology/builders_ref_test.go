package topology

import (
	"fmt"
	"math/bits"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/rng"
)

// The per-edge reference builders of TestBuildersMatchReference: Random,
// Geographic and Kademlia with every dial a Connect outside an edit, which
// writes both rows at once, after fillFrom's explicit refusal checks. Their
// argument checks are left out; the test passes valid arguments.

// refFillFrom dials u to the peers a random scan of cand offers, skipping
// those that are u, already dialed or out of incoming slots, until u has
// quota outgoing connections or every candidate has been offered.
func refFillFrom(t *Table, u, quota int, cand []int, r *rng.RNG) error {
	for i := 0; i < len(cand) && t.OutDegree(u) < quota; i++ {
		v := draw(cand, i, r)
		if v == u || t.InFree(v) == 0 || t.HasOut(u, v) {
			continue
		}
		if err := t.Connect(u, v); err != nil {
			return err
		}
	}
	return nil
}

// refFillRandom fills u to quota from cand, which holds every node.
func refFillRandom(t *Table, u, quota int, cand []int, r *rng.RNG) error {
	if err := refFillFrom(t, u, quota, cand, r); err != nil {
		return err
	}
	if t.OutDegree(u) < quota {
		return fmt.Errorf("topology: node %d stuck at out-degree %d, want %d", u, t.OutDegree(u), quota)
	}
	return nil
}

func refRandom(n, outDegree, maxIn int, r *rng.RNG) (*Table, error) {
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
	}
	cand := identity(n)
	for _, u := range r.Perm(n) {
		if err := refFillRandom(t, u, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func refGeographic(u *geo.Universe, outDegree, inRegion, maxIn int, r *rng.RNG) (*Table, error) {
	n := u.N()
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
	}
	byRegion := make([][]int, geo.NumRegions)
	for i := 0; i < n; i++ {
		reg := u.Region(i)
		byRegion[reg] = append(byRegion[reg], i)
	}
	cand := identity(n)
	for _, v := range r.Perm(n) {
		if err := refFillFrom(t, v, inRegion, byRegion[u.Region(v)], r); err != nil {
			return nil, err
		}
		if err := refFillRandom(t, v, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func refKademlia(n, outDegree, maxIn int, r *rng.RNG) (*Table, error) {
	t, err := NewTable(n, maxIn)
	if err != nil {
		return nil, err
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
	cand := identity(n)
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
			for attempt := 0; attempt < 4; attempt++ {
				v := members[r.IntN(len(members))]
				if t.HasOut(u, v) {
					continue
				}
				if err := t.Connect(u, v); err == nil {
					break
				}
			}
		}
		if err := refFillRandom(t, u, outDegree, cand, r); err != nil {
			return nil, err
		}
	}
	return t, nil
}
