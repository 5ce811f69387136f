package core

import (
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/stats"
)

// harvestByRowMinimum is the definition harvestObservations is held to:
// every node, the miner or not, finds its earliest announcement by scanning
// its EdgeArrival row.
func harvestByRowMinimum(res netsim.Result, b int, obs []Observations, outs, slot [][]int) {
	for v := range obs {
		row := res.EdgeArrival[v]
		tMin := stats.InfDuration
		for _, t := range row {
			tMin = min(tMin, t)
		}
		if tMin == stats.InfDuration {
			continue
		}
		for i := range outs[v] {
			if t := row[slot[v][i]]; t != stats.InfDuration {
				obs[v].Offsets[b][i] = t - tMin
			}
		}
	}
}

// TestHarvestMatchesRowMinimum checks that a node's first arrival stands in
// for the minimum of its row wherever harvestObservations uses it so: on
// broadcasts whose miner is an ordinary node, a silent node, and a member of
// a pair cut off from everyone else (so that nearly every node hears
// nothing), with silent neighbors that censor slots in the middle of rows,
// and with serialized uploads. The miner's own row — its arrival is 0, its
// first echo later — must come out relative to the echo.
func TestHarvestMatchesRowMinimum(t *testing.T) {
	const n = 60
	for seed := uint64(1); seed <= 4; seed++ {
		tn := newTestNetwork(t, n, seed)
		adj := tn.table.Undirected()
		// Nodes n-2 and n-1 keep only each other.
		for v := range adj {
			adj[v] = slices.DeleteFunc(adj[v], func(w int) bool { return (w >= n-2) != (v >= n-2) })
		}
		adj[n-2], adj[n-1] = []int{n - 1}, []int{n - 2}
		silent := make([]bool, n)
		intervals := make([]time.Duration, n)
		for v := range silent {
			silent[v] = v%5 == 2
			intervals[v] = time.Duration(v%3) * time.Millisecond * time.Duration(seed%2)
		}
		sim, err := netsim.New(netsim.Config{Adj: adj, Latency: tn.lat, Forward: tn.forward,
			Silent: silent, SendInterval: intervals})
		if err != nil {
			t.Fatal(err)
		}
		// Every other neighbor is an outgoing one.
		outs, slot := make([][]int, n), make([][]int, n)
		for v, row := range adj {
			for k := 0; k < len(row); k += 2 {
				outs[v] = append(outs[v], row[k])
				slot[v] = append(slot[v], k)
			}
		}
		sources := []int{0, 2, 31, n - 1} // 2 is silent; n-1 reaches only n-2
		got, want := make([]Observations, n), make([]Observations, n)
		for v := range got {
			got[v].Reset(outs[v], len(sources))
			want[v].Reset(outs[v], len(sources))
		}
		for b, src := range sources {
			res, err := sim.Broadcast(src)
			if err != nil {
				t.Fatal(err)
			}
			harvestObservations(res, b, got, outs, slot)
			harvestByRowMinimum(res, b, want, outs, slot)
			if echo := slices.Min(res.EdgeArrival[src]); echo == 0 || echo == stats.InfDuration {
				t.Fatalf("seed %d: miner %d's first echo is %v; the case needs one later than its arrival", seed, src, echo)
			}
		}
		censored, finite := 0, 0
		for v := range want {
			for b := range want[v].Offsets {
				if !slices.Equal(got[v].Offsets[b], want[v].Offsets[b]) {
					t.Fatalf("seed %d: node %d block %d: offsets %v, by row minimum %v",
						seed, v, b, got[v].Offsets[b], want[v].Offsets[b])
				}
				for _, d := range want[v].Offsets[b] {
					if d == stats.InfDuration {
						censored++
					} else {
						finite++
					}
				}
			}
		}
		if censored == 0 || finite == 0 {
			t.Fatalf("seed %d: %d censored and %d finite offsets; the case needs both", seed, censored, finite)
		}
	}
}
