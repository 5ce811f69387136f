package core

import (
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/stats"
)

// inbound is what a round's harvest reads besides each block's arrival
// vector. A node relays a block once, Forward + RelayDelay after its first
// arrival (the miner at once), so the time its copy reaches a neighbor is a
// closed form of its arrival: the broadcasts record arrivals only, and
// harvest rebuilds the few edge times a node observes from them.
type inbound struct {
	sim *netsim.Simulator
	// outs holds every node's outgoing neighbors, node after node: node v's
	// are outs[start[v]:start[v+1]], ascending. hops[start[v]+i] is the
	// netsim.InboundHop value of v's i-th outgoing neighbor.
	outs  []int
	start []int
	hops  []time.Duration
	// cost[u] is what u's relay adds to its first arrival, Forward[u] +
	// RelayDelay[u], or InfDuration when u is silent and relays nothing.
	cost []time.Duration
}

// out returns node v's outgoing neighbors.
func (in *inbound) out(v int) []int { return in.outs[in.start[v]:in.start[v+1]] }

// fillRow writes node v's hop row. Its outgoing neighbors and its adjacency
// row are both ascending, so one merged walk finds every outgoing
// neighbor's position.
func (in *inbound) fillRow(v int) error {
	row := in.sim.Row(v)
	hops := in.hops[in.start[v]:]
	k := 0
	for i, u := range in.out(v) {
		for k < len(row) && int(row[k]) != u {
			k++
		}
		if k == len(row) {
			return fmt.Errorf("core: internal: outgoing neighbor %d of %d missing from adjacency", u, v)
		}
		hops[i] = in.sim.InboundHop(v, k)
	}
	return nil
}

// setCosts reads the per-node relay tables once for a round's broadcasts,
// as the floods of those broadcasts read them.
func (in *inbound) setCosts(forward, relayDelay []time.Duration, silent []bool) {
	cost := grow(&in.cost, len(forward))
	for u, d := range forward {
		if relayDelay != nil {
			d += relayDelay[u]
		}
		if silent != nil && silent[u] {
			d = stats.InfDuration
		}
		cost[u] = d
	}
}

// firstEcho is when the miner src first hears its own block back: the
// earliest relay to it over its whole row, InfDuration when none comes.
func (in *inbound) firstEcho(arrival []time.Duration, src int) time.Duration {
	echo := stats.InfDuration
	for k, u := range in.sim.Row(src) {
		if a, c := arrival[u], in.cost[u]; a != stats.InfDuration && c != stats.InfDuration {
			echo = min(echo, a+c+in.sim.InboundHop(src, k))
		}
	}
	return echo
}

// harvest writes block row b of every node's observation matrix from the
// block's first-arrival vector and returns the miner's first echo. An
// offset is the outgoing neighbor's delivery time relative to the node's
// earliest announcement: its first arrival, or for the miner, which holds
// the block at 0, its first echo. A neighbor that is silent or never
// reached, and every neighbor of a node that heard nothing, is censored.
// harvest writes every cell of the row, so the matrices need no fill
// beforehand; rows are per block, so concurrent calls for distinct b never
// race.
func (in *inbound) harvest(arrival []time.Duration, src, b int, obs []Observations) time.Duration {
	echo := in.firstEcho(arrival, src)
	for v := range obs {
		first := arrival[v]
		if v == src {
			first = echo
		}
		lo, hi := in.start[v], in.start[v+1]
		outs, k := in.outs[lo:hi], hi-lo
		// Block row b of the flat matrix, without loading its row header
		// from Offsets: that is a cache miss per (node, block).
		dst := obs[v].backing[b*k : (b+1)*k]
		if first == stats.InfDuration {
			for i := range dst {
				dst[i] = stats.InfDuration
			}
			continue
		}
		hops := in.hops[lo:hi]
		for i, u := range outs {
			t := stats.InfDuration
			if u == src {
				t = hops[i] - first // the miner's sends pay no relay cost
			} else if a, c := arrival[u], in.cost[u]; a != stats.InfDuration && c != stats.InfDuration {
				t = a + c + hops[i] - first
			}
			dst[i] = t
		}
	}
	return echo
}

// copyRow copies block row from of every node's observation matrix into row
// to. Two blocks of a round from one miner observe the same flood, so
// BroadcastAll harvests the first and copies its row to the others.
func copyRow(obs []Observations, from, to int) {
	for v := range obs {
		k := len(obs[v].Neighbors)
		copy(obs[v].backing[to*k:(to+1)*k], obs[v].backing[from*k:(from+1)*k])
	}
}
