// Custom-selector demo: one neighbor-selection policy, written entirely
// against the public API, driving BOTH environments — the discrete-event
// simulator (perigee.New) and a cluster of live TCP nodes (node.New) —
// without modification. This is the point of the Selector interface: the
// decision loop is environment-agnostic, so a policy is evaluated in
// simulation and deployed over real sockets as the same value.
//
// The policy here is a "trimmed-mean rotator": it scores each neighbor by
// the mean of its finite offsets (censoring blocks it never delivered,
// with a penalty per miss), keeps the best OutDegree−1, and rotates one
// slot. It is deliberately not one of the built-ins. The program exits
// non-zero unless the simulated median λ falls and the live hub drops the
// slow relay and nothing else.
//
//	go run ./examples/customselector
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/node"
)

// trimmedMeanSelector is the custom policy. It holds no cross-round
// state, so the same instance can safely drive every simulated node and
// any number of live nodes.
type trimmedMeanSelector struct {
	// missPenalty is added to a neighbor's score for every block it never
	// delivered inside the window.
	missPenalty time.Duration
}

func (s trimmedMeanSelector) SelectNeighbors(view perigee.NeighborView) (perigee.Decision, error) {
	obs := view.Observations
	k := len(obs.Neighbors)
	retain := view.OutDegree - 1
	if retain < 0 {
		retain = 0
	}
	if k <= retain {
		keep := make([]int, k)
		for i := range keep {
			keep[i] = i
		}
		return perigee.Decision{Keep: keep, Dial: view.OutDegree - k}, nil
	}
	scores := make([]time.Duration, k)
	for i := 0; i < k; i++ {
		var sum time.Duration
		finite := 0
		for _, row := range obs.Offsets {
			if row[i] == perigee.Censored {
				sum += s.missPenalty
				continue
			}
			sum += row[i]
			finite++
		}
		if finite == 0 {
			scores[i] = perigee.Censored
			continue
		}
		scores[i] = sum / time.Duration(len(obs.Offsets))
	}
	ranked := make([]int, k)
	for i := range ranked {
		ranked[i] = i
	}
	sort.Slice(ranked, func(a, b int) bool {
		ia, ib := ranked[a], ranked[b]
		if scores[ia] != scores[ib] {
			return scores[ia] < scores[ib]
		}
		return obs.Neighbors[ia] < obs.Neighbors[ib] // deterministic ties
	})
	keep := append([]int(nil), ranked[:retain]...)
	drop := append([]int(nil), ranked[retain:]...)
	return perigee.Decision{Keep: keep, Drop: drop, Dial: view.OutDegree - retain}, nil
}

func main() {
	policy := trimmedMeanSelector{missPenalty: time.Second}

	// ------------------------------------------------------------------
	// Environment 1: the simulator. 150 nodes, 10 rounds, paper defaults
	// otherwise. The λ metric improves as the custom policy converges.
	// ------------------------------------------------------------------
	fmt.Println("simulator: 150 nodes under the trimmed-mean policy")
	net, err := perigee.New(150,
		perigee.WithSeed(7),
		perigee.WithRoundBlocks(20),
		perigee.WithSelector(policy),
	)
	if err != nil {
		log.Fatal(err)
	}
	before := medianDelay(net)
	if err := net.Run(10); err != nil {
		log.Fatal(err)
	}
	after := medianDelay(net)
	fmt.Printf("  median λ(0.9): %v before → %v after 10 rounds (%+.0f%%)\n",
		before.Round(time.Millisecond), after.Round(time.Millisecond),
		100*(float64(after)/float64(before)-1))
	if after >= before {
		log.Fatalf("median λ(0.9) did not fall: %v before, %v after", before, after)
	}

	// ------------------------------------------------------------------
	// Environment 2: live TCP on localhost. A hub with three relays, one
	// artificially slow; the exact same policy value evicts it from real
	// arrival timestamps.
	// ------------------------------------------------------------------
	fmt.Println("\nlive TCP: hub + 3 relays, one delayed by 100ms")
	newNode := func(seed uint64, opts ...node.Option) *node.Node {
		opts = append([]node.Option{
			node.WithListen("127.0.0.1:0"),
			node.WithNetwork("customselector-example"),
			node.WithSeed(seed),
		}, opts...)
		n, err := node.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		if err := n.Start(); err != nil {
			log.Fatal(err)
		}
		return n
	}
	miner := newNode(1)
	fastA := newNode(2)
	fastB := newNode(3)
	slow := newNode(4, node.WithLatencyInjection(func(uint64) time.Duration {
		return 100 * time.Millisecond
	}))
	hub := newNode(5, node.WithOutDegree(3), node.WithSelector(policy))
	all := []*node.Node{miner, fastA, fastB, slow, hub}
	defer func() {
		for _, n := range all {
			n.Stop()
		}
	}()
	for _, relay := range []*node.Node{fastA, fastB, slow} {
		if err := miner.Connect(relay.Addr()); err != nil {
			log.Fatal(err)
		}
		if err := hub.Connect(relay.Addr()); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if _, err := miner.MineBlock([][]byte{fmt.Appendf(nil, "tx-%d", i)}); err != nil {
			log.Fatal(err)
		}
		deadline := time.Now().Add(3 * time.Second)
		for hub.Height() < uint64(i+1) {
			if time.Now().After(deadline) {
				log.Fatalf("block %d never reached the hub", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	time.Sleep(200 * time.Millisecond) // let delayed announcements land

	stats, err := hub.Round()
	if err != nil {
		log.Fatal(err)
	}
	if len(stats.DroppedEdges) == 0 {
		log.Fatal("the hub dropped no relay")
	}
	for _, edge := range stats.DroppedEdges {
		if uint64(edge[1]) != slow.ID() {
			log.Fatalf("the hub dropped %016x, a fast relay", uint64(edge[1]))
		}
		fmt.Printf("  hub dropped %016x — the slow relay\n", uint64(edge[1]))
	}
	fmt.Println("\nsame policy value, two environments: simulated rounds and")
	fmt.Println("live TCP rounds both ran trimmedMeanSelector unmodified.")
}

// medianDelay measures the network's median λ(0.9) broadcast delay.
func medianDelay(net *perigee.Network) time.Duration {
	ds, err := net.BroadcastDelays(0.9)
	if err != nil {
		log.Fatal(err)
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}
