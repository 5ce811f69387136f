// Live network demo: real TCP nodes on localhost running the
// Bitcoin-style INV/GETDATA/BLOCK protocol with injected per-link
// latencies, built entirely on the public perigee/node API. One node is
// the miner; a hub node runs live Perigee rounds and learns to drop its
// artificially slow relay.
//
// Unlike the simulation examples, scoring here runs on real TCP arrival
// timestamps, with no latency oracle — the same Subset policy the
// simulator defaults to, driving a live node.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/node"
)

func main() {
	newNode := func(seed uint64, opts ...node.Option) *node.Node {
		opts = append([]node.Option{
			node.WithListen("127.0.0.1:0"),
			node.WithNetwork("livenet-example"),
			node.WithSeed(seed),
		}, opts...)
		n, err := node.New(opts...)
		if err != nil {
			log.Fatalf("node %d: %v", seed, err)
		}
		if err := n.Start(); err != nil {
			log.Fatalf("start %d: %v", seed, err)
		}
		return n
	}

	miner := newNode(1)
	fastA := newNode(2)
	fastB := newNode(3)
	// This relay adds 120ms before every message it sends.
	slow := newNode(4, node.WithLatencyInjection(func(uint64) time.Duration {
		return 120 * time.Millisecond
	}))

	names := map[int]string{}
	hub := newNode(5,
		node.WithOutDegree(3),
		node.WithSelector(perigee.SubsetSelector(1, 0.9)),
		node.WithObserver(node.ObserverFunc(func(n *node.Node, s perigee.RoundStats) {
			for _, edge := range s.DroppedEdges {
				fmt.Printf("  dropped %s (%016x)\n", names[edge[1]], uint64(edge[1]))
			}
			fmt.Printf("  dialed %d fresh peers from the address book\n", s.Summary.ConnectionsAdded)
		})),
	)
	all := []*node.Node{miner, fastA, fastB, slow, hub}
	defer func() {
		for _, n := range all {
			n.Stop()
		}
	}()

	relays := []*node.Node{fastA, fastB, slow}
	names[int(fastA.ID())] = "fastA"
	names[int(fastB.ID())] = "fastB"
	names[int(slow.ID())] = "slow"
	for _, r := range relays {
		if err := miner.Connect(r.Addr()); err != nil {
			log.Fatalf("miner connect: %v", err)
		}
		if err := hub.Connect(r.Addr()); err != nil {
			log.Fatalf("hub connect: %v", err)
		}
	}
	fmt.Println("topology: miner -> {fastA, fastB, slow} -> hub")
	fmt.Println("the slow relay delays every send by 120ms")

	fmt.Println("\nmining 8 blocks...")
	for i := 0; i < 8; i++ {
		if _, err := miner.MineBlock([][]byte{fmt.Appendf(nil, "tx-%d", i)}); err != nil {
			log.Fatalf("mining: %v", err)
		}
		waitForHeight(hub, uint64(i+1))
	}
	time.Sleep(250 * time.Millisecond) // let the slow announcements land

	fmt.Printf("hub observed %d blocks; running a live Perigee round...\n", hub.ObservationWindow())
	stats, err := hub.Round()
	if err != nil {
		log.Fatalf("perigee round: %v", err)
	}
	if len(stats.DroppedEdges) == 1 && names[stats.DroppedEdges[0][1]] == "slow" {
		fmt.Println("\nthe hub evicted exactly the slow relay — scoring on real")
		fmt.Println("TCP arrival timestamps, no latency oracle involved.")
	}
}

func waitForHeight(n *node.Node, h uint64) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if n.Height() >= h {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for height %d", h)
}
