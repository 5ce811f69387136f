// Command perigee-cluster runs a whole Perigee network of live TCP nodes
// on one machine, entirely through the public perigee/node API: per-link
// latencies from the paper's geographic model are injected into every
// node's sends, a miner schedule drives block production, and all nodes
// run live Perigee rounds. It reports block propagation times before and
// after the topology adapts.
//
// With -faults a seeded chaos plan injects connection resets, stalls, dial
// failures, and message drops into a fraction of links, exercising the
// node's backoff, redial, and backpressure machinery; the run then reports
// aggregate resilience counters.
//
//	perigee-cluster -nodes 20 -rounds 3 -blocks 15 -scoring vanilla
//	perigee-cluster -nodes 12 -faults 0.2 -fault-seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"sort"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/cmd/internal/cliopts"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/node"
)

func main() {
	var (
		nodeCount  = flag.Int("nodes", 16, "cluster size")
		outDegree  = flag.Int("out-degree", 4, "outbound connections per node")
		explore    = flag.Int("explore", 1, "exploration slots per round")
		scoring    = flag.String("scoring", "subset", "selection policy: subset, vanilla, ucb, or random")
		percentile = flag.Float64("percentile", 0.9, "scoring quantile in (0, 1]")
		maxInbound = flag.Int("max-inbound", paper.MaxIncoming, "inbound connection cap per node")
		rounds     = flag.Int("rounds", 3, "live Perigee rounds")
		blocks     = flag.Int("blocks", 12, "blocks mined per round")
		seed       = flag.Uint64("seed", 11, "randomness seed")
		faults     = flag.Float64("faults", 0, "fraction of dials and connections faulted by a seeded chaos plan (0 disables)")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for the fault plan (same seed replays the same faults)")
		singleSeed = flag.Bool("single-seed", false, "bootstrap from one seed node via addr-gossip discovery instead of full address knowledge")
		verbose    = flag.Bool("v", false, "per-node logging")
	)
	flag.Parse()
	if *faults < 0 || *faults > 1 {
		fmt.Fprintln(os.Stderr, "-faults must be in [0, 1]")
		os.Exit(2)
	}
	if *nodeCount < 4 || *outDegree >= *nodeCount {
		fmt.Fprintln(os.Stderr, "need at least 4 nodes and out-degree below the cluster size")
		os.Exit(2)
	}
	sel, err := cliopts.Selector(*scoring, *explore, *percentile, *outDegree)
	if err != nil {
		log.Fatal(err)
	}

	// The same geographic model the simulator evaluates, injected into
	// real TCP sends. A link's one-way delay δ is injected as
	// δ/(2·timeScale) = δ/10 (see the injector below), so wall-clock runs
	// stay snappy; relative structure (regions, slow access nodes) is
	// preserved.
	model, err := perigee.GeographicLatency(*nodeCount, *seed)
	if err != nil {
		log.Fatal(err)
	}
	const timeScale = 5

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)

	// Build nodes; node IDs are 1..n so the latency injector can map a
	// remote ID back to its universe index.
	nodes := make([]*node.Node, *nodeCount)
	idToIndex := make(map[uint64]int, *nodeCount)
	for i := range nodes {
		i := i
		opts := []node.Option{
			node.WithNodeID(uint64(i + 1)),
			node.WithSeed(*seed + uint64(i)),
			node.WithListen("127.0.0.1:0"),
			node.WithNetwork("perigee-cluster"),
			node.WithOutDegree(*outDegree),
			node.WithMaxInbound(*maxInbound),
			node.WithSelector(sel),
			node.WithLatencyInjection(func(remote uint64) time.Duration {
				j, ok := idToIndex[remote]
				if !ok {
					return 0
				}
				// Only the sender's write loop delays a message; the
				// receiver injects nothing. A link's live one-way delay
				// is therefore δ/(2·timeScale) = δ/10.
				return model.Delay(i, j) / (2 * timeScale)
			}),
		}
		if *faults > 0 {
			// Chaos mode: inject seeded faults and tighten the recovery
			// knobs so the cluster heals within a round instead of waiting
			// out production-scale timeouts.
			opts = append(opts,
				node.WithFaults(perigee.MixedFaults(*faultSeed, *faults)),
				node.WithIdleTimeout(2*time.Second),
				node.WithRedialInterval(500*time.Millisecond),
			)
		}
		if *singleSeed {
			// Discovery mode: each node knows only the seed node's address,
			// so the book must be filled by addr-gossip (refresh GETADDRs,
			// trickle relay) and connections by the redial loop; feelers
			// verify the learned rumor in the background.
			opts = append(opts,
				node.WithDiscovery(200*time.Millisecond, 2**nodeCount),
				node.WithFeelerInterval(300*time.Millisecond),
				node.WithRedialInterval(250*time.Millisecond),
			)
		}
		if *verbose {
			opts = append(opts, node.WithLogf(logger.Printf))
		}
		n, err := node.New(opts...)
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = n
		idToIndex[n.ID()] = i
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			log.Fatal(err)
		}
		defer n.Stop()
	}
	if *singleSeed {
		// Each joiner knows exactly one address: the seed node's. The rest
		// of the bootstrap — learning addresses, filling the out-degree —
		// is addr-gossip discovery's job.
		for i, n := range nodes[1:] {
			n.AddAddresses(nodes[0].Addr())
			for attempt := 0; ; attempt++ {
				if err := n.Connect(nodes[0].Addr()); err == nil {
					break
				} else if attempt >= 20 {
					log.Fatalf("node %d cannot reach the seed: %v", i+1, err)
				}
			}
		}
		waitForDiscovery(nodes, *outDegree, *faults > 0)
	} else {
		// Everyone knows everyone's address (§2.1 assumption).
		for _, n := range nodes {
			for _, m := range nodes {
				if n != m {
					n.AddAddresses(m.Addr())
				}
			}
		}
		// Random initial topology.
		topoRand := rand.New(rand.NewPCG(*seed, 0x7065726967656531)) // "perigee1"
		for i, n := range nodes {
			for _, j := range topoRand.Perm(*nodeCount) {
				if n.OutboundCount() >= *outDegree {
					break
				}
				if j == i {
					continue
				}
				if err := n.Connect(nodes[j].Addr()); err != nil && *verbose {
					logger.Printf("initial dial: %v", err)
				}
			}
		}
	}
	fmt.Printf("cluster up: %d live nodes, out-degree %d, %s scoring, latencies injected from the geographic model\n",
		*nodeCount, *outDegree, *scoring)
	if *faults > 0 {
		fmt.Printf("chaos mode: %.0f%% of dials and connections faulted (fault-seed %d)\n", 100**faults, *faultSeed)
	}

	minerRand := rand.New(rand.NewPCG(*seed, 0x7065726967656532)) // "perigee2"
	runRound := func(round int) (median, p90 time.Duration) {
		var spreads []time.Duration
		for b := 0; b < *blocks; b++ {
			miner := nodes[minerRand.IntN(len(nodes))]
			id, err := miner.MineBlock([][]byte{fmt.Appendf(nil, "r%d-b%d", round, b)})
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			// Wait for 90% of nodes to hold the block.
			need := (*nodeCount*9 + 9) / 10
			if *faults > 0 && need > *nodeCount-1 {
				// Under injected faults a lone straggler may only catch up
				// when the next block's parent fetch pulls it in; don't
				// let one partitioned node stall the measurement.
				need = *nodeCount - 1
			}
			for {
				have := 0
				for _, n := range nodes {
					if n.HasBlock(id) {
						have++
					}
				}
				if have >= need {
					break
				}
				if time.Since(start) > 30*time.Second {
					log.Fatalf("block %s stalled: %d/%d nodes", id, have, need)
				}
				time.Sleep(2 * time.Millisecond)
			}
			spreads = append(spreads, time.Since(start))
		}
		sort.Slice(spreads, func(i, j int) bool { return spreads[i] < spreads[j] })
		p90i := (len(spreads) * 9) / 10
		if p90i >= len(spreads) {
			p90i = len(spreads) - 1
		}
		return spreads[len(spreads)/2], spreads[p90i]
	}

	fmt.Printf("round 0 (random topology): measuring %d blocks...\n", *blocks)
	base, baseP90 := runRound(0)
	fmt.Printf("  time to reach 90%% of nodes: median %v, p90 %v\n",
		base.Round(time.Millisecond), baseP90.Round(time.Millisecond))

	for r := 1; r <= *rounds; r++ {
		for _, n := range nodes {
			if _, err := n.Round(); err != nil {
				log.Fatal(err)
			}
		}
		med, p90 := runRound(r)
		fmt.Printf("after perigee round %d: median %v, p90 %v (%+.0f%% vs round 0)\n",
			r, med.Round(time.Millisecond), p90.Round(time.Millisecond),
			100*(float64(med)/float64(base)-1))
	}

	if *faults > 0 {
		var total node.ResilienceStats
		for _, n := range nodes {
			r := n.Resilience()
			total.AcceptsShed += r.AcceptsShed
			total.BannedRefused += r.BannedRefused
			total.DialFailures += r.DialFailures
			total.FaultedDials += r.FaultedDials
			total.FaultedConns += r.FaultedConns
			total.Bans += r.Bans
			total.SlowConsumerDrops += r.SlowConsumerDrops
			total.Redials += r.Redials
			total.DesperationDials += r.DesperationDials
		}
		fmt.Printf("resilience: faulted %d dials + %d conns, %d dial failures, %d redials (%d desperation dials), %d bans, %d banned refused, %d slow-consumer drops, %d accepts shed\n",
			total.FaultedDials, total.FaultedConns, total.DialFailures,
			total.Redials, total.DesperationDials, total.Bans, total.BannedRefused,
			total.SlowConsumerDrops, total.AcceptsShed)
	}
}

// waitForDiscovery blocks until every node has bootstrapped from the
// single seed: full degree (counting inbound — the seed itself saturates
// with accepted joiners) and at least 90% of the other nodes' addresses
// in its book. A cluster that cannot converge is a fatal error — this is
// the assertion CI's discovery smoke test relies on.
func waitForDiscovery(nodes []*node.Node, outDegree int, faulted bool) {
	start := time.Now()
	timeout := 30 * time.Second
	if faulted {
		timeout = 60 * time.Second
	}
	need := ((len(nodes) - 1) * 9) / 10
	for {
		converged := 0
		for _, n := range nodes {
			if len(n.Peers()) >= outDegree && n.KnownAddresses() >= need {
				converged++
			}
		}
		if converged == len(nodes) {
			break
		}
		if time.Since(start) > timeout {
			log.Fatalf("discovery stalled after %v: %d/%d nodes converged", timeout, converged, len(nodes))
		}
		time.Sleep(10 * time.Millisecond)
	}
	var d node.DiscoveryStats
	verified := 0
	for _, n := range nodes {
		s := n.Discovery()
		d.SelfAnnounces += s.SelfAnnounces
		d.AddrsRelayed += s.AddrsRelayed
		d.RefreshGetAddrs += s.RefreshGetAddrs
		d.AddrsLearned += s.AddrsLearned
		d.AddrsInvalid += s.AddrsInvalid
		d.AddrsStale += s.AddrsStale
		d.UnsolicitedDropped += s.UnsolicitedDropped
		d.GetAddrThrottled += s.GetAddrThrottled
		d.FeelerDials += s.FeelerDials
		d.FeelerVerified += s.FeelerVerified
		verified += n.VerifiedAddresses()
	}
	fmt.Printf("single-seed bootstrap converged in %v: %d addrs learned, %d relayed, %d refresh getaddrs (%d throttled), %d feeler dials (%d verified, %d book entries dial-verified)\n",
		time.Since(start).Round(time.Millisecond), d.AddrsLearned, d.AddrsRelayed,
		d.RefreshGetAddrs, d.GetAddrThrottled, d.FeelerDials, d.FeelerVerified, verified)
}
