// Command perigee-node runs one live Perigee node on the public
// perigee/node API: it listens for peers, relays blocks, optionally mines
// on a Poisson schedule, and re-selects its outbound neighbors
// automatically every -round-blocks observed blocks.
//
//	perigee-node -listen 127.0.0.1:9735 -network mainnet
//	perigee-node -listen 127.0.0.1:9736 -connect 127.0.0.1:9735 -mine 30s -scoring vanilla
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/cmd/internal/cliopts"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/node"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:0", "accepting address (empty = client only)")
		connect     = flag.String("connect", "", "comma-separated seed addresses to dial")
		network     = flag.String("network", "perigee-devnet", "network tag anchoring the genesis block")
		mine        = flag.Duration("mine", 0, "mean mining interval (0 = do not mine)")
		roundBlocks = flag.Int("round-blocks", 20, "blocks observed per automatic Perigee round (0 = never adapt)")
		outDegree   = flag.Int("out-degree", 8, "outbound connection target")
		explore     = flag.Int("explore", 2, "exploration slots per round")
		scoring     = flag.String("scoring", "subset", "selection policy: subset, vanilla, ucb, or random")
		percentile  = flag.Float64("percentile", 0.9, "scoring quantile in (0, 1]")
		maxInbound  = flag.Int("max-inbound", paper.MaxIncoming, "inbound connection cap")
		seed        = flag.Uint64("seed", uint64(time.Now().UnixNano()), "randomness seed")
		addrBook    = flag.String("addr-book", "", "path for the persistent address book (empty = in-memory only)")
		redialEvery = flag.Duration("redial", 30*time.Second, "how often to redial toward the out-degree target (0 disables)")
		idleTimeout = flag.Duration("idle-timeout", 90*time.Second, "silence tolerated on a connection before probing and dropping it")
		discover    = flag.Duration("discover", 30*time.Second, "how often to request fresh addresses from peers while the book is thin (0 disables)")
		targetKnown = flag.Int("target-known", 0, "book size at which address refresh goes quiet (0 = default 128)")
		feelerEvery = flag.Duration("feeler", 2*time.Minute, "how often to dial-verify one gossiped address (0 disables feelers)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.Ltime|log.Lmicroseconds)
	opts := []node.Option{
		node.WithSeed(*seed),
		node.WithNetwork(*network),
		node.WithOutDegree(*outDegree),
		node.WithMaxInbound(*maxInbound),
		node.WithLogf(logger.Printf),
		node.WithObserver(node.ObserverFunc(func(n *node.Node, s perigee.RoundStats) {
			logger.Printf("perigee round %d: scored %d blocks, dropped %d peers, added %d",
				s.Summary.Round, s.Summary.Blocks, s.Summary.ConnectionsDropped, s.Summary.ConnectionsAdded)
		})),
	}
	if *listen != "" {
		opts = append(opts, node.WithListen(*listen))
	}
	if *roundBlocks > 0 {
		opts = append(opts, node.WithRoundBlocks(*roundBlocks))
	}
	if *mine > 0 {
		opts = append(opts, node.WithMiner(*mine))
	}
	if *addrBook != "" {
		opts = append(opts, node.WithAddrBookPath(*addrBook))
	}
	if *redialEvery > 0 {
		opts = append(opts, node.WithRedialInterval(*redialEvery))
	}
	if *idleTimeout > 0 {
		opts = append(opts, node.WithIdleTimeout(*idleTimeout))
	}
	if *discover > 0 {
		opts = append(opts, node.WithDiscovery(*discover, *targetKnown))
	}
	if *feelerEvery > 0 {
		opts = append(opts, node.WithFeelerInterval(*feelerEvery))
	}
	sel, err := cliopts.Selector(*scoring, *explore, *percentile, *outDegree)
	if err != nil {
		logger.Fatal(err)
	}
	opts = append(opts, node.WithSelector(sel))

	n, err := node.New(opts...)
	if err != nil {
		logger.Fatalf("building node: %v", err)
	}
	if err := n.Start(); err != nil {
		logger.Fatalf("starting node: %v", err)
	}
	defer n.Stop()
	fmt.Printf("node %016x listening on %s (network %q, scoring %s)\n", n.ID(), n.Addr(), *network, *scoring)

	for _, addr := range strings.Split(*connect, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := n.Connect(addr); err != nil {
			logger.Printf("dialing seed %s: %v", addr, err)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	status := time.NewTicker(10 * time.Second)
	defer status.Stop()

	for {
		select {
		case <-stop:
			fmt.Println("\nshutting down")
			return
		case <-status.C:
			d := n.Discovery()
			logger.Printf("height=%d peers=%d window=%d addrs=%d (verified=%d, learned=%d, feelers=%d)",
				n.Height(), len(n.Peers()), n.ObservationWindow(), n.KnownAddresses(),
				n.VerifiedAddresses(), d.AddrsLearned, d.FeelerVerified)
		}
	}
}
