// Package node runs a live Perigee peer over real TCP sockets behind the
// same composable option surface as the simulator: the decision loop is a
// perigee.Selector, telemetry is the same perigee.RoundStats stream the
// simulator's observers receive, and every knob is a functional option.
// One policy and one observer pipeline drive both environments — write a
// Selector once, evaluate it with perigee.New, deploy it with node.New.
//
// A minimal adapting node:
//
//	n, err := node.New(
//	    node.WithListen("127.0.0.1:0"),
//	    node.WithSeed(7),
//	    node.WithRoundBlocks(20), // adapt automatically every 20 blocks
//	    node.WithObserver(node.ObserverFunc(func(n *node.Node, s perigee.RoundStats) {
//	        log.Printf("round %d: dropped %d peers", s.Summary.Round, s.Summary.ConnectionsDropped)
//	    })),
//	)
//	...
//	if err := n.Start(); err != nil { ... }
//	defer n.Stop()
//	_ = n.Connect(seedAddr)
//
// The node gossips blocks with the Bitcoin-style INV/GETDATA/BLOCK
// protocol, measures real arrival timestamps, and feeds them to its
// Selector — no latency oracle involved. The Selector defaults to the
// paper's Perigee-Subset rule, perigee.SubsetSelector(2, 0.9); install a
// built-in with other parameters, or any custom policy, with WithSelector.
package node

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/p2p"
	"github.com/perigee-net/perigee/internal/rng"
)

// BlockID identifies a block by its header's SHA-256 digest.
type BlockID [32]byte

// String renders the first bytes of the ID for logs.
func (id BlockID) String() string { return chain.Hash(id).String() }

// PeerInfo describes one live connection.
type PeerInfo struct {
	// ID is the remote node's identity.
	ID uint64
	// Outbound reports whether we dialed the connection; only outbound
	// peers are scored and rotated by the Perigee round.
	Outbound bool
	// ListenAddr is the remote's accepting address, if known.
	ListenAddr string
}

// Observer receives streaming telemetry after every completed Perigee
// round — manual (Round) and automatic (WithRoundBlocks) alike. The
// payload is the same perigee.RoundStats the simulator's observers
// receive; edge endpoints are the driver's integer node keys (the
// two's-complement view of the 64-bit node IDs). ObserveRound runs
// synchronously at the end of the round; implementations must not block
// for long.
type Observer interface {
	ObserveRound(n *Node, stats perigee.RoundStats)
}

// ObserverFunc adapts a plain function to the Observer interface.
type ObserverFunc func(n *Node, stats perigee.RoundStats)

// ObserveRound implements Observer.
func (f ObserverFunc) ObserveRound(n *Node, stats perigee.RoundStats) { f(n, stats) }

// ErrStopped is returned by operations on a stopped node.
var ErrStopped = p2p.ErrStopped

// Node is a live Perigee peer: it gossips blocks over TCP and re-selects
// its outbound neighbors from measured arrival times by driving its
// Selector. Build one with New, then Start it.
type Node struct {
	p         *p2p.Node
	observers []Observer

	mineMean time.Duration
	mineRand *rng.RNG

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates the options and builds a live node (not yet started).
// Every unset option takes the paper's evaluation default: out-degree 8,
// inbound cap 20, Subset scoring with 2 exploration slots at the 0.9
// percentile, manual rounds, no mining, no listening.
func New(opts ...Option) (*Node, error) {
	c := &config{network: "perigee-devnet"}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("node: nil option")
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if !c.seedSet {
		// Distinct nodes need distinct identities: the node ID derives
		// from the seed, and equal IDs refuse to interconnect.
		c.p2p.Seed = rand.Uint64()
	}
	n := &Node{
		observers: c.observers,
		mineMean:  c.mine,
		mineRand:  rng.New(c.p2p.Seed).Derive("mining"),
		stopCh:    make(chan struct{}),
	}
	c.p2p.OnRound = n.dispatchRound
	c.p2p.Genesis = chain.NewGenesis(c.network)
	if c.adversary != nil {
		if err := applyAdversary(&c.p2p, c.adversary); err != nil {
			return nil, err
		}
	}
	var err error
	if n.p, err = p2p.NewNode(c.p2p); err != nil {
		return nil, err
	}
	return n, nil
}

// applyAdversary binds an attack strategy to this single live identity:
// Setup runs over a one-node environment (the node is adversary index 0)
// and the resulting behavior tables map onto the live driver — Silent,
// RelayDelay, and Frozen. Environment-level hooks (observation tampering,
// the per-round topology agent) are simulation-only and ignored here;
// strategies demanding a tamperable latency model fail Setup, surfacing
// the mismatch at build time.
func applyAdversary(cfg *p2p.Config, a perigee.Adversary) error {
	env := &perigee.AdversaryEnv{
		N:           1,
		Adversaries: []int{0},
		IsAdversary: []bool{true},
		Rand:        rng.New(cfg.Seed).Derive("adversary"),
	}
	behavior := &perigee.AdversaryNetwork{
		Forward:    make([]time.Duration, 1),
		Silent:     make([]bool, 1),
		RelayDelay: make([]time.Duration, 1),
		Frozen:     make([]bool, 1),
	}
	if _, err := a.Setup(env, behavior); err != nil {
		return fmt.Errorf("node: adversary %s: %w", a.Name(), err)
	}
	cfg.SilentRelay = behavior.Silent[0]
	cfg.RelayDelay = behavior.RelayDelay[0]
	cfg.Frozen = behavior.Frozen[0]
	return nil
}

// Start begins listening (when configured), accepting connections, and
// mining (when configured).
func (n *Node) Start() error {
	if err := n.p.Start(); err != nil {
		return err
	}
	if n.mineMean > 0 {
		n.wg.Add(1)
		go n.mineLoop()
	}
	return nil
}

// mineLoop mines blocks on a Poisson schedule until the node stops.
func (n *Node) mineLoop() {
	defer n.wg.Done()
	timer := time.NewTimer(chain.NextMiningInterval(n.mineRand, n.mineMean))
	defer timer.Stop()
	for seq := 0; ; seq++ {
		select {
		case <-n.stopCh:
			return
		case <-timer.C:
			payload := fmt.Appendf(nil, "coinbase-%016x-%d", n.ID(), seq)
			if _, err := n.MineBlock([][]byte{payload}); err != nil {
				if errors.Is(err, ErrStopped) {
					return
				}
			}
			timer.Reset(chain.NextMiningInterval(n.mineRand, n.mineMean))
		}
	}
}

// Stop closes the listener and all connections, stops the miner, and
// waits for every goroutine to exit. Safe to call more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.p.Stop()
	n.wg.Wait()
}

// ID returns the node's 64-bit identity.
func (n *Node) ID() uint64 { return n.p.ID() }

// Addr returns the actual listening address, or "" when not listening.
func (n *Node) Addr() string { return n.p.Addr() }

// Connect dials and handshakes an outbound peer.
func (n *Node) Connect(addr string) error { return n.p.Connect(addr) }

// AddAddresses seeds the node's address book — the candidate pool the
// Perigee round dials during exploration.
func (n *Node) AddAddresses(addrs ...string) { n.p.Book().Add(addrs...) }

// KnownAddresses returns the address-book size.
func (n *Node) KnownAddresses() int { return n.p.Book().Len() }

// Peers lists live connections sorted by ID.
func (n *Node) Peers() []PeerInfo {
	inner := n.p.Peers()
	out := make([]PeerInfo, len(inner))
	for i, p := range inner {
		out[i] = PeerInfo{ID: p.ID, Outbound: p.Direction == p2p.Outbound, ListenAddr: p.ListenAddr}
	}
	return out
}

// OutboundCount returns the number of live outbound connections.
func (n *Node) OutboundCount() int { return n.p.OutboundCount() }

// ResilienceStats counts the node's defensive actions: shed accepts,
// recorded dial failures, injected faults, bans, slow-consumer
// disconnects, and maintenance redials.
type ResilienceStats = p2p.ResilienceStats

// Resilience returns a snapshot of the node's defensive-action counters.
func (n *Node) Resilience() ResilienceStats { return n.p.Resilience() }

// DiscoveryStats counts the node's addr-gossip activity: self-announces,
// trickle relays, refresh requests, addresses learned and rejected,
// throttled GETADDRs, and feeler verifications.
type DiscoveryStats = p2p.DiscoveryStats

// Discovery returns a snapshot of the node's addr-gossip counters.
func (n *Node) Discovery() DiscoveryStats { return n.p.Discovery() }

// VerifiedAddresses returns how many book entries are dial-verified —
// addresses the node has successfully connected to at least once, as
// opposed to unconfirmed gossip rumor.
func (n *Node) VerifiedAddresses() int { return n.p.Book().VerifiedCount() }

// BannedPeers lists the node IDs currently banned for misbehavior.
func (n *Node) BannedPeers() []uint64 { return n.p.Book().BannedIDs() }

// MineBlock extends the node's tip with a new block carrying the given
// transaction payloads and announces it to all peers.
func (n *Node) MineBlock(txs [][]byte) (BlockID, error) {
	blk, err := n.p.MineBlock(txs)
	if err != nil {
		return BlockID{}, err
	}
	return BlockID(blk.Header.Hash()), nil
}

// HasBlock reports whether the node has accepted the block. It stays true
// after the body has aged out of the store's serve window.
func (n *Node) HasBlock(id BlockID) bool { return n.p.Store().Has(chain.Hash(id)) }

// Height returns the node's chain tip height.
func (n *Node) Height() uint64 { return n.p.Store().Height() }

// ObservationWindow returns the number of blocks observed since the last
// Perigee round — the input size of the next decision.
func (n *Node) ObservationWindow() int { return n.p.ObservationWindow() }

// Round runs one Perigee round immediately: the Selector scores the
// arrival timestamps observed since the last round, dropped peers are
// disconnected, and the dial budget is spent on fresh addresses from the
// book. Observers fire before Round returns. With WithRoundBlocks set,
// rounds also trigger automatically; manual rounds remain available.
func (n *Node) Round() (perigee.RoundStats, error) {
	rep, err := n.p.PerigeeRound()
	if err != nil {
		return perigee.RoundStats{}, err
	}
	return n.roundStats(rep), nil
}

// dispatchRound fans a completed round out to the observers, each with
// its own edge-list copies.
func (n *Node) dispatchRound(rep p2p.RoundReport) {
	for _, o := range n.observers {
		o.ObserveRound(n, n.roundStats(rep))
	}
}

// roundStats converts a live round report into the simulator's telemetry
// shape: edges run from this node's key to the affected peer's key.
func (n *Node) roundStats(rep p2p.RoundReport) perigee.RoundStats {
	self := int(n.ID())
	stats := perigee.RoundStats{
		Summary: perigee.RoundSummary{
			Round:              rep.Round,
			Blocks:             rep.BlocksScored,
			ConnectionsDropped: len(rep.Dropped),
			ConnectionsAdded:   len(rep.Added),
		},
	}
	for _, id := range rep.Dropped {
		stats.DroppedEdges = append(stats.DroppedEdges, [2]int{self, int(id)})
	}
	for _, id := range rep.Added {
		stats.AddedEdges = append(stats.AddedEdges, [2]int{self, int(id)})
	}
	return stats
}
