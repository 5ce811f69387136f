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
	"time"

	"github.com/perigee-net/perigee"
	"github.com/perigee-net/perigee/internal/chain"
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
		c.Seed = rand.Uint64()
	}
	if c.adversary != nil {
		if err := applyAdversary(c, c.adversary); err != nil {
			return nil, err
		}
	}
	return newNode(*c)
}

// applyAdversary binds an attack strategy to this single live identity:
// Setup runs over a one-node environment (the node is adversary index 0)
// and the resulting behavior tables map onto the live driver — Silent,
// RelayDelay, and Frozen. Environment-level hooks (observation tampering,
// the per-round topology agent) are simulation-only and ignored here;
// strategies demanding a tamperable latency model fail Setup, surfacing
// the mismatch at build time.
func applyAdversary(cfg *config, a perigee.Adversary) error {
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

// mineLoop mines blocks on a Poisson schedule until the node stops.
func (n *Node) mineLoop() {
	timer := time.NewTimer(chain.NextMiningInterval(n.mineRand, n.cfg.mine))
	defer timer.Stop()
	for seq := 0; ; seq++ {
		select {
		case <-n.quit:
			return
		case <-timer.C:
			payload := fmt.Appendf(nil, "coinbase-%016x-%d", n.ID(), seq)
			if _, err := n.mineBlock([][]byte{payload}); errors.Is(err, ErrStopped) {
				return
			}
			timer.Reset(chain.NextMiningInterval(n.mineRand, n.cfg.mine))
		}
	}
}

// AddAddresses seeds the node's address book — the candidate pool the
// Perigee round dials during exploration.
func (n *Node) AddAddresses(addrs ...string) { n.book.Add(addrs...) }

// KnownAddresses returns the address-book size.
func (n *Node) KnownAddresses() int { return n.book.Len() }

// Peers lists live connections sorted by ID.
func (n *Node) Peers() []PeerInfo {
	ps := n.peerSnapshot()
	out := make([]PeerInfo, len(ps))
	for i, p := range ps {
		out[i] = PeerInfo{ID: p.id, Outbound: p.direction == outbound, ListenAddr: p.listenAddr}
	}
	return out
}

// VerifiedAddresses returns how many book entries are dial-verified —
// addresses the node has successfully connected to at least once, as
// opposed to unconfirmed gossip rumor.
func (n *Node) VerifiedAddresses() int { return n.book.VerifiedCount() }

// BannedPeers lists the node IDs currently banned for misbehavior.
func (n *Node) BannedPeers() []uint64 { return n.book.BannedIDs() }

// MineBlock extends the node's tip with a new block carrying the given
// transaction payloads and announces it to all peers.
func (n *Node) MineBlock(txs [][]byte) (BlockID, error) {
	blk, err := n.mineBlock(txs)
	if err != nil {
		return BlockID{}, err
	}
	return BlockID(blk.Header.Hash()), nil
}

// HasBlock reports whether the node has accepted the block. It stays true
// after the body has aged out of the store's serve window.
func (n *Node) HasBlock(id BlockID) bool { return n.store.Has(chain.Hash(id)) }

// Height returns the node's chain tip height.
func (n *Node) Height() uint64 { return n.store.Height() }

// Round runs one Perigee round immediately: the Selector scores the
// arrival timestamps observed since the last round, dropped peers are
// disconnected, and the dial budget is spent on fresh addresses from the
// book. Observers fire before Round returns. With WithRoundBlocks set,
// rounds also trigger automatically; manual rounds remain available.
func (n *Node) Round() (perigee.RoundStats, error) {
	rep, err := n.round()
	if err != nil {
		return perigee.RoundStats{}, err
	}
	// Each observer gets its own edge-list copies.
	for _, o := range n.cfg.observers {
		o.ObserveRound(n, n.roundStats(rep))
	}
	return n.roundStats(rep), nil
}

// roundStats converts a live round report into the simulator's telemetry
// shape: edges run from this node's key to the affected peer's key.
func (n *Node) roundStats(rep roundReport) perigee.RoundStats {
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
