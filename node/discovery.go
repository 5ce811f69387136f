package node

import (
	"errors"
	"fmt"
	"time"

	"github.com/perigee-net/perigee/internal/wire"
)

// defaultTargetKnown is discoveryConfig.TargetKnown's default.
const defaultTargetKnown = 128

// Addr-gossip policy. The rate limits and validation always apply — a
// node cannot opt out of the hardened exchange.
const (
	// announceFanout is how many random peers a freshly learned address is
	// relayed to (Bitcoin-style addr trickle), and bounds the spread rate
	// of any single address.
	announceFanout = 2
	// maxGetAddrInterval is the longest per-peer GETADDR service window;
	// see discoveryConfig.getAddrInterval.
	maxGetAddrInterval = 30 * time.Second
	// getAddrBurst is how many GETADDRs per window a peer may send before
	// the excess charges misbehavior points.
	getAddrBurst = 4
	// unsolicitedBudget caps how many unsolicited ADDR entries per GETADDR
	// window a peer may push into our book. Solicited responses (answers
	// to our own GETADDRs) are exempt.
	unsolicitedBudget = 64
	// maxAddrAge drops gossiped addresses whose claimed age exceeds it, so
	// stale rumor cannot circulate forever.
	maxAddrAge = 3 * time.Hour
)

// discoveryConfig sets addr-gossip's active loops, which run only when
// their intervals are set: WithDiscovery sets RefreshInterval and
// TargetKnown, WithFeelerInterval sets FeelerInterval.
type discoveryConfig struct {
	RefreshInterval time.Duration
	TargetKnown     int
	FeelerInterval  time.Duration
}

// getAddrInterval is the per-peer GETADDR service window, which also
// spans the unsolicited ADDR budget: at most one request per peer is
// answered per interval. It is RefreshInterval when that is set and
// shorter than maxGetAddrInterval, so refresh requests are never starved
// by the serving side.
func (d discoveryConfig) getAddrInterval() time.Duration {
	if d.RefreshInterval > 0 && d.RefreshInterval < maxGetAddrInterval {
		return d.RefreshInterval
	}
	return maxGetAddrInterval
}

// DiscoveryStats counts the node's addr-gossip activity since start.
type DiscoveryStats struct {
	// SelfAnnounces is how many peers we announced our listen address to.
	SelfAnnounces int
	// AddrsRelayed is the number of freshly learned addresses trickled
	// onward to other peers (one count per peer reached).
	AddrsRelayed int
	// RefreshGetAddrs is the number of GETADDRs sent by the refresh loop.
	RefreshGetAddrs int
	// AddrsLearned is the number of addresses newly admitted to the book
	// from gossip.
	AddrsLearned int
	// AddrsInvalid is the number of gossiped addresses rejected by
	// syntactic validation.
	AddrsInvalid int
	// AddrsStale is the number of gossiped addresses dropped for claiming
	// an age beyond maxAddrAge (3h).
	AddrsStale int
	// UnsolicitedDropped is the number of unsolicited ADDR entries dropped
	// by the per-peer budget.
	UnsolicitedDropped int
	// GetAddrThrottled is the number of GETADDR requests not answered
	// because the per-peer window was already served.
	GetAddrThrottled int
	// FeelerDials is the number of feeler verification dials attempted.
	FeelerDials int
	// FeelerVerified is the number of book entries promoted to
	// dial-verified by a feeler.
	FeelerVerified int
}

// Discovery returns a snapshot of the node's addr-gossip counters.
func (n *Node) Discovery() (s DiscoveryStats) {
	n.record(func(l *ledger) { s = l.disc })
	return s
}

// ageSecOf clamps a book age to the wire's uint32 seconds field.
func ageSecOf(age time.Duration) uint32 {
	s := int64(age / time.Second)
	if s < 0 {
		return 0
	}
	if s > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(s)
}

// handleGetAddr answers a peer's address request with a seeded random
// sample of the book — never the sorted prefix, never banned entries,
// never the requester's own address — at most once per rate-limit window.
// Requests past the burst budget charge misbehavior points.
func (n *Node) handleGetAddr(p *peer) {
	serve, abusive := p.admitGetAddr(time.Now(), n.cfg.Discovery.getAddrInterval(), getAddrBurst)
	if abusive {
		n.record(func(l *ledger) { l.disc.GetAddrThrottled++ })
		n.logf("getaddr spam from %s", p)
		n.misbehave(p, pointsAddrSpam)
		return
	}
	if !serve {
		n.record(func(l *ledger) { l.disc.GetAddrThrottled++ })
		return
	}
	pool := n.book.Gossipable(n.Addr(), p.listenAddr)
	if len(pool) == 0 {
		return
	}
	// Deterministic per-(peer, response) sample: the stream depends only
	// on the node seed, the requester identity, and how many responses
	// this peer has been served — so a replay with the same seed samples
	// identically, while consecutive requests draw fresh samples.
	r := n.addrRand.DeriveIndexed(fmt.Sprintf("getaddr-%016x", p.id), p.nextAddrResponse())
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > wire.MaxAddrs {
		pool = pool[:wire.MaxAddrs]
	}
	out := make([]wire.NetAddr, len(pool))
	for i, g := range pool {
		out[i] = wire.NetAddr{Addr: g.Addr, AgeSec: ageSecOf(g.Age)}
	}
	p.send(&wire.Addr{Addrs: out})
}

// handleAddr ingests a peer's ADDR message: unsolicited volume is
// budgeted, every entry is syntactically validated, stale claims are
// dropped, and newly admitted addresses trickle onward to a few random
// peers so one announcement diffuses through the network.
func (n *Node) handleAddr(p *peer, msg *wire.Addr) {
	entries := msg.Addrs
	covered := p.consumeSolicited(len(entries))
	if uncovered := len(entries) - covered; uncovered > 0 {
		allowed := p.admitUnsolicited(time.Now(), n.cfg.Discovery.getAddrInterval(), unsolicitedBudget, uncovered)
		if dropped := uncovered - allowed; dropped > 0 {
			n.record(func(l *ledger) { l.disc.UnsolicitedDropped += dropped })
			if covered+allowed == 0 {
				n.logf("addr flood from %s: %d entries over budget", p, dropped)
				n.misbehave(p, pointsAddrSpam)
				return
			}
			entries = entries[:covered+allowed]
		}
	}
	var fresh []wire.NetAddr
	var invalid, stale, learned int
	for _, na := range entries {
		if wire.ValidateAddr(na.Addr) != nil {
			invalid++
			continue
		}
		age := time.Duration(na.AgeSec) * time.Second
		if age > maxAddrAge {
			stale++
			continue
		}
		if n.book.AddSeen(na.Addr, age) {
			learned++
			fresh = append(fresh, na)
		}
	}
	if invalid > 0 || stale > 0 || learned > 0 {
		n.record(func(l *ledger) {
			l.disc.AddrsInvalid += invalid
			l.disc.AddrsStale += stale
			l.disc.AddrsLearned += learned
		})
	}
	if invalid > 0 {
		n.logf("%d invalid addrs from %s", invalid, p)
		n.misbehave(p, pointsInvalidAddr)
	}
	if len(fresh) > 0 {
		n.trickleAddrs(p.id, fresh)
	}
}

// trickleAddrs relays freshly learned addresses to announceFanout random
// peers each (excluding the peer they came from and any peer that is the
// address itself), so an announcement spreads a few hops per exchange
// instead of flooding everyone.
func (n *Node) trickleAddrs(fromID uint64, addrs []wire.NetAddr) {
	peers := n.peerSnapshot()
	relayed := 0
	for _, na := range addrs {
		targets := make([]*peer, 0, len(peers))
		for _, q := range peers {
			if q.id == fromID || q.listenAddr == na.Addr {
				continue
			}
			targets = append(targets, q)
		}
		if len(targets) == 0 {
			continue
		}
		// Stateless per-address stream: the same address trickles to the
		// same peers on a same-seed replay.
		perm := n.addrRand.Derive("trickle-" + na.Addr).Perm(len(targets))
		for _, ti := range perm[:min(announceFanout, len(perm))] {
			if targets[ti].send(&wire.Addr{Addrs: []wire.NetAddr{na}}) {
				relayed++
			}
		}
	}
	if relayed > 0 {
		n.record(func(l *ledger) { l.disc.AddrsRelayed += relayed })
	}
}

// announceSelf advertises our own listen address to a freshly connected
// peer — the missing half of bootstrap: without it a single-seed network
// only ever learns the seed's address.
func (n *Node) announceSelf(p *peer) {
	self := n.Addr()
	if self == "" || self == p.listenAddr {
		return
	}
	if p.send(&wire.Addr{Addrs: []wire.NetAddr{{Addr: self, AgeSec: 0}}}) {
		n.record(func(l *ledger) { l.disc.SelfAnnounces++ })
	}
}

// refreshOnce, discovery's periodic refresh, sends GETADDR to up to two
// seeded-random peers when the book is below its target size.
func (n *Node) refreshOnce(tick int) {
	if n.book.Len() >= n.cfg.Discovery.TargetKnown {
		return
	}
	peers := n.peerSnapshot()
	if len(peers) == 0 {
		return
	}
	perm := n.addrRand.DeriveIndexed("refresh", tick).Perm(len(peers))
	k := 2
	if k > len(perm) {
		k = len(perm)
	}
	for _, pi := range perm[:k] {
		p := peers[pi]
		p.noteGetAddrSent()
		if p.send(&wire.GetAddr{}) {
			n.record(func(l *ledger) { l.disc.RefreshGetAddrs++ })
		}
	}
}

// feelerOnce, discovery's periodic feeler, cheaply verifies rumor: it
// dials one seeded-random never-verified book entry, handshakes,
// disconnects, and marks the entry dial-verified — so the book's verified
// tier grows beyond the peers we happen to be connected to, and fabricated
// addresses are found out.
func (n *Node) feelerOnce(tick int) {
	exclude := n.dialExclusions()
	all := n.book.FeelerCandidates()
	candidates := all[:0]
	for _, a := range all {
		if !exclude[a] {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return
	}
	addr := candidates[n.addrRand.DeriveIndexed("feeler", tick).IntN(len(candidates))]
	n.feelerDial(addr)
}

// feelerDial verifies one address: dial, handshake, disconnect. The
// handshake admits the remote exactly as setupPeer does, so only a peer
// Connect would accept is marked dial-verified; any other failure feeds
// the same backoff and eviction budget as a real dial. Fault injection
// applies exactly as it does to Connect, so chaos runs exercise feelers
// too.
func (n *Node) feelerDial(addr string) {
	conn, err := n.dial(addr)
	if errors.Is(err, ErrStopped) {
		return
	}
	n.record(func(l *ledger) { l.disc.FeelerDials++ })
	if err != nil {
		return
	}
	defer conn.Close()
	remote, err := n.handshake(conn, true)
	if err == nil {
		err = closeHandshake(conn, true)
	}
	if errors.Is(err, errSelfConnect) {
		// We dialed ourselves through a gossiped alias: never again.
		n.book.MarkSelf(addr)
		return
	}
	if err != nil {
		n.dialFailed(addr)
		return
	}
	n.book.DialSucceeded(addr)
	n.record(func(l *ledger) { l.disc.FeelerVerified++ })
	n.logf("feeler verified %s (%016x)", addr, remote.NodeID)
}
