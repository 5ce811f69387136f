package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/faults"
	"github.com/perigee-net/perigee/internal/paper"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/wire"
)

// Live-node policy.
const (
	// handshakeTimeout bounds the version exchange.
	handshakeTimeout = 5 * time.Second
	// maxSendQueueDrops is the consecutive full-queue send-drop budget
	// after which a slow consumer is disconnected rather than silently
	// starved.
	maxSendQueueDrops = 64
	// observationCap bounds the node's table of block sightings
	// independently of Perigee rounds, so a node that never rounds
	// (RoundBlocks 0, no Round calls) cannot grow it without bound:
	// the round window keeps the newest cap accepted blocks, and at most cap
	// other records (rumours, fetches in flight) wait outside it, the first
	// sighted leaving first. See sightings and config.obsCap.
	observationCap = 4096
	// relaySlots sizes the node's table of received blocks to serve on the
	// checksums their frames were verified with (see Node.relayed). A
	// GETDATA follows its INV within moments, so a slot need only outlive
	// the blocks in flight; the table pins at most this many blocks, a
	// quarter of the body window, which holds nearly all of them anyway.
	relaySlots = 1024
)

// withDefaults resolves unset (non-positive) fields to their defaults.
func (c config) withDefaults() config {
	setDefault(&c.MaxInbound, paper.MaxIncoming)
	setDefault(&c.OutDegree, core.DefaultParams(core.Subset).OutDegree)
	setDefault(&c.ReadIdleTimeout, 90*time.Second)
	setDefault(&c.WriteTimeout, 10*time.Second)
	setDefault(&c.DrainTimeout, time.Second)
	setDefault(&c.Discovery.TargetKnown, defaultTargetKnown)
	return c
}

// obsCap is the effective observation bound: observationCap, raised to
// RoundBlocks so an automatic round's window is never trimmed.
func (c config) obsCap() int { return max(observationCap, c.RoundBlocks) }

// setDefault replaces a non-positive value with def.
func setDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Node is a live Perigee peer: it gossips blocks over TCP and re-selects
// its outbound neighbors from measured arrival times by driving its
// Selector. Build one with New, then Start it.
//
// Each piece of its state has one owner, and five mutexes guard it all:
//   - mu guards the peer set, the listener and the lifecycle flags;
//   - obsMu guards the block sightings, the round count, the withheld
//     relays, the last mined block and rand;
//   - led.mu guards the ledger: counters and fault-plan attempt indices;
//   - book's own lock guards the address book;
//   - each peer's discMu guards that peer's addr-gossip rate limits.
//
// The rest is lock-free: a peer's send counters, the relayed-block table
// and roundInFlight are atomics.
type Node struct {
	cfg   config
	store *chain.Store
	book  *addrBook
	rand  *rng.RNG
	// mineRand draws the miner's Poisson intervals (WithMiner).
	mineRand *rng.RNG
	// selRand roots the per-round streams handed to the selector.
	selRand *rng.RNG
	// addrRand roots the discovery decision streams (ADDR samples,
	// trickle targets, feeler picks). It is only ever Derived from —
	// derivation is stateless — so no lock guards it.
	addrRand *rng.RNG

	mu    sync.Mutex
	peers map[uint64]*peer
	// sorted is peers ordered by ID, built by peerSnapshot and cleared by
	// every install and delete; a built slice is never written again, so
	// a snapshot stays valid after the peer set changes.
	sorted   []*peer
	listener net.Listener
	started  bool // set by the first Start that got past its checks
	closed   bool
	quit     chan struct{} // closed by Stop; wakes delayed-relay timers

	obsMu     sync.Mutex
	sightings sightings
	lastMined chain.Hash // newest self-mined block; zero before the first
	rounds    int        // completed Perigee rounds
	// withheld counts, per received block, the acceptances whose delayed
	// relay (config.RelayDelay) has not fired yet; see showsTip.
	withheld map[chain.Hash]int

	// relayed holds, in the slot of the hash's leading bytes, the BLOCK
	// message a block was read off the wire in, which frames on the checksum
	// its reader verified, or the message mineBlock built once for a block
	// the node mined. handleGetData sends it only while the store holds that
	// very block; any other GETDATA is framed and hashed afresh.
	relayed [relaySlots]atomic.Pointer[wire.Block]

	// roundInFlight is set while an automatic round runs.
	roundInFlight atomic.Bool

	// led holds the rare-event bookkeeping; only record touches it.
	led ledger

	wg sync.WaitGroup
}

// ResilienceStats counts the node's defensive actions since start: shed
// accepts, refused bans, recorded dial failures, injected faults, bans,
// slow-consumer disconnects, and maintenance redials.
type ResilienceStats struct {
	// AcceptsShed is the number of inbound connections declined because
	// the inbound cap was reached.
	AcceptsShed int
	// BannedRefused is the number of connections refused (on accept or
	// dial) because the remote was banned.
	BannedRefused int
	// DialFailures is the number of failed dial or handshake attempts
	// recorded against the address book.
	DialFailures int
	// FaultedDials is the number of dials failed by the injected fault
	// plan (a subset of DialFailures).
	FaultedDials int
	// FaultedConns is the number of established connections wrapped with
	// an injected fault.
	FaultedConns int
	// Bans is the number of peers banned for accumulated misbehavior.
	Bans int
	// SlowConsumerDrops is the number of peers disconnected for never
	// draining their send queue.
	SlowConsumerDrops int
	// Redials is the number of connections re-established by the
	// maintenance loop.
	Redials int
	// DesperationDials is the number of dials made past an address's
	// backoff gate because the node was starved below half its
	// out-degree with nothing ordinarily dialable.
	DesperationDials int
}

// Resilience returns a snapshot of the node's defensive-action counters.
func (n *Node) Resilience() (s ResilienceStats) {
	n.record(func(l *ledger) { s = l.res })
	return s
}

// ledger is the node's bookkeeping of rare events: the resilience and
// discovery counters and the attempt indices into the fault plan's
// per-address and per-remote verdict streams. Only record touches it.
type ledger struct {
	mu           sync.Mutex
	res          ResilienceStats
	disc         DiscoveryStats
	dialAttempts map[string]int
	connAttempts map[uint64]int
}

// record applies f to the ledger under its lock. f only counts: it takes no
// other lock and calls nothing that might.
func (n *Node) record(f func(*ledger)) {
	n.led.mu.Lock()
	defer n.led.mu.Unlock()
	f(&n.led)
}

// ErrStopped is returned by operations on a stopped node.
var ErrStopped = errors.New("p2p: node stopped")

// errStarted is returned by a second Start: its listener would replace the
// first, whose accept loop Stop would then wait on for ever.
var errStarted = errors.New("p2p: node already started")

// newNode resolves the config's defaults and builds a node (not yet
// started) on the genesis block of the config's network.
func newNode(cfg config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Selector == nil {
		var err error
		cfg.Selector, err = core.SelectorFromMethod(core.Subset, core.DefaultParams(core.Subset))
		if err != nil {
			return nil, err
		}
	}
	store, err := chain.NewStore(chain.NewGenesis(cfg.network))
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed).Derive("p2p-node")
	if cfg.NodeID == 0 {
		cfg.NodeID = r.Uint64() | 1 // never zero
	}
	book := newAddrBook()
	if cfg.AddrBookPath != "" {
		if err := book.Load(cfg.AddrBookPath); err != nil {
			return nil, fmt.Errorf("p2p: address book: %w", err)
		}
	}
	if cfg.ListenAddr != "" {
		book.MarkSelf(cfg.ListenAddr)
	}
	return &Node{
		cfg:       cfg,
		store:     store,
		book:      book,
		rand:      r,
		mineRand:  rng.New(cfg.Seed).Derive("mining"),
		selRand:   rng.New(cfg.Seed).Derive("p2p-selector"),
		addrRand:  rng.New(cfg.Seed).Derive("p2p-addr-gossip"),
		peers:     make(map[uint64]*peer),
		quit:      make(chan struct{}),
		sightings: newSightings(cfg.obsCap()),
		withheld:  make(map[chain.Hash]int),
		led:       ledger{dialAttempts: make(map[string]int), connAttempts: make(map[uint64]int)},
	}, nil
}

// ID returns the node's 64-bit identity.
func (n *Node) ID() uint64 { return n.cfg.NodeID }

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf("[%016x] "+format, append([]any{n.cfg.NodeID}, args...)...)
	}
}

// Start begins listening (when configured), accepting connections,
// maintaining the outbound degree (WithRedialInterval), discovery's loops,
// and mining (WithMiner). A node starts once: a second Start returns an
// error and changes nothing, unless the first failed to listen.
func (n *Node) Start() error {
	n.mu.Lock()
	switch {
	case n.closed:
		n.mu.Unlock()
		return ErrStopped
	case n.started:
		n.mu.Unlock()
		return errStarted
	}
	n.started = true
	n.mu.Unlock()
	if n.cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", n.cfg.ListenAddr)
		if err != nil {
			n.mu.Lock()
			n.started = false // nothing runs yet: a later Start may retry
			n.mu.Unlock()
			return fmt.Errorf("p2p: listen: %w", err)
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = ln.Close()
			return ErrStopped
		}
		n.listener = ln
		n.mu.Unlock()
		// The resolved address (real port) must never re-enter the book
		// through gossip.
		n.book.MarkSelf(ln.Addr().String())
		n.wg.Add(1)
		go n.acceptLoop(ln)
	}
	// Maintenance tops the outbound set back up to OutDegree from the book,
	// the recovery path for connections lost to faults between rounds.
	if n.cfg.RedialInterval > 0 && !n.cfg.Frozen && !n.every(n.cfg.RedialInterval, func(int) { n.redialToTarget() }) {
		return ErrStopped
	}
	// Discovery's tasks: refresh keeps the book fed, feelers verify rumor.
	// Either runs regardless of Frozen — they shape the address book, not
	// the neighbor set.
	if n.cfg.Discovery.RefreshInterval > 0 && !n.every(n.cfg.Discovery.RefreshInterval, n.refreshOnce) {
		return ErrStopped
	}
	if n.cfg.Discovery.FeelerInterval > 0 && !n.every(n.cfg.Discovery.FeelerInterval, n.feelerOnce) {
		return ErrStopped
	}
	if n.cfg.mine > 0 {
		n.spawn(n.mineLoop)
	}
	return nil
}

// spawn runs f on a goroutine Stop waits for, unless the node has stopped.
// The closed check and the wg.Add share mu, so Stop's wait never races a
// fresh goroutine.
func (n *Node) spawn(f func()) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		f()
	}()
	return true
}

// stopped reports whether Stop has begun.
func (n *Node) stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// every runs f(tick) on a ticker of the given interval, tick counting from
// 0, until the node stops; see spawn for the result.
func (n *Node) every(interval time.Duration, f func(tick int)) bool {
	return n.spawn(func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-n.quit:
				return
			case <-ticker.C:
				f(tick)
			}
		}
	})
}

// dialExclusions returns the addresses no dial picks: the node's own and
// every connected peer's listen address.
func (n *Node) dialExclusions() map[string]bool {
	exclude := map[string]bool{n.Addr(): true}
	for _, p := range n.peerSnapshot() {
		if p.listenAddr != "" {
			exclude[p.listenAddr] = true
		}
	}
	return exclude
}

// dialBook connects to the book's dialable addresses in one seeded
// shuffle, skipping the node's own address, every connected peer's, and
// skip, until enough reports true for the number connected so far.
// Dialable respects bans and backoff gates, so the loop cannot hot-loop on
// dead or abusive addresses. It returns the addresses connected and the
// exclusion set, which it never extends.
func (n *Node) dialBook(skip []string, enough func(connected int) bool, what string) (dialed []string, exclude map[string]bool) {
	exclude = n.dialExclusions()
	for _, a := range skip {
		exclude[a] = true
	}
	candidates := n.book.Dialable()
	n.shuffleStrings(candidates)
	for _, addr := range candidates {
		if enough(len(dialed)) {
			break
		}
		if exclude[addr] {
			continue
		}
		if err := n.Connect(addr); err != nil {
			n.logf("%s %s: %v", what, addr, err)
			continue
		}
		dialed = append(dialed, addr)
	}
	return dialed, exclude
}

func (n *Node) redialToTarget() {
	need := n.cfg.OutDegree - n.OutboundCount()
	if need <= 0 {
		return
	}
	dialed, exclude := n.dialBook(nil, func(c int) bool { return c >= need }, "redial")
	n.record(func(l *ledger) { l.res.Redials += len(dialed) })
	need -= len(dialed)
	// Starved below quorum with every known address inside its backoff
	// gate: override the gate for the entry closest to dialable rather
	// than sit disconnected. Backoff protects remote peers from a healthy
	// node's retries, not a node cut off from the network; one override
	// per maintenance tick bounds the hammer rate.
	if need > 0 && n.OutboundCount() < (n.cfg.OutDegree+1)/2 {
		if addr, ok := n.book.EarliestGated(exclude); ok {
			if err := n.Connect(addr); err != nil {
				n.logf("desperation dial %s: %v", addr, err)
				return
			}
			n.record(func(l *ledger) {
				l.res.Redials++
				l.res.DesperationDials++
			})
		}
	}
}

// Addr returns the actual listening address, or "" when not listening.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.listener == nil {
		return ""
	}
	return n.listener.Addr().String()
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if n.count(inbound) >= n.cfg.MaxInbound {
			// Incoming slots full: shed the connection, as in §5.1.
			_ = conn.Close()
			n.record(func(l *ledger) { l.res.AcceptsShed++ })
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.setupPeer(conn, inbound, ""); err != nil {
				n.logf("inbound handshake failed: %v", err)
			}
		}()
	}
}

// OutboundCount returns the number of live outbound connections.
func (n *Node) OutboundCount() int { return n.count(outbound) }

func (n *Node) count(dir direction) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.countLocked(dir)
}

func (n *Node) countLocked(dir direction) int {
	count := 0
	for _, p := range n.peers {
		if p.direction == dir {
			count++
		}
	}
	return count
}

// errBanned is returned when dialing an address gated by a ban.
var errBanned = errors.New("p2p: peer banned")

// Connect dials and handshakes an outbound peer. Banned addresses are
// refused, and every failure — injected, transport, or handshake — is
// recorded against the address book so retries back off and dead seeds
// are eventually evicted.
func (n *Node) Connect(addr string) error {
	if n.book.AddrBanned(addr) {
		n.record(func(l *ledger) { l.res.BannedRefused++ })
		return fmt.Errorf("p2p: dial %s: %w", addr, errBanned)
	}
	conn, err := n.dial(addr)
	if err != nil {
		return err
	}
	n.book.Add(addr)
	if err := n.setupPeer(conn, outbound, addr); err != nil {
		n.dialFailed(addr)
		return err
	}
	n.book.DialSucceeded(addr)
	return nil
}

// dial opens a TCP connection to addr for Connect and the feeler: the
// stopped check, the fault plan's dial verdict and the transport dial.
// An injected or transport failure is charged to addr's backoff and
// failure budget.
func (n *Node) dial(addr string) (net.Conn, error) {
	if n.stopped() {
		return nil, ErrStopped
	}
	if n.cfg.Faults != nil {
		var attempt int
		n.record(func(l *ledger) {
			attempt = l.dialAttempts[addr]
			l.dialAttempts[addr]++
		})
		if v := n.cfg.Faults.Dial(n.cfg.NodeID, addr, attempt); v.Kind == faults.DialFail {
			n.dialFailed(addr)
			n.record(func(l *ledger) { l.res.FaultedDials++ })
			return nil, fmt.Errorf("p2p: dial %s: %w", addr, faults.ErrInjectedDial)
		}
	}
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		n.dialFailed(addr)
		return nil, fmt.Errorf("p2p: dial %s: %w", addr, err)
	}
	return conn, nil
}

// dialFailed records one failed attempt toward addr's backoff gate and
// failure budget.
func (n *Node) dialFailed(addr string) {
	if evicted := n.book.DialFailed(addr); evicted {
		n.logf("evicted %s from address book (failure budget exhausted)", addr)
	}
	n.record(func(l *ledger) { l.res.DialFailures++ })
}

// errSelfConnect is handshake's refusal of a remote carrying our own node
// ID: the dialed address is one of ours.
var errSelfConnect = errors.New("p2p: self connection detected")

// handshake opens the Version/Verack exchange on a fresh connection under
// the handshake deadline, up to this side's last write (see openHandshake),
// and admits the remote: a wrong protocol version, ourselves
// (errSelfConnect) and a banned identity are refused. A refused remote sees
// the exchange complete and the connection close, as if this side admitted
// it and then changed its mind. An admitted one waits for closeHandshake.
// The deadline stays set and the connection open either way.
func (n *Node) handshake(conn net.Conn, initiator bool) (*wire.Version, error) {
	_ = conn.SetDeadline(time.Now().Add(handshakeTimeout))
	local := &wire.Version{
		Protocol:   wire.ProtocolVersion,
		NodeID:     n.cfg.NodeID,
		ListenAddr: n.Addr(),
		Nonce:      n.randUint64(),
	}
	remote, err := openHandshake(conn, local, initiator)
	if err != nil {
		return nil, err
	}
	if err := n.admit(remote); err != nil {
		if cerr := closeHandshake(conn, initiator); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	return remote, nil
}

// admit refuses a remote of another protocol version, ourselves and a
// banned identity.
func (n *Node) admit(remote *wire.Version) error {
	switch {
	case remote.Protocol != wire.ProtocolVersion:
		return fmt.Errorf("p2p: protocol version %d unsupported", remote.Protocol)
	case remote.NodeID == n.cfg.NodeID:
		return errSelfConnect
	case n.book.IDBanned(remote.NodeID):
		n.record(func(l *ledger) { l.res.BannedRefused++ })
		return fmt.Errorf("p2p: %016x: %w", remote.NodeID, errBanned)
	}
	return nil
}

// setupPeer performs the version handshake and installs the peer. The peer
// is installed, and its greeting queued, before this side's last handshake
// write: once the remote can tell the handshake is done, every block this
// node accepts reaches the peer's queue, and the greeting leads it.
func (n *Node) setupPeer(conn net.Conn, dir direction, dialedAddr string) error {
	initiator := dir == outbound
	remote, err := n.handshake(conn, initiator)
	if err != nil {
		_ = conn.Close()
		return err
	}
	handshakeConn := conn

	// Apply the fault plan's connection verdict: wrap the transport for
	// resets/stalls/throttles, or arm the send path for message drops.
	// The handshake runs clean — dial-level faults cover that phase.
	dropNth := 0
	if n.cfg.Faults != nil {
		var attempt int
		n.record(func(l *ledger) {
			attempt = l.connAttempts[remote.NodeID]
			l.connAttempts[remote.NodeID]++
		})
		if v := n.cfg.Faults.Conn(n.cfg.NodeID, remote.NodeID, attempt); v.Faulty() {
			n.record(func(l *ledger) { l.res.FaultedConns++ })
			n.logf("injecting %v on connection to %016x", v, remote.NodeID)
			conn = faults.Wrap(conn, v)
			if v.Kind == faults.Drop {
				dropNth = v.DropNth
			}
		}
	}

	var delay time.Duration
	if n.cfg.PeerDelay != nil {
		delay = n.cfg.PeerDelay(remote.NodeID)
	}
	listenAddr := remote.ListenAddr
	if listenAddr != "" && wire.ValidateAddr(listenAddr) != nil {
		// A syntactically bogus advertised address must not enter the
		// book or the gossip stream; treat the peer as non-listening.
		n.logf("ignoring invalid listen addr %q from %016x", listenAddr, remote.NodeID)
		listenAddr = ""
	}
	if listenAddr == "" && dir == outbound {
		listenAddr = dialedAddr
	}
	p := newPeer(remote.NodeID, dir, conn, listenAddr, delay)
	p.writeTimeout = n.cfg.WriteTimeout
	p.dropNth = dropNth
	p.maxFullDrops = maxSendQueueDrops
	p.onSlowClose = func() {
		n.record(func(l *ledger) { l.res.SlowConsumerDrops++ })
		n.logf("disconnecting slow consumer %016x", remote.NodeID)
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		p.close()
		return ErrStopped
	}
	if _, dup := n.peers[p.id]; dup {
		n.mu.Unlock()
		p.close()
		return fmt.Errorf("p2p: duplicate connection to %016x", p.id)
	}
	if dir == inbound && n.countLocked(inbound) >= n.cfg.MaxInbound {
		// Handshakes that passed acceptLoop's check together meet the cap
		// again here, where the slot is actually taken.
		n.mu.Unlock()
		p.close()
		n.record(func(l *ledger) { l.res.AcceptsShed++ })
		return fmt.Errorf("p2p: incoming slots full, shedding %016x", p.id)
	}
	n.peers[p.id] = p
	n.sorted = nil
	n.mu.Unlock()

	// Seed discovery and sync: announce our own listen address, ask for
	// an address sample, and announce our tip unless that would relay a
	// received block early or at all (see showsTip), all before any reply.
	n.announceSelf(p)
	p.noteGetAddrSent()
	p.send(&wire.GetAddr{})
	if tip := n.store.Tip(); tip.Header.Height > 0 {
		if h := tip.Header.Hash(); n.showsTip(h) {
			p.sendInv(h)
		}
	}
	if err := closeHandshake(handshakeConn, initiator); err != nil {
		n.removePeer(p)
		return err
	}
	_ = handshakeConn.SetDeadline(time.Time{})
	if listenAddr != "" {
		// A first sighting of the peer's advertised address is gossip like
		// any other: admit it and trickle it onward, so a joiner's address
		// starts diffusing the moment it connects.
		if n.book.AddSeen(listenAddr, 0) {
			n.record(func(l *ledger) { l.disc.AddrsLearned++ })
			n.trickleAddrs(p.id, []wire.NetAddr{{Addr: listenAddr, AgeSec: 0}})
		}
	}
	n.logf("connected %s via %s", p, conn.RemoteAddr())
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		p.writeLoop()
	}()
	go func() {
		defer n.wg.Done()
		n.readLoop(p)
	}()
	return nil
}

// openHandshake runs the Version/Verack exchange up to this side's last
// write, its Verack, and returns the remote's Version: the initiator sends
// its Version and reads the remote's; the responder reads the initiator's
// Version, sends its own and reads the initiator's Verack.
func openHandshake(conn net.Conn, local *wire.Version, initiator bool) (*wire.Version, error) {
	if !initiator {
		remote, err := readVersion(conn)
		if err != nil {
			return nil, err
		}
		if err := wire.Write(conn, local); err != nil {
			return nil, err
		}
		return remote, readVerack(conn)
	}
	if err := wire.Write(conn, local); err != nil {
		return nil, err
	}
	return readVersion(conn)
}

// closeHandshake sends this side's Verack, its last handshake write; the
// initiator then reads the responder's.
func closeHandshake(conn net.Conn, initiator bool) error {
	if err := wire.Write(conn, &wire.Verack{}); err != nil {
		return err
	}
	if initiator {
		return readVerack(conn)
	}
	return nil
}

func readVersion(conn net.Conn) (*wire.Version, error) {
	m, err := wire.Read(conn)
	if err != nil {
		return nil, fmt.Errorf("p2p: reading version: %w", err)
	}
	v, ok := m.(*wire.Version)
	if !ok {
		return nil, fmt.Errorf("p2p: expected version, got %v", m.Type())
	}
	return v, nil
}

func readVerack(conn net.Conn) error {
	m, err := wire.Read(conn)
	if err != nil {
		return fmt.Errorf("p2p: reading verack: %w", err)
	}
	if _, ok := m.(*wire.Verack); !ok {
		return fmt.Errorf("p2p: expected verack, got %v", m.Type())
	}
	return nil
}

func (n *Node) randUint64() uint64 {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	return n.rand.Uint64()
}

// Misbehavior points charged for offenses above the wire layer.
const (
	// pointsInvalidBlock is charged for a block failing validation —
	// expensive to receive, trivial for an honest peer to avoid sending.
	pointsInvalidBlock = 50
	// pointsHandshakeAbuse is charged for a Version/Verack after the
	// handshake completed.
	pointsHandshakeAbuse = 30
	// pointsAddrSpam is charged for GETADDRs past the burst budget and
	// for unsolicited ADDR floods past the per-peer allowance.
	pointsAddrSpam = 10
	// pointsInvalidAddr is charged for an ADDR message carrying
	// syntactically invalid addresses.
	pointsInvalidAddr = 10
)

// readLoop dispatches messages from one peer until the connection dies.
// Reads are buffered (the reader is made here, after the handshake and
// over the fault-wrapped connection) and run under the idle deadline: one
// silent interval triggers a ping probe, a second disconnects the peer —
// this is what reclaims stalled or half-open connections. Only a deadline
// that fires between frames is an idle interval; one that fires inside a
// frame has consumed part of it, so the peer is dropped as stalled, with no
// misbehavior charge. Protocol violations feed the misbehavior score before
// disconnecting.
func (n *Node) readLoop(p *peer) {
	defer n.removePeer(p)
	in := wire.NewReader(p.conn)
	probed := false
	for {
		if n.cfg.ReadIdleTimeout > 0 {
			_ = p.conn.SetReadDeadline(time.Now().Add(n.cfg.ReadIdleTimeout))
		}
		m, err := in.Read()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && !in.MidFrame() && !probed {
				probed = true
				p.send(&wire.Ping{Nonce: n.randUint64()})
				// A silent interval also means no block is in flight from
				// this peer: retry any fetch whose GETDATA was lost (e.g.
				// to an injected message drop) and whose announcers have
				// all moved on.
				n.rerequestStale(p)
				continue
			}
			if pts := wire.ViolationPoints(err); pts > 0 {
				n.logf("wire violation from %s: %v", p, err)
				n.misbehave(p, pts)
			}
			return
		}
		probed = false
		switch msg := m.(type) {
		case *wire.Ping:
			p.send(&wire.Pong{Nonce: msg.Nonce})
		case *wire.Pong:
			// liveness only
		case *wire.Inv:
			n.handleInv(p, msg)
		case *wire.GetData:
			n.handleGetData(p, msg)
		case *wire.Block:
			n.handleBlock(p, msg)
		case *wire.Addr:
			n.handleAddr(p, msg)
		case *wire.GetAddr:
			n.handleGetAddr(p)
		default:
			// Version/Verack after handshake: protocol violation.
			n.misbehave(p, pointsHandshakeAbuse)
			return
		}
	}
}

// misbehave charges misbehavior points against a peer's identity and
// address; crossing the ban threshold disconnects it immediately.
func (n *Node) misbehave(p *peer, pts float64) {
	if n.book.Misbehave(p.id, p.listenAddr, pts) {
		n.record(func(l *ledger) { l.res.Bans++ })
		n.logf("banned %s (misbehavior score over threshold)", p)
		n.removePeer(p)
	}
}

func (n *Node) removePeer(p *peer) {
	p.close()
	n.mu.Lock()
	if existing, ok := n.peers[p.id]; ok && existing == p {
		delete(n.peers, p.id)
		n.sorted = nil
	}
	n.mu.Unlock()
	n.logf("disconnected %s", p)
}

// reRequestAfter is how long a GETDATA may go unanswered before its block
// becomes eligible for another fetch. Nodes tuned for fast idle probing
// (a short ReadIdleTimeout) retry lost fetches on that same cadence;
// otherwise a single dropped request parks a block for the full default
// window even though the probe that would carry the retry fires much
// sooner.
func (n *Node) reRequestAfter() time.Duration {
	const def = 2 * time.Second
	if t := n.cfg.ReadIdleTimeout; t > 0 && t < def {
		return t
	}
	return def
}

func (n *Node) handleInv(p *peer, inv *wire.Inv) {
	now := time.Now()
	window := n.reRequestAfter()
	// One hash to fetch, the relay's usual case, is queued as a value; the
	// list is built only once there is a second.
	var first chain.Hash
	var want []chain.Hash
	asked := 0
	n.obsMu.Lock()
	for _, h := range inv.Hashes {
		n.sightings.note(p.id, h, now)
		if !n.store.Has(h) && n.sightings.ask(h, now, window) {
			switch asked++; asked {
			case 1:
				first = h
			case 2:
				want = append(want, first, h)
			default:
				want = append(want, h)
			}
		}
	}
	n.obsMu.Unlock()
	switch {
	case asked == 1:
		p.sendGetData(first)
	case asked > 1:
		p.send(&wire.GetData{Hashes: want})
	}
}

// rerequestStale re-sends GETDATA to p for blocks requested over the
// re-request window ago and still missing — the recovery path for fetch
// requests lost in transit, without which a single dropped GETDATA loses
// a block until an unrelated announcement revives it.
func (n *Node) rerequestStale(p *peer) {
	n.obsMu.Lock()
	want := n.sightings.stale(time.Now(), n.reRequestAfter(), n.store.Has, wire.MaxInvHashes)
	n.obsMu.Unlock()
	if len(want) > 0 {
		p.send(&wire.GetData{Hashes: want})
	}
}

func (n *Node) handleGetData(p *peer, gd *wire.GetData) {
	for _, h := range gd.Hashes {
		b := n.store.Get(h)
		switch relay := n.relayed[relaySlot(h)].Load(); {
		case b == nil:
			// No reply for a hash we never had or whose body has aged out.
		case relay != nil && relay.Block == b:
			p.send(relay)
		default:
			p.send(&wire.Block{Block: b})
		}
	}
}

// relaySlot is h's slot in Node.relayed.
func relaySlot(h chain.Hash) int { return int(binary.BigEndian.Uint16(h[:2])) % relaySlots }

// handleBlock takes the BLOCK message p sent, as its reader decoded it.
// Unless the block is known already, that message is put in place to serve
// the block onward before the block's INV goes out; should the store not
// connect this very block, handleGetData never sends it.
func (n *Node) handleBlock(p *peer, msg *wire.Block) {
	b := msg.Block
	h := b.Header.Hash()
	n.obsMu.Lock()
	n.sightings.note(p.id, h, time.Now())
	n.obsMu.Unlock()
	if n.store.Has(h) {
		return
	}
	n.relayed[relaySlot(h)].Store(msg)
	n.acceptBlock(p, b, h, false)
}

// acceptBlock stores a block, or asks from for its missing parent, and
// records and relays it and every stashed block it connected. h is the
// block's header hash, computed once by whoever first held the block. from
// may be nil when no peer sent the block; mined marks one of the node's
// own, because adversarial relay behavior (SilentRelay, RelayDelay) applies
// to every received block — unstashed orphans too — but never to the
// node's own. mineBlock links what it mines through chain.Store.Mine and
// announces it through connected.
func (n *Node) acceptBlock(from *peer, b *chain.Block, h chain.Hash, mined bool) {
	if n.store.Has(h) {
		return
	}
	// Mark a withheld relay pending before the block can become the tip a
	// connecting peer is shown (see showsTip). A stashed block keeps its
	// mark until its relay fires; a refused or dropped one gives it back.
	withhold := !mined && !n.cfg.SilentRelay && n.cfg.RelayDelay > 0
	if withhold {
		n.markWithheld(h, 1)
	}
	added, err := n.store.Add(b, h)
	if withhold {
		if err != nil {
			n.markWithheld(h, -1)
		}
		for _, d := range added.Dropped {
			n.markWithheld(d, -1)
		}
	}
	if added.Stashed && from != nil {
		from.sendGetData(b.Header.PrevHash)
	}
	switch {
	case errors.Is(err, chain.ErrInvalidBlock):
		n.logf("rejecting invalid block %s: %v", h, err)
		if from != nil {
			n.misbehave(from, pointsInvalidBlock)
		}
		return
	case errors.Is(err, chain.ErrDuplicateBlock):
		return
	case err != nil: // a full stash too: any peer can fill it, so no charge
		n.logf("rejecting block %s: %v", h, err)
		return
	case added.Stashed:
		return
	}
	n.connected(from, h, added.Unstashed, mined)
}

// connected records and announces block h, which from sent (nil when no
// peer did), and the stashed blocks it unstashed, once they connected.
func (n *Node) connected(from *peer, h chain.Hash, unstashed []chain.Hash, mined bool) {
	n.obsMu.Lock()
	n.sightings.accept(h) // fetched: no longer re-requested
	for _, u := range unstashed {
		n.sightings.accept(u)
	}
	if mined {
		n.lastMined = h
	}
	n.obsMu.Unlock()

	// Relay to everyone except the sender (they have it), applying any
	// configured adversarial relay behavior to received blocks.
	var fromID uint64
	if from != nil {
		fromID = from.id
	}
	n.relayInv(h, fromID, !mined)
	for _, u := range unstashed {
		n.relayInv(u, 0, true)
	}
	n.maybeAutoRound()
}

// relayInv announces a block to all peers except the sender, applying
// the node's adversarial relay behavior when the block was received
// rather than self-mined: a silent relay suppresses the announcement, a
// withholding relay delays it. Self-mined blocks always go out
// immediately — a silent source still announces its own blocks, matching
// the simulator's semantics.
func (n *Node) relayInv(h chain.Hash, exceptID uint64, relayed bool) {
	if relayed && n.cfg.SilentRelay {
		return
	}
	if !relayed || n.cfg.RelayDelay <= 0 {
		n.broadcastInv(h, exceptID)
		return
	}
	n.spawn(func() {
		timer := time.NewTimer(n.cfg.RelayDelay)
		defer timer.Stop()
		select {
		case <-n.quit:
		case <-timer.C:
			n.markWithheld(h, -1)
			n.broadcastInv(h, exceptID)
		}
	})
}

// markWithheld adds d to h's count of pending withheld relays.
func (n *Node) markWithheld(h chain.Hash, d int) {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	n.withheld[h] += d
	if n.withheld[h] == 0 {
		delete(n.withheld, h)
	}
}

// broadcastInv queues an INV of h to every peer but exceptID, as a value
// each write loop frames itself, so a relay allocates nothing.
func (n *Node) broadcastInv(h chain.Hash, exceptID uint64) {
	for _, p := range n.peerSnapshot() {
		if p.id != exceptID {
			p.sendInv(h)
		}
	}
}

// showsTip reports whether a peer connecting now is shown tip h. A silent
// relay shows only a tip it mined: showing a received block would relay it
// after all, which the simulator's Silent never does. A withholding relay
// shows no block whose delayed relay is pending: that relay snapshots the
// peers when it fires, so it reaches the new peer then, and never earlier
// than the simulator's RelayDelay allows.
func (n *Node) showsTip(h chain.Hash) bool {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if n.cfg.SilentRelay {
		return n.lastMined == h
	}
	return n.withheld[h] == 0
}

// peerSnapshot returns the live peers sorted by ID. The slice is shared
// and read-only; it is rebuilt only after the peer set changed.
func (n *Node) peerSnapshot() []*peer {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sorted == nil {
		n.sorted = make([]*peer, 0, len(n.peers))
		for _, p := range n.peers {
			n.sorted = append(n.sorted, p)
		}
		sort.Slice(n.sorted, func(i, j int) bool { return n.sorted[i].id < n.sorted[j].id })
	}
	return n.sorted
}

// mineBlock extends the node's tip with a new block and announces it. The
// block's BLOCK message is built once, before the announcement, and serves
// every GETDATA of it.
func (n *Node) mineBlock(txs [][]byte) (*chain.Block, error) {
	if n.stopped() {
		return nil, ErrStopped
	}
	b, h, err := n.store.Mine(txs, time.Now(), n.randUint64())
	if err != nil {
		return nil, fmt.Errorf("p2p: mined block rejected: %w", err)
	}
	n.relayed[relaySlot(h)].Store(&wire.Block{Block: b})
	n.connected(nil, h, nil, true)
	return b, nil
}

// roundReport summarizes one live Perigee round.
type roundReport struct {
	// Round is the 1-based index of the completed round.
	Round int
	// BlocksScored is the number of blocks whose timestamps fed scoring.
	BlocksScored int
	// Kept lists the outbound peer IDs the selector retained.
	Kept []uint64
	// Dropped lists the outbound peer IDs disconnected, in the selector's
	// drop order.
	Dropped []uint64
	// Added lists the peer IDs of outbound connections established by
	// exploration.
	Added []uint64
	// Dialed lists the fresh addresses connected for exploration.
	Dialed []string
}

// round runs one live decision round: it feeds the block arrival
// timestamps observed since the last round to the node's Selector,
// disconnects the peers the selector dropped, spends its dial budget on
// fresh addresses from the book, and resets the observation window. The
// node is a driver — all policy lives in the Selector.
func (n *Node) round() (roundReport, error) {
	if n.stopped() {
		return roundReport{}, ErrStopped
	}

	// The scoring code keys neighbors by int, for identity and tie-breaking
	// only, so the (possibly negative) two's-complement view of an ID is
	// fine.
	outs := make([]*peer, 0, n.cfg.OutDegree)
	ids := make([]int, 0, n.cfg.OutDegree)
	for _, p := range n.peerSnapshot() {
		if p.direction == outbound {
			outs = append(outs, p)
			ids = append(ids, int(p.id))
		}
	}

	// Take the window's observations, which resets it, and claim the round
	// index.
	n.obsMu.Lock()
	obs := n.sightings.round(ids)
	n.rounds++
	round := n.rounds
	n.obsMu.Unlock()
	report := roundReport{Round: round, BlocksScored: len(obs.Offsets)}

	if n.cfg.Frozen {
		// Protocol-deviant node: the observation window resets and the
		// round is reported, but every outbound peer is kept and nothing
		// is dialed.
		for _, p := range outs {
			report.Kept = append(report.Kept, p.id)
		}
		return report, nil
	}

	decision, err := core.Decide(n.cfg.Selector, core.NeighborView{
		Node:         int(n.cfg.NodeID),
		OutDegree:    n.cfg.OutDegree,
		Candidates:   n.book.Len(),
		Observations: obs,
		Rand:         n.selRand.DeriveIndexed("round", round),
	})
	if err != nil {
		return report, fmt.Errorf("p2p: round %d: %w", round, err)
	}
	for _, i := range decision.Keep {
		report.Kept = append(report.Kept, outs[i].id)
	}
	for _, i := range decision.Drop {
		report.Dropped = append(report.Dropped, outs[i].id)
		n.removePeer(outs[i])
	}

	// Exploration: spend the selector's dial budget on fresh addresses.
	// The target is floored at the configured out-degree so a node whose
	// outbound set was thinned by faults between rounds recovers instead
	// of permanently shrinking.
	target := max(len(outs)-len(decision.Drop)+decision.Dial, n.cfg.OutDegree)
	// Never immediately redial a peer the selector just evicted.
	var evicted []string
	for _, i := range decision.Drop {
		if a := outs[i].listenAddr; a != "" {
			evicted = append(evicted, a)
		}
	}
	report.Dialed, _ = n.dialBook(evicted, func(int) bool { return n.OutboundCount() >= target }, "exploration dial")
	report.Added = n.outboundDiff(report.Kept)
	return report, nil
}

// outboundDiff returns the current outbound peer IDs not present in
// before, sorted ascending — the connections exploration just added.
func (n *Node) outboundDiff(before []uint64) []uint64 {
	known := make(map[uint64]bool, len(before))
	for _, id := range before {
		known[id] = true
	}
	var added []uint64
	for _, p := range n.peerSnapshot() {
		if p.direction == outbound && !known[p.id] {
			added = append(added, p.id)
		}
	}
	return added
}

// maybeAutoRound triggers a Perigee round in the background once the
// observation window reaches the configured RoundBlocks threshold. At
// most one automatic round runs at a time.
func (n *Node) maybeAutoRound() {
	if n.cfg.RoundBlocks <= 0 || n.ObservationWindow() < n.cfg.RoundBlocks {
		return
	}
	if !n.roundInFlight.CompareAndSwap(false, true) {
		return
	}
	if !n.spawn(func() {
		defer n.roundInFlight.Store(false)
		if _, err := n.Round(); err != nil && !errors.Is(err, ErrStopped) {
			n.logf("automatic perigee round: %v", err)
		}
	}) {
		n.roundInFlight.Store(false)
	}
}

func (n *Node) shuffleStrings(xs []string) {
	sort.Strings(xs) // deterministic base order before the seeded shuffle
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	n.rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// ObservationWindow returns the number of blocks observed since the last
// Perigee round — the input size of the next decision.
func (n *Node) ObservationWindow() int {
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	return n.sightings.count[windowRing]
}

// Stop closes the listener, drains peer send queues for up to
// DrainTimeout so queued announcements flush, closes all connections,
// waits for every goroutine to exit, and persists the address book when
// a path is configured. Safe to call more than once.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	close(n.quit)
	ln := n.listener
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	// Graceful drain: the deadline is shared, so the total wait is
	// bounded by DrainTimeout regardless of peer count.
	deadline := time.Now().Add(n.cfg.DrainTimeout)
	for _, p := range peers {
		p.drain(deadline)
	}
	for _, p := range peers {
		p.close()
	}
	n.wg.Wait()
	if n.cfg.AddrBookPath != "" {
		if err := n.book.Save(n.cfg.AddrBookPath); err != nil {
			n.logf("saving address book: %v", err)
		}
	}
}
