package p2p

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/faults"
	"github.com/perigee-net/perigee/internal/wire"
)

// rawDialAddr is rawDial with an advertised listening address, for tests
// exercising the requester-own-address exclusion and book admission.
func rawDialAddr(t *testing.T, target *Node, nodeID uint64, listenAddr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", target.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	local := &wire.Version{Protocol: wire.ProtocolVersion, NodeID: nodeID, ListenAddr: listenAddr, Nonce: 1}
	if err := wire.Write(conn, local); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Read(conn); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Version); !ok {
		t.Fatalf("expected version, got %v", m.Type())
	}
	if err := wire.Write(conn, &wire.Verack{}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.Read(conn); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Verack); !ok {
		t.Fatalf("expected verack, got %v", m.Type())
	}
	_ = conn.SetDeadline(time.Time{})
	return conn
}

// readAddrOfAtLeast reads messages until an ADDR with at least min
// entries arrives (skipping self-announces and unrelated traffic).
func readAddrOfAtLeast(t *testing.T, conn net.Conn, min int) *wire.Addr {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		if a, ok := m.(*wire.Addr); ok && len(a.Addrs) >= min {
			return a
		}
	}
}

// assertNoAddr asserts that no ADDR message arrives on conn within d.
func assertNoAddr(t *testing.T, conn net.Conn, d time.Duration) {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(d))
	defer conn.SetReadDeadline(time.Time{})
	for {
		m, err := wire.Read(conn)
		if err != nil {
			return // deadline or closed: no ADDR arrived
		}
		if a, ok := m.(*wire.Addr); ok {
			t.Fatalf("unexpected ADDR of %d entries past the rate limit", len(a.Addrs))
		}
	}
}

// fillBook populates a node's book with n distinct valid addresses.
func fillBook(n *Node, count int) []string {
	addrs := make([]string, count)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.1.%d.%d:8333", i/250, i%250+1)
		n.Book().Add(addrs[i])
	}
	return addrs
}

// TestGetAddrSampleHardened pins the handleGetAddr fixes: the response is
// a seeded random sample, never the lexicographically sorted prefix of
// the book, never contains banned addresses or the requester's own
// address, and is bit-for-bit reproducible from the node seed.
func TestGetAddrSampleHardened(t *testing.T) {
	build := func() *Node {
		n := startNode(t, 7700, nil)
		fillBook(n, 300)
		return n
	}
	a := build()
	banned := "10.1.0.5:8333"
	a.Book().Misbehave(0xBAD, banned, 10*banThreshold)
	if !a.Book().AddrBanned(banned) {
		t.Fatal("ban setup failed")
	}
	own := "10.9.9.9:4444"
	a.Book().Add(own) // the requester's address is known to the node

	conn := rawDialAddr(t, a, 0xD1A1, own)
	if err := wire.Write(conn, &wire.GetAddr{}); err != nil {
		t.Fatal(err)
	}
	sample := readAddrOfAtLeast(t, conn, 2)
	if len(sample.Addrs) > wire.MaxAddrs {
		t.Fatalf("sample of %d exceeds MaxAddrs", len(sample.Addrs))
	}
	sorted := a.Book().all()
	prefix := true
	for i, na := range sample.Addrs {
		if na.Addr == banned {
			t.Fatal("banned address leaked into ADDR response")
		}
		if na.Addr == own {
			t.Fatal("requester's own address echoed back")
		}
		if na.Addr != sorted[i] {
			prefix = false
		}
	}
	if prefix {
		t.Fatal("ADDR response is the sorted prefix of the book")
	}

	// Same seed, same book, same requester => identical sample: discovery
	// decisions replay bit-for-bit.
	b := build()
	b.Book().Misbehave(0xBAD, banned, 10*banThreshold)
	b.Book().Add(own)
	conn2 := rawDialAddr(t, b, 0xD1A1, own)
	if err := wire.Write(conn2, &wire.GetAddr{}); err != nil {
		t.Fatal(err)
	}
	sample2 := readAddrOfAtLeast(t, conn2, 2)
	if len(sample.Addrs) != len(sample2.Addrs) {
		t.Fatalf("replayed sample size %d != %d", len(sample2.Addrs), len(sample.Addrs))
	}
	for i := range sample.Addrs {
		if sample.Addrs[i].Addr != sample2.Addrs[i].Addr {
			t.Fatalf("replayed sample diverges at %d: %s != %s",
				i, sample2.Addrs[i].Addr, sample.Addrs[i].Addr)
		}
	}
}

// TestGetAddrRateLimited pins the amplification fix: within one window
// only the first GETADDR is answered — spam past it yields zero
// additional ADDR bytes — and requests past the burst budget charge
// misbehavior points.
func TestGetAddrRateLimited(t *testing.T) {
	n := startNode(t, 7710, nil)
	fillBook(n, 50)
	const spammer = 0x5BA3
	conn := rawDial(t, n, spammer)
	if err := wire.Write(conn, &wire.GetAddr{}); err != nil {
		t.Fatal(err)
	}
	first := readAddrOfAtLeast(t, conn, 2)
	if len(first.Addrs) == 0 {
		t.Fatal("first GETADDR unanswered")
	}
	// Requests 2..4: inside the window, inside the burst budget — ignored.
	for i := 0; i < 3; i++ {
		if err := wire.Write(conn, &wire.GetAddr{}); err != nil {
			t.Fatal(err)
		}
	}
	assertNoAddr(t, conn, 300*time.Millisecond)
	if got := n.Discovery().GetAddrThrottled; got < 3 {
		t.Fatalf("GetAddrThrottled = %d, want >= 3", got)
	}
	if s := n.Book().score(spammer); s != 0 {
		t.Fatalf("in-budget requests charged %v points", s)
	}
	// Requests past the burst budget charge points.
	for i := 0; i < 3; i++ {
		if err := wire.Write(conn, &wire.GetAddr{}); err != nil {
			t.Fatal(err)
		}
	}
	assertNoAddr(t, conn, 300*time.Millisecond)
	waitFor(t, "spam charge", time.Second, func() bool {
		return n.Book().score(spammer) > 0
	})
}

// TestAddrIngestionValidated pins the poisoning fixes on the receive
// path: syntactically invalid addresses never enter the book (and charge
// points), stale claims are dropped, valid fresh ones are admitted.
func TestAddrIngestionValidated(t *testing.T) {
	n := startNode(t, 7720, nil)
	const sender = 0xFEED
	conn := rawDial(t, n, sender)
	msg := &wire.Addr{Addrs: []wire.NetAddr{
		{Addr: "10.2.0.1:9000", AgeSec: 0},           // valid, fresh
		{Addr: "not an address", AgeSec: 0},          // invalid
		{Addr: "10.2.0.2:0", AgeSec: 0},              // port zero
		{Addr: ":9000", AgeSec: 0},                   // empty host
		{Addr: "10.2.0.3:9000", AgeSec: 4 * 60 * 60}, // stale (4h > 3h)
		{Addr: "bad_host:9000", AgeSec: 0},           // invalid label
		{Addr: "10.2.0.4:9000", AgeSec: 60},          // valid, 1min old
	}}
	if err := wire.Write(conn, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "valid addrs admitted", time.Second, func() bool {
		return n.Book().contains("10.2.0.1:9000") && n.Book().contains("10.2.0.4:9000")
	})
	for _, bad := range []string{"not an address", "10.2.0.2:0", ":9000", "10.2.0.3:9000", "bad_host:9000"} {
		if n.Book().contains(bad) {
			t.Fatalf("%q entered the book", bad)
		}
	}
	if s := n.Book().score(sender); s == 0 {
		t.Fatal("invalid addrs went uncharged")
	}
	d := n.Discovery()
	if d.AddrsInvalid != 4 || d.AddrsStale != 1 || d.AddrsLearned != 2 {
		t.Fatalf("counters invalid=%d stale=%d learned=%d, want 4/1/2",
			d.AddrsInvalid, d.AddrsStale, d.AddrsLearned)
	}
}

// TestUnsolicitedAddrBudget pins the flood cap: entries beyond the
// solicited credit and the per-window unsolicited budget are dropped, and
// a fully over-budget message charges misbehavior.
func TestUnsolicitedAddrBudget(t *testing.T) {
	n := startNode(t, 7730, nil)
	const flooder = 0xF100D
	conn := rawDial(t, n, flooder)
	// The node sent us one GETADDR at connect: its solicited credit covers
	// exactly wire.MaxAddrs entries. Burn it.
	burn := make([]wire.NetAddr, wire.MaxAddrs)
	for i := range burn {
		burn[i] = wire.NetAddr{Addr: fmt.Sprintf("10.3.%d.%d:8333", i/250, i%250+1)}
	}
	if err := wire.Write(conn, &wire.Addr{Addrs: burn}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "solicited batch admitted", time.Second, func() bool {
		return n.Book().contains(burn[len(burn)-1].Addr)
	})
	// Now unsolicited: 12 entries past the budget.
	extra := make([]wire.NetAddr, unsolicitedBudget+12)
	for i := range extra {
		extra[i] = wire.NetAddr{Addr: fmt.Sprintf("10.4.0.%d:8333", i+1)}
	}
	if err := wire.Write(conn, &wire.Addr{Addrs: extra}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "budgeted prefix admitted", time.Second, func() bool {
		return n.Book().contains(extra[unsolicitedBudget-1].Addr)
	})
	for _, na := range extra[unsolicitedBudget:] {
		if n.Book().contains(na.Addr) {
			t.Fatalf("%s admitted past the unsolicited budget", na.Addr)
		}
	}
	if got := n.Discovery().UnsolicitedDropped; got != 12 {
		t.Fatalf("UnsolicitedDropped = %d, want 12", got)
	}
	// A third, fully over-budget message charges points.
	if err := wire.Write(conn, &wire.Addr{Addrs: extra}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "flood charge", time.Second, func() bool {
		return n.Book().score(flooder) > 0
	})
}

// TestRoundlessObservationBound pins the memory fix: a node that never
// runs Perigee rounds keeps its sightings table bounded by observationCap,
// under an announcement flood of fabricated hashes and under an honest
// announce → request → deliver stream alike.
func TestRoundlessObservationBound(t *testing.T) {
	const cap = observationCap
	n := startNode(t, 7740, nil)
	conn := rawDial(t, n, 0x0B5)
	// Enough rumor to push the table ten records past 2·cap.
	const flood = 2*cap + 10
	var last [32]byte
	for sent := 0; sent < flood; {
		inv := &wire.Inv{}
		for ; sent < flood && len(inv.Hashes) < wire.MaxInvHashes; sent++ {
			var h [32]byte
			h[0], h[1], h[2] = byte(sent>>8), byte(sent), 0x77
			inv.Hashes = append(inv.Hashes, h)
			last = h
		}
		if err := wire.Write(conn, inv); err != nil {
			t.Fatal(err)
		}
	}
	// The newest rumor is never the one pruned, so its arrival marks the
	// whole flood as processed.
	waitFor(t, "flood processed", 2*time.Second, func() bool {
		n.obsMu.Lock()
		defer n.obsMu.Unlock()
		_, ok := n.sightings.index[last]
		return ok
	})
	checkBounds := func(what string, n *Node) {
		t.Helper()
		n.obsMu.Lock()
		seen, slots, req, ord := n.sightings.sizes()
		n.obsMu.Unlock()
		if seen > 2*cap || slots > 2*cap {
			t.Fatalf("%s: the table grew to %d records in %d slots, cap is %d", what, seen, slots, 2*cap)
		}
		// Requests are bounded on the observation path, so they may sit
		// one past the cap between prunes — never more.
		if req > cap+1 {
			t.Fatalf("%s: %d requests in flight, cap is %d", what, req, cap)
		}
		if ord > cap {
			t.Fatalf("%s: the window grew to %d, cap is %d", what, ord, cap)
		}
	}
	checkBounds("rumor flood", n)

	// An honest peer announces each block of a chain past 3·cap long and
	// delivers it when asked.
	_ = conn.Close()
	waitFor(t, "flooder gone", 2*time.Second, func() bool { return len(n.Peers()) == 0 })
	honest := rawDial(t, n, 0x0B6)
	pongs := drain(t, honest)
	prev, at := testGenesis(), time.Unix(1700000000, 0)
	for i := 0; i < 3*cap+10; i++ {
		b := chain.NewBlock(prev, nil, at, uint64(i))
		if err := wire.Write(honest, &wire.Inv{Hashes: []chain.Hash{b.Header.Hash()}}); err != nil {
			t.Fatal(err)
		}
		if err := wire.Write(honest, &wire.Block{Block: b}); err != nil {
			t.Fatal(err)
		}
		if i%(peerSendBuffer/2) == 0 {
			pingPong(t, honest, pongs)
			checkBounds("honest stream", n)
		}
		prev = b
	}
	pingPong(t, honest, pongs)
	if !n.Store().Has(prev.Header.Hash()) {
		t.Fatal("the honest chain did not reach the store")
	}
	checkBounds("honest stream", n)
	if got := n.ObservationWindow(); got != cap {
		t.Fatalf("window holds %d blocks after %d accepted, want the cap %d", got, 3*cap+10, cap)
	}

	// Accepted-block growth is bounded too: mine past the cap.
	miner := startNode(t, 7741, nil)
	for i := 0; i < 3*cap; i++ {
		if _, err := miner.MineBlock(nil); err != nil {
			t.Fatal(err)
		}
	}
	checkBounds("miner", miner)
}

// TestObservationCapKeepsNewest pins the trim contract of the accepted-block
// window: once more than observationCap blocks have been accepted, the
// window is exactly the newest cap hashes, in acceptance order, and the
// table holds every kept block's sightings and none of the trimmed blocks'.
func TestObservationCapKeepsNewest(t *testing.T) {
	const cap, extra = observationCap, 37
	n := startNode(t, 7745, nil)
	var accepted []chain.Hash
	for i := 0; i < cap+extra; i++ {
		b := chain.NewBlock(n.store.Tip(), nil, time.Now(), uint64(i))
		h := b.Header.Hash()
		n.obsMu.Lock()
		n.sightings.note(1, h, time.Now()) // a peer announces it, then it arrives
		n.obsMu.Unlock()
		n.acceptBlock(nil, b, h, false)
		if !n.store.Has(h) {
			t.Fatalf("block %d rejected", i)
		}
		accepted = append(accepted, h)
	}
	n.obsMu.Lock()
	defer n.obsMu.Unlock()
	if window := n.sightings.windowHashes(); !slices.Equal(window, accepted[extra:]) {
		t.Fatalf("window holds %d hashes, want exactly the newest %d in acceptance order", len(window), cap)
	}
	for i, h := range accepted {
		if _, ok := n.sightings.index[h]; ok != (i >= extra) {
			t.Fatalf("block %d of %d: sighting present = %v", i, len(accepted), ok)
		}
	}
}

// TestSelfAnnounceAndTrickle pins the bootstrap half of discovery: a
// node announces its own address on connect, and freshly learned
// addresses trickle onward to already-connected peers.
func TestSelfAnnounceAndTrickle(t *testing.T) {
	hub := startNode(t, 7750, nil)
	a := startNode(t, 7751, nil)
	b := startNode(t, 7752, nil)

	// b connects first and then listens for trickle.
	if err := b.Connect(hub.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub learns b's address", time.Second, func() bool {
		return hub.Book().contains(b.Addr())
	})
	// a joins: the hub learns a by announce and trickles it to b.
	if err := a.Connect(hub.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "hub learns a", time.Second, func() bool {
		return hub.Book().contains(a.Addr())
	})
	waitFor(t, "a's address trickles to b", 2*time.Second, func() bool {
		return b.Book().contains(a.Addr())
	})
	if got := a.Discovery().SelfAnnounces; got < 1 {
		t.Fatalf("SelfAnnounces = %d, want >= 1", got)
	}
	if got := hub.Discovery().AddrsRelayed; got < 1 {
		t.Fatalf("hub AddrsRelayed = %d, want >= 1", got)
	}
}

// TestFeelerVerifiesRumor pins the feeler loop: an unverified book entry
// is dialed, handshaked, disconnected, and promoted to dial-verified
// without becoming a lasting connection.
func TestFeelerVerifiesRumor(t *testing.T) {
	target := startNode(t, 7760, nil)
	n := startNode(t, 7761, func(c *Config) {
		c.Discovery.FeelerInterval = 25 * time.Millisecond
	})
	n.Book().Add(target.Addr())
	if n.Book().verified(target.Addr()) {
		t.Fatal("rumor born verified")
	}
	waitFor(t, "feeler verification", 3*time.Second, func() bool {
		return n.Book().verified(target.Addr())
	})
	if got := n.Discovery().FeelerVerified; got < 1 {
		t.Fatalf("FeelerVerified = %d, want >= 1", got)
	}
	if len(n.Peers()) != 0 {
		t.Fatalf("feeler left %d lasting connections", len(n.Peers()))
	}
}

// discoveryClusterConfig tunes a node for fast single-seed convergence in
// tests: aggressive refresh, feelers, trickle, and redial.
func discoveryClusterConfig(c *Config) {
	c.OutDegree = 3
	c.Selector = subsetExplore1()
	c.Discovery.RefreshInterval = 50 * time.Millisecond
	c.Discovery.TargetKnown = 64
	c.Discovery.FeelerInterval = 75 * time.Millisecond
	c.RedialInterval = 50 * time.Millisecond
	c.DrainTimeout = 200 * time.Millisecond
}

// degree returns a node's total live connection count.
func degree(n *Node) int { return len(n.Peers()) }

// assertConverged waits until every node has reached its out-degree (in
// total degree terms — the seed saturates with inbound) and knows at
// least fraction of the other nodes' addresses.
func assertConverged(t *testing.T, nodes []*Node, timeout time.Duration, fraction float64) {
	t.Helper()
	need := int(fraction * float64(len(nodes)-1))
	addrOf := make([]string, len(nodes))
	for i, n := range nodes {
		addrOf[i] = n.Addr()
	}
	waitFor(t, "single-seed discovery convergence", timeout, func() bool {
		for i, n := range nodes {
			if degree(n) < n.cfg.OutDegree {
				return false
			}
			known := 0
			for j, addr := range addrOf {
				if j != i && n.Book().contains(addr) {
					known++
				}
			}
			if known < need {
				return false
			}
		}
		return true
	})
}

// TestDiscoveryConvergenceSingleSeed is the tentpole test: N nodes, every
// joiner given only the seed node's address, must converge via
// addr-gossip alone — full out-degree everywhere and >=90% address-book
// coverage.
func TestDiscoveryConvergenceSingleSeed(t *testing.T) {
	const N = 8
	nodes := make([]*Node, N)
	nodes[0] = startNode(t, 7800, discoveryClusterConfig)
	for i := 1; i < N; i++ {
		nodes[i] = startNode(t, uint64(7800+i), discoveryClusterConfig)
		if err := nodes[i].Connect(nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	assertConverged(t, nodes, 15*time.Second, 0.9)
	// The whole topology grew from one seed: every non-seed node must have
	// learned addresses it was never given.
	for i := 1; i < N; i++ {
		if nodes[i].Book().Len() < 2 {
			t.Fatalf("node %d book never grew beyond the seed", i)
		}
	}
}

// TestChaosDiscoveryConvergence runs single-seed bootstrap under a 20%
// mixed fault plan: injected dial failures, resets, stalls, and message
// drops must delay but not prevent convergence.
func TestChaosDiscoveryConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos convergence is a long test")
	}
	plan := faults.Mixed(41, 0.2)
	const N = 8
	nodes := make([]*Node, N)
	nodes[0] = chaosNode(t, 7900, plan, discoveryClusterConfig)
	for i := 1; i < N; i++ {
		nodes[i] = chaosNode(t, uint64(7900+i), plan, discoveryClusterConfig)
		// Injected dial faults may refuse the first contact; retry.
		for attempt := 0; attempt < 20; attempt++ {
			if err := nodes[i].Connect(nodes[0].Addr()); err == nil {
				break
			}
		}
	}
	assertConverged(t, nodes, 45*time.Second, 0.9)
}

// TestVerifiedSurviveRumorFlood pins the eviction fix at the book level:
// dial-verified entries are never displaced by a flood of unverified
// rumor, while rumor still displaces rumor.
func TestVerifiedSurviveRumorFlood(t *testing.T) {
	b, _ := newClockBook()
	verified := []string{"10.5.0.1:1000", "10.5.0.2:1000", "10.5.0.3:1000"}
	for _, a := range verified {
		b.DialSucceeded(a)
	}
	for i := 0; i < bookCap+100; i++ {
		b.AddSeen(fmt.Sprintf("10.6.%d.%d:2000", i/250, i%250+1), 0)
	}
	if got := b.Len(); got != bookCap {
		t.Fatalf("book length %d, want cap %d", got, bookCap)
	}
	for _, a := range verified {
		if !b.contains(a) {
			t.Fatalf("verified %s evicted by rumor", a)
		}
		if !b.verified(a) {
			t.Fatalf("%s lost verified status", a)
		}
	}
	if got := b.VerifiedCount(); got != 3 {
		t.Fatalf("VerifiedCount = %d, want 3", got)
	}
	// A book full of verified entries rejects rumor outright.
	full, _ := newClockBook()
	for _, a := range verified {
		full.DialSucceeded(a)
	}
	for i := 0; i < bookCap-len(verified); i++ {
		full.DialSucceeded(fmt.Sprintf("10.9.%d.%d:3000", i/250, i%250+1))
	}
	if full.AddSeen("10.7.0.1:3000", 0) {
		t.Fatal("rumor admitted into an all-verified book at cap")
	}
	// But a verified newcomer may displace a verified entry.
	full.DialSucceeded("10.7.0.2:3000")
	if !full.contains("10.7.0.2:3000") {
		t.Fatal("verified newcomer rejected")
	}
	if full.Len() != bookCap {
		t.Fatalf("cap violated: %d", full.Len())
	}
}

// TestAddSeenBackdatesAndGossipableAges pins the age plumbing: a claimed
// age backdates LastSeen, and Gossipable reports it (while excluding
// banned and requested addresses).
func TestAddSeenBackdatesAndGossipableAges(t *testing.T) {
	b, clock := newClockBook()
	b.AddSeen("10.8.0.1:1000", 90*time.Second)
	b.Add("10.8.0.2:1000")
	clock.advance(10 * time.Second)
	got := b.Gossipable("10.8.0.2:1000")
	if len(got) != 1 || got[0].Addr != "10.8.0.1:1000" {
		t.Fatalf("Gossipable = %v, want the non-excluded entry", got)
	}
	if got[0].Age != 100*time.Second {
		t.Fatalf("age %v, want 100s (90s claimed + 10s elapsed)", got[0].Age)
	}
	b.Misbehave(0xB, "10.8.0.1:1000", 10*banThreshold)
	if rest := b.Gossipable(); len(rest) != 1 || rest[0].Addr != "10.8.0.2:1000" {
		t.Fatalf("banned entry still gossipable: %v", rest)
	}
}
