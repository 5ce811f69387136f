package p2p

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/faults"
	"github.com/perigee-net/perigee/internal/wire"
)

// chaosNode builds a node tuned for fault injection: short idle probes,
// fast redial, and bounded drain so tests turn around quickly.
func chaosNode(t *testing.T, seed uint64, plan faults.Plan, mutate func(*Config)) *Node {
	t.Helper()
	cfg := Config{
		Seed:            seed,
		ListenAddr:      "127.0.0.1:0",
		Genesis:         testGenesis(),
		OutDegree:       3,
		Selector:        subsetExplore1(),
		Faults:          plan,
		ReadIdleTimeout: 300 * time.Millisecond,
		WriteTimeout:    500 * time.Millisecond,
		RedialInterval:  100 * time.Millisecond,
		DrainTimeout:    200 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestChaosClusterSurvivesAndRecovers is the tentpole chaos test: an
// 8-node cluster under a 25% mixed fault plan (injected dial failures,
// resets, stalls, slow-loris reads, message drops) must keep propagating
// blocks, complete every Perigee round, recover its outbound degree, and
// leak no goroutines after a full drain.
func TestChaosClusterSurvivesAndRecovers(t *testing.T) {
	base := runtime.NumGoroutine()
	plan := faults.Mixed(99, 0.25)
	const N = 8
	nodes := make([]*Node, N)
	for i := range nodes {
		nodes[i] = chaosNode(t, uint64(9000+i), plan, nil)
	}
	// Full-mesh address seeding plus three initial dials per node; some
	// dials fail by injection — that is the point.
	for i, n := range nodes {
		for j, m := range nodes {
			if i != j {
				n.book.Add(m.Addr())
			}
		}
	}
	for i, n := range nodes {
		for k := 1; k <= 3; k++ {
			_ = n.Connect(nodes[(i+k)%N].Addr())
		}
	}

	mineAndSpread := func(tag string, count int, upto uint64) {
		for b := 0; b < count; b++ {
			if _, err := nodes[0].MineBlock([][]byte{[]byte(fmt.Sprintf("%s-%d", tag, b))}); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		// A majority must track the chain promptly even mid-fault;
		// eclipsed nodes catch up below once redial heals them.
		waitFor(t, "majority propagation", 15*time.Second, func() bool {
			reached := 0
			for _, n := range nodes {
				if n.Store().Height() >= upto {
					reached++
				}
			}
			return reached >= N-2
		})
	}

	mineAndSpread("wave1", 5, 5)
	for i, n := range nodes {
		if _, err := n.PerigeeRound(); err != nil {
			t.Fatalf("node %d round 1: %v", i, err)
		}
	}
	mineAndSpread("wave2", 3, 8)
	for i, n := range nodes {
		if _, err := n.PerigeeRound(); err != nil {
			t.Fatalf("node %d round 2: %v", i, err)
		}
	}

	// The plan must have actually bitten.
	injected := 0
	for _, n := range nodes {
		r := n.Resilience()
		injected += r.FaultedConns + r.FaultedDials
	}
	if injected == 0 {
		t.Fatal("25% fault plan injected nothing across 8 nodes")
	}
	// Out-degree recovers: rounds floor their dial target at OutDegree
	// and the maintenance loop redials between rounds.
	waitFor(t, "outbound degree recovery", 10*time.Second, func() bool {
		for _, n := range nodes {
			if n.OutboundCount() < 2 {
				return false
			}
		}
		return true
	})
	// Eventually every node holds the chain.
	waitFor(t, "full catch-up", 15*time.Second, func() bool {
		for _, n := range nodes {
			if n.Store().Height() < 8 {
				return false
			}
		}
		return true
	})

	// Drain: stop everything and verify no goroutine outlives its node.
	for _, n := range nodes {
		n.Stop()
	}
	waitFor(t, "goroutines reclaimed", 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= base+2
	})
}

// TestChaosVerdictReplayDeterminism: two nodes built from the same seed,
// consulting the same fault plan through the real Connect path, receive
// bit-for-bit identical verdict streams. Keep/drop decisions are a pure
// function of observations and the seeded selector stream (covered by
// the sim/live parity tests), so identical fault verdicts are the
// missing half of "same plan + same seed => same decisions".
func TestChaosVerdictReplayDeterminism(t *testing.T) {
	run := func() []string {
		rec := faults.NewRecorder(faults.Mixed(42, 0.5))
		cfg := Config{Seed: 777, Genesis: testGenesis(), Faults: rec}
		n, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		// Ports from the discard range: real dials fail fast, injected
		// dial failures never reach the network at all.
		addrs := []string{"127.0.0.1:9", "127.0.0.1:11", "127.0.0.1:13"}
		for attempt := 0; attempt < 3; attempt++ {
			for _, a := range addrs {
				_ = n.Connect(a)
			}
		}
		return rec.Log()
	}
	first, second := run(), run()
	if len(first) != 9 {
		t.Fatalf("recorded %d verdicts, want 9", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("verdict %d diverged between identical runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestChaosDialFailuresFeedBackoff: injected dial failures are recorded
// against the address book exactly like real ones — failures accumulate
// and the address backs off instead of hot-looping.
func TestChaosDialFailuresFeedBackoff(t *testing.T) {
	cfg := Config{Seed: 5, Genesis: testGenesis(), Faults: faults.DialFailures(1, 1)}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	addr := "127.0.0.1:9"
	n.book.Add(addr)
	for i := 0; i < 3; i++ {
		if err := n.Connect(addr); err == nil {
			t.Fatal("dial succeeded under a 100% dial-failure plan")
		}
	}
	if got := n.book.fails(addr); got != 3 {
		t.Fatalf("book recorded %d failures, want 3", got)
	}
	if n.book.nextDialIn(addr) <= 0 {
		t.Fatal("no backoff gate after repeated injected failures")
	}
	r := n.Resilience()
	if r.FaultedDials != 3 || r.DialFailures != 3 {
		t.Fatalf("stats = %+v, want 3 faulted dials and 3 recorded failures", r)
	}
}

// TestChaosAbusivePeerBanned: a peer repeatedly sending corrupt frames
// accumulates misbehavior until it is banned; once banned, even a clean
// handshake is refused.
func TestChaosAbusivePeerBanned(t *testing.T) {
	node := startNode(t, 300, nil)
	const abuser = uint64(0xBAD0001)
	garbage := []byte("this is not a perigee frame, not even close......")
	for i := 0; i < 3; i++ {
		conn := rawDial(t, node, abuser)
		if _, err := conn.Write(garbage); err != nil {
			t.Fatal(err)
		}
		// The node charges the violation and disconnects us.
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for {
			if _, err := wire.Read(conn); err != nil {
				break
			}
		}
		waitFor(t, "abusive peer removed", 2*time.Second, func() bool {
			return len(node.Peers()) == 0
		})
	}
	if !node.Book().IDBanned(abuser) {
		t.Fatal("abuser not banned after repeated corrupt frames")
	}
	if got := node.Resilience().Bans; got != 1 {
		t.Fatalf("Bans = %d, want 1", got)
	}
	// A banned identity is refused right after the handshake reveals it.
	conn := rawDial(t, node, abuser)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := wire.Read(conn); err != nil {
			break
		}
	}
	waitFor(t, "banned peer refused", 2*time.Second, func() bool {
		return len(node.Peers()) == 0 && node.Resilience().BannedRefused >= 1
	})
}

// TestChaosIdleStallReclaimed: a silent connection is probed once, then
// disconnected — the machinery that reclaims stalled and half-open
// connections.
func TestChaosIdleStallReclaimed(t *testing.T) {
	node := startNode(t, 301, func(c *Config) {
		c.ReadIdleTimeout = 150 * time.Millisecond
	})
	conn := rawDial(t, node, 0xD1E)
	// First idle interval: the node probes instead of dropping us.
	readUntil[*wire.Ping](t, conn)
	if len(node.Peers()) != 1 {
		t.Fatal("peer dropped at first idle interval instead of probed")
	}
	// Stay silent through the second interval: now we must be dropped.
	waitFor(t, "idle peer dropped", 2*time.Second, func() bool {
		return len(node.Peers()) == 0
	})
	_ = conn.Close()
}

// TestPeerSlowConsumerDisconnects: a peer whose queue stays full for the
// configured budget of consecutive sends is cut off, and the slow-close
// hook fires exactly once.
func TestPeerSlowConsumerDisconnects(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := newPeer(1, Inbound, a, "", 0)
	p.maxFullDrops = 3
	slow := 0
	p.onSlowClose = func() { slow++ }
	// No writeLoop: the queue fills and stays full.
	for i := 0; i < peerSendBuffer; i++ {
		if !p.send(&wire.GetAddr{}) {
			t.Fatalf("send %d failed with queue not yet full", i)
		}
	}
	for i := 0; i < 3; i++ {
		p.send(&wire.GetAddr{})
	}
	select {
	case <-p.done:
	default:
		t.Fatal("peer not closed after exhausting its full-queue budget")
	}
	if slow != 1 {
		t.Fatalf("slow-close hook fired %d times, want 1", slow)
	}
	if p.send(&wire.GetAddr{}) {
		t.Fatal("send succeeded on a closed peer")
	}
}

// TestPeerDropNthFault: the send-path half of a Drop verdict silently
// discards every Nth message while reporting success.
func TestPeerDropNthFault(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	p := newPeer(1, Outbound, a, "", 0)
	p.dropNth = 2
	for i := 0; i < 6; i++ {
		if !p.send(&wire.Ping{Nonce: uint64(i)}) {
			t.Fatalf("send %d reported failure", i)
		}
	}
	if got := len(p.sendCh); got != 3 {
		t.Fatalf("%d messages queued, want 3 (every 2nd dropped)", got)
	}
}

// TestChaosSubsetConformance is the paper-facing chaos conformance test:
// a hub starting from an all-slow outbound set, under a 20% mixed fault
// plan, must improve its p90 block-delivery latency round-over-round as
// Subset selection evicts slow (and stalled) peers in favor of fast
// ones. Latency structure comes from injected send delays on the slow
// relays, so the separation (~100ms per hop) dwarfs scheduler noise.
func TestChaosSubsetConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos conformance is a long test")
	}
	miner := startNode(t, 400, nil)
	var fast, slow []*Node
	for i := 0; i < 3; i++ {
		fast = append(fast, startNode(t, uint64(410+i), nil))
		slow = append(slow, startNode(t, uint64(420+i), func(c *Config) {
			c.PeerDelay = func(uint64) time.Duration { return 100 * time.Millisecond }
		}))
	}
	relays := append(append([]*Node{}, fast...), slow...)
	for _, r := range relays {
		if err := miner.Connect(r.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	hub := chaosNode(t, 430, faults.Mixed(7, 0.2), func(c *Config) {
		c.OutDegree = 3
		c.Selector = subsetExplore1()
		c.ReadIdleTimeout = 250 * time.Millisecond
	})
	for _, r := range relays {
		hub.book.Add(r.Addr())
	}
	// Force the worst initial topology: outbound all-slow. Injected dial
	// failures may refuse some attempts; retry — backoff is bookkeeping,
	// not a Connect gate.
	for attempt := 0; attempt < 30 && hub.OutboundCount() < 3; attempt++ {
		for _, s := range slow {
			_ = hub.Connect(s.Addr())
		}
	}
	if hub.OutboundCount() < 3 {
		t.Fatalf("could not establish initial slow topology: outbound %d", hub.OutboundCount())
	}

	p90s := make([]time.Duration, 0, 3)
	for round := 1; round <= 3; round++ {
		lats := make([]time.Duration, 0, 6)
		for b := 0; b < 6; b++ {
			start := time.Now()
			blk, err := miner.MineBlock([][]byte{[]byte(fmt.Sprintf("r%d-b%d", round, b))})
			if err != nil {
				t.Fatal(err)
			}
			h := blk.Header.Hash()
			arrived := false
			for time.Since(start) < 10*time.Second {
				if hub.Store().Has(chain.Hash(h)) {
					arrived = true
					break
				}
				time.Sleep(time.Millisecond)
			}
			if !arrived {
				t.Fatalf("round %d block %d never reached the hub", round, b)
			}
			lats = append(lats, time.Since(start))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p90s = append(p90s, lats[len(lats)-1])
		if _, err := hub.PerigeeRound(); err != nil {
			t.Fatal(err)
		}
		// Let exploration dials and redial recovery settle.
		waitFor(t, "post-round outbound", 5*time.Second, func() bool {
			return hub.OutboundCount() >= 2
		})
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("p90 delivery latency by round: %v", p90s)
	if p90s[len(p90s)-1] >= p90s[0] {
		t.Fatalf("p90 did not improve under faults: first %v, last %v", p90s[0], p90s[len(p90s)-1])
	}
}
