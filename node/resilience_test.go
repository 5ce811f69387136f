package node

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/perigee-net/perigee"
)

// TestResilienceOptionsEndToEnd drives the public resilience surface: a
// small cluster under perigee.MixedFaults keeps gossiping, the fault
// counters are visible through Resilience, and a node with a 100%
// dial-failure plan records every failure.
func TestResilienceOptionsEndToEnd(t *testing.T) {
	plan := perigee.MixedFaults(17, 0.3)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, startNew(t,
			WithSeed(uint64(100+i)),
			WithFaults(plan),
			WithIdleTimeout(300*time.Millisecond),
			WithRedialInterval(100*time.Millisecond),
		))
	}
	for i, n := range nodes {
		n.AddAddresses(nodes[(i+1)%4].Addr(), nodes[(i+2)%4].Addr(), nodes[(i+3)%4].Addr())
		for k := 1; k <= 2; k++ {
			_ = n.Connect(nodes[(i+k)%4].Addr()) // injected failures expected
		}
	}
	id, err := nodes[0].MineBlock([][]byte{[]byte("chaos")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block reaches all nodes under faults", 10*time.Second, func() bool {
		for _, n := range nodes {
			if !n.HasBlock(id) {
				return false
			}
		}
		return true
	})
	injected := 0
	for _, n := range nodes {
		r := n.Resilience()
		injected += r.FaultedConns + r.FaultedDials
	}
	if injected == 0 {
		t.Fatal("30% fault plan injected nothing across 4 nodes")
	}
}

// TestDialFaultsRecorded: a 100% dial-failure plan surfaces through the
// public API as failed Connects and resilience counters.
func TestDialFaultsRecorded(t *testing.T) {
	target := startNew(t, WithSeed(200))
	n, err := New(
		WithNetwork("node-test"),
		WithSeed(201),
		WithFaults(perigee.DialFaults(3, 1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	for i := 0; i < 3; i++ {
		if err := n.Connect(target.Addr()); err == nil {
			t.Fatal("dial succeeded under a 100% dial-failure plan")
		}
	}
	r := n.Resilience()
	if r.FaultedDials != 3 || r.DialFailures != 3 {
		t.Fatalf("stats %+v, want 3 faulted dials and 3 recorded failures", r)
	}
}

// TestAddrBookPersistsAcrossRestart: WithAddrBookPath carries addresses
// from one node lifetime to the next.
func TestAddrBookPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "book.json")
	peer := startNew(t, WithSeed(210))
	first, err := New(WithNetwork("node-test"), WithSeed(211), WithAddrBookPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	first.AddAddresses(peer.Addr())
	first.Stop()

	second, err := New(WithNetwork("node-test"), WithSeed(211), WithAddrBookPath(path))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(second.Stop)
	if second.KnownAddresses() != 1 {
		t.Fatalf("restarted node knows %d addresses, want 1", second.KnownAddresses())
	}
	if err := second.Connect(peer.Addr()); err != nil {
		t.Fatalf("dialing persisted address: %v", err)
	}
}

// TestBannedPeersSurface: ErrStopped still round-trips and BannedPeers
// starts empty — the public view of the blacklist.
func TestBannedPeersSurface(t *testing.T) {
	n := startNew(t, WithSeed(220))
	if got := n.BannedPeers(); len(got) != 0 {
		t.Fatalf("fresh node has banned peers: %v", got)
	}
	n.Stop()
	if err := n.Connect("127.0.0.1:9"); !errors.Is(err, ErrStopped) {
		t.Fatalf("Connect on stopped node: %v, want ErrStopped", err)
	}
}
