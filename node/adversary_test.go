package node

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee"
)

// TestAdversarySilentRelayLive runs a withholding (never-forward) node as
// the middle hop of a three-node line: the block reaches the adversary
// but never the node behind it — the live form of the simulator's Silent
// semantics, driven by the same strategy value.
func TestAdversarySilentRelayLive(t *testing.T) {
	miner := startNew(t, WithSeed(1))
	adv := startNew(t, WithSeed(2),
		WithAdversary(perigee.WithholdingRelayAdversary(0, 1))) // neverFrac 1: silent
	victim := startNew(t, WithSeed(3))

	if err := adv.Connect(miner.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := victim.Connect(adv.Addr()); err != nil {
		t.Fatal(err)
	}
	id, err := miner.MineBlock([][]byte{[]byte("tx")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block at adversary", 2*time.Second, func() bool { return adv.HasBlock(id) })
	time.Sleep(300 * time.Millisecond)
	if victim.HasBlock(id) {
		t.Fatal("silent adversary relayed the block")
	}

	// A silent source still announces its own blocks.
	own, err := adv.MineBlock([][]byte{[]byte("own")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "adversary's own block at victim", 2*time.Second, func() bool { return victim.HasBlock(own) })
}

// TestAdversaryWithholdingDelayLive runs a delayed-forwarding node in the
// middle of the line: the block arrives behind it, but only after the
// withholding delay.
func TestAdversaryWithholdingDelayLive(t *testing.T) {
	const withhold = 600 * time.Millisecond
	miner := startNew(t, WithSeed(4))
	adv := startNew(t, WithSeed(5),
		WithAdversary(perigee.WithholdingRelayAdversary(withhold, 0)))
	victim := startNew(t, WithSeed(6))

	if err := adv.Connect(miner.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := victim.Connect(adv.Addr()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	id, err := miner.MineBlock([][]byte{[]byte("tx")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block at adversary", 2*time.Second, func() bool { return adv.HasBlock(id) })
	if victim.HasBlock(id) && time.Since(start) < withhold/2 {
		t.Fatal("withheld block relayed too early")
	}
	waitFor(t, "withheld block at victim", 5*time.Second, func() bool { return victim.HasBlock(id) })
	if elapsed := time.Since(start); elapsed < withhold {
		t.Fatalf("block arrived after %v, before the %v withhold", elapsed, withhold)
	}
}

// TestAdversaryFrozenSkipsRounds: a frozen (sybil-flood) identity reports
// rounds but never drops or dials.
func TestAdversaryFrozenSkipsRounds(t *testing.T) {
	adv := startNew(t, WithSeed(7),
		WithAdversary(perigee.SybilFloodAdversary(4)))
	peer := startNew(t, WithSeed(8))
	if err := adv.Connect(peer.Addr()); err != nil {
		t.Fatal(err)
	}
	stats, err := adv.Round()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Summary.ConnectionsDropped != 0 || stats.Summary.ConnectionsAdded != 0 {
		t.Fatalf("frozen node churned connections: %+v", stats.Summary)
	}
	if adv.OutboundCount() != 1 {
		t.Fatalf("outbound count %d, want 1", adv.OutboundCount())
	}
}

// TestAdversaryRejectsLatencyStrategies: strategies that need a
// tamperable latency model cannot bind to a live node.
func TestAdversaryRejectsLatencyStrategies(t *testing.T) {
	_, err := New(WithAdversary(perigee.RegionalPartitionAdversary(2, 1, 4)))
	if err == nil {
		t.Fatal("partition strategy bound to a live node")
	}
}
