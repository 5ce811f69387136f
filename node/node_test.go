package node

import (
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee"
)

// startNew builds a listening node through New and starts it, registering
// cleanup.
func startNew(t *testing.T, opts ...Option) *Node {
	t.Helper()
	n, err := New(append([]Option{WithListen("127.0.0.1:0"), WithNetwork("node-test")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	return n
}

// TestQuickstartTwoNodes is the README's live quickstart: two nodes on
// localhost connect, gossip a mined block, and run a Perigee round —
// entirely through the public API.
func TestQuickstartTwoNodes(t *testing.T) {
	a := startNew(t, WithSeed(1))
	b := startNew(t, WithSeed(2))
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	id, err := a.MineBlock([][]byte{[]byte("tx")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "block at b", 2*time.Second, func() bool { return b.HasBlock(id) })
	if a.Height() != 1 || b.Height() != 1 {
		t.Fatalf("heights %d/%d, want 1/1", a.Height(), b.Height())
	}
	peers := a.Peers()
	if len(peers) != 1 || peers[0].ID != b.ID() || !peers[0].Outbound {
		t.Fatalf("peer list wrong: %+v", peers)
	}
	stats, err := a.Round()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Summary.Round != 1 {
		t.Fatalf("round index %d, want 1", stats.Summary.Round)
	}
	if a.ObservationWindow() != 0 {
		t.Fatal("round did not reset the observation window")
	}
}

// dropSlowest is a custom Selector written purely against the public
// perigee API: it drops the single worst neighbor by median offset. The
// same type runs against the simulator in the customselector example.
type dropSlowest struct{}

func (dropSlowest) SelectNeighbors(view perigee.NeighborView) (perigee.Decision, error) {
	obs := view.Observations
	k := len(obs.Neighbors)
	if k < 2 {
		keep := make([]int, k)
		for i := range keep {
			keep[i] = i
		}
		return perigee.Decision{Keep: keep, Dial: view.OutDegree - k}, nil
	}
	worst, worstScore := -1, time.Duration(-1)
	for i := 0; i < k; i++ {
		var finite []time.Duration
		for _, row := range obs.Offsets {
			if row[i] != perigee.Censored {
				finite = append(finite, row[i])
			}
		}
		var score time.Duration
		if len(finite) == 0 {
			score = perigee.Censored
		} else {
			for _, d := range finite {
				score += d
			}
			score /= time.Duration(len(finite))
		}
		if score > worstScore {
			worst, worstScore = i, score
		}
	}
	var keep []int
	for i := 0; i < k; i++ {
		if i != worst {
			keep = append(keep, i)
		}
	}
	return perigee.Decision{Keep: keep, Drop: []int{worst}, Dial: 1}, nil
}

// TestCustomSelectorLiveTCP is the acceptance check on the live side: a
// custom Selector implemented outside the library drives a real TCP node
// via node.WithSelector, evicting the artificially slow relay, and the
// observer pipeline reports the same RoundStats shape the simulator
// emits.
func TestCustomSelectorLiveTCP(t *testing.T) {
	miner := startNew(t, WithSeed(10))
	fast := startNew(t, WithSeed(11))
	slow := startNew(t, WithSeed(12),
		WithLatencyInjection(func(uint64) time.Duration { return 120 * time.Millisecond }))

	var mu sync.Mutex
	var observed []perigee.RoundStats
	hub := startNew(t, WithSeed(13),
		WithOutDegree(2),
		WithSelector(dropSlowest{}),
		WithObserver(ObserverFunc(func(n *Node, s perigee.RoundStats) {
			mu.Lock()
			observed = append(observed, s)
			mu.Unlock()
		})),
	)
	for _, relay := range []*Node{fast, slow} {
		if err := miner.Connect(relay.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := hub.Connect(relay.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := miner.MineBlock([][]byte{{byte(i)}}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "hub receives block", 3*time.Second, func() bool {
			return hub.Height() >= uint64(i+1)
		})
	}
	// Let the slow relay's delayed announcements land so the observation
	// matrix is complete.
	time.Sleep(250 * time.Millisecond)

	stats, err := hub.Round()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Summary.ConnectionsDropped != 1 {
		t.Fatalf("custom selector dropped %d peers, want 1", stats.Summary.ConnectionsDropped)
	}
	if len(stats.DroppedEdges) != 1 || stats.DroppedEdges[0][1] != int(slow.ID()) {
		t.Fatalf("dropped edges %v, want the slow relay %d", stats.DroppedEdges, int(slow.ID()))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(observed) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(observed))
	}
	if observed[0].Summary != stats.Summary {
		t.Fatalf("observer summary %+v differs from Round result %+v", observed[0].Summary, stats.Summary)
	}
}

// TestAutoRound: WithRoundBlocks makes the node adapt on its own once the
// observation window fills.
func TestAutoRound(t *testing.T) {
	miner := startNew(t, WithSeed(20))
	relay := startNew(t, WithSeed(21))

	rounds := make(chan perigee.RoundStats, 4)
	hub := startNew(t, WithSeed(22),
		WithRoundBlocks(3),
		WithObserver(ObserverFunc(func(n *Node, s perigee.RoundStats) { rounds <- s })),
	)
	if err := miner.Connect(relay.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := hub.Connect(relay.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := miner.MineBlock(nil); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case s := <-rounds:
		if s.Summary.Round != 1 {
			t.Fatalf("automatic round index %d, want 1", s.Summary.Round)
		}
		if s.Summary.Blocks < 3 {
			t.Fatalf("automatic round scored %d blocks, want >= 3", s.Summary.Blocks)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("automatic round never fired")
	}
}

// TestMiner: WithMiner produces blocks on its own schedule.
func TestMiner(t *testing.T) {
	miner := startNew(t, WithSeed(30), WithMiner(10*time.Millisecond))
	peer := startNew(t, WithSeed(31))
	if err := peer.Connect(miner.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "mined blocks to propagate", 5*time.Second, func() bool {
		return peer.Height() >= 3
	})
}

func TestOptionValidation(t *testing.T) {
	bad := [][]Option{
		{WithOutDegree(0)},
		{WithMaxInbound(-1)},
		{WithNetwork("")},
		{WithNodeID(0)},
		{WithRoundBlocks(0)},
		{WithMiner(0)},
		{WithSelector(nil)},
		{WithSelector(perigee.SubsetSelector(-1, 0.9))},
		{WithSelector(perigee.VanillaSelector(2, 0))},
		{WithSelector(perigee.UCBSelector(1.5, 0))},
		{WithFaults(nil)},
		{WithAddrBookPath("")},
		{WithIdleTimeout(0)},
		{WithRedialInterval(-time.Second)},
		{WithDiscovery(0, 0)},
		{WithDiscovery(time.Second, -1)},
		{WithFeelerInterval(-time.Second)},
		{nil},
	}
	for i, opts := range bad {
		if _, err := New(opts...); err == nil {
			t.Fatalf("invalid option set %d accepted", i)
		}
	}
	// A zero explore count is honored, not clobbered: the node freezes
	// its topology (no drops possible with retain == out-degree).
	if _, err := New(WithSelector(perigee.SubsetSelector(0, 0.9))); err != nil {
		t.Fatalf("explicit zero explore rejected: %v", err)
	}
}

// TestDefaultSeedsAreDistinct: nodes built without WithSeed must get
// distinct identities, or they could never interconnect.
func TestDefaultSeedsAreDistinct(t *testing.T) {
	a := startNew(t)
	b := startNew(t)
	if a.ID() == b.ID() {
		t.Fatalf("two default nodes share identity %016x", a.ID())
	}
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatalf("default-configured nodes cannot connect: %v", err)
	}
}
