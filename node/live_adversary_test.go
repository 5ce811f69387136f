package node

import (
	"net"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// TestSilentRelayCoversUnstashedOrphans: adversarial relay behavior must
// apply to received blocks accepted out of order. A silent node that
// stores a child as an orphan and later unstashes it when the parent
// arrives is still relaying a *received* block — it must stay silent,
// exactly as it does for blocks accepted in order.
func TestSilentRelayCoversUnstashedOrphans(t *testing.T) {
	adv := startNode(t, 1, func(c *config) { c.SilentRelay = true })
	victim := startNode(t, 2, nil)
	if err := victim.Connect(adv.Addr()); err != nil {
		t.Fatal(err)
	}

	genesis := testGenesis()
	parent := chain.NewBlock(genesis, [][]byte{[]byte("p")}, time.Unix(1700000000, 0), 1)
	child := chain.NewBlock(parent, [][]byte{[]byte("c")}, time.Unix(1700000001, 0), 2)

	// Out-of-order arrival from the network (from == nil, mined == false —
	// the unstash path): child first (stashed as orphan), then parent
	// (accepting it re-accepts the child).
	adv.acceptBlock(nil, child, child.Header.Hash(), false)
	adv.acceptBlock(nil, parent, parent.Header.Hash(), false)
	waitFor(t, "both blocks stored at adversary", 2*time.Second, func() bool {
		return adv.store.Has(parent.Header.Hash()) && adv.store.Has(child.Header.Hash())
	})

	time.Sleep(200 * time.Millisecond)
	if victim.store.Has(parent.Header.Hash()) || victim.store.Has(child.Header.Hash()) {
		t.Fatal("silent adversary relayed a received block through the orphan-unstash path")
	}

	// The node's own blocks are still announced immediately.
	mined, err := adv.mineBlock([][]byte{[]byte("own")})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "self-mined block at victim", 2*time.Second, func() bool {
		return victim.store.Has(mined.Header.Hash())
	})
}

// invsBeforePong drains the node's connect-time traffic on a raw
// connection: once the node's GETADDR arrives (setupPeer queues its tip
// announcement right behind it) a PING goes out, and every hash announced
// before the answering PONG is returned. The send queue is FIFO, so an INV
// queued on connect cannot arrive after that PONG.
func invsBeforePong(t *testing.T, conn net.Conn) map[chain.Hash]bool {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	seen := make(map[chain.Hash]bool)
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		switch msg := m.(type) {
		case *wire.GetAddr:
			if err := wire.Write(conn, &wire.Ping{Nonce: 9}); err != nil {
				t.Fatal(err)
			}
		case *wire.Inv:
			for _, h := range msg.Hashes {
				seen[h] = true
			}
		case *wire.Pong:
			return seen
		}
	}
}

// TestSilentRelayTipAnnounce: a silent relay must not advertise a block it
// merely received to a peer that connects afterwards — the connect-time tip
// announcement is a relay like any other. A tip it mined itself is still
// announced, and it still serves the received parent of its own block.
func TestSilentRelayTipAnnounce(t *testing.T) {
	adv := startNode(t, 3, func(c *config) { c.SilentRelay = true })
	relayed := chain.NewBlock(testGenesis(), [][]byte{[]byte("relayed")}, time.Unix(1700000000, 0), 1)
	adv.acceptBlock(nil, relayed, relayed.Header.Hash(), false)
	if !adv.store.Has(relayed.Header.Hash()) {
		t.Fatal("adversary did not store the received block")
	}
	if invsBeforePong(t, rawDial(t, adv, 0xBEE1))[relayed.Header.Hash()] {
		t.Fatal("silent relay announced a received block as its tip on connect")
	}

	mined, err := adv.mineBlock([][]byte{[]byte("own")})
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, adv, 0xBEE2)
	if !invsBeforePong(t, conn)[mined.Header.Hash()] {
		t.Fatal("silent node did not announce its self-mined tip on connect")
	}
	if err := wire.Write(conn, &wire.GetData{Hashes: []chain.Hash{relayed.Header.Hash()}}); err != nil {
		t.Fatal(err)
	}
	if got := readUntil[*wire.Block](t, conn); got.Block.Header.Hash() != relayed.Header.Hash() {
		t.Fatalf("GETDATA for the parent of a self-mined block served %s", got.Block.Header.Hash())
	}
}

// TestRelayDelayTipAnnounce: a withholding relay must not show a block it
// received to a peer that connects inside the withhold window — the
// connect-time tip announcement would relay it early. The pending relay
// still reaches that peer, once the window has passed.
func TestRelayDelayTipAnnounce(t *testing.T) {
	const withhold = 2 * time.Second
	adv := startNode(t, 4, func(c *config) { c.RelayDelay = withhold })
	blk := chain.NewBlock(testGenesis(), [][]byte{[]byte("withheld")}, time.Unix(1700000000, 0), 1)
	h := blk.Header.Hash()
	accepted := time.Now()
	adv.acceptBlock(nil, blk, h, false)
	if adv.store.Tip().Header.Hash() != h {
		t.Fatal("the received block is not the adversary's tip")
	}
	conn := rawDial(t, adv, 0xBEE3)
	if invsBeforePong(t, conn)[h] {
		t.Fatal("withholding relay announced a received block on connect inside the window")
	}
	_ = conn.SetReadDeadline(accepted.Add(withhold + 2*time.Second))
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("withheld block never announced to the new peer: %v", err)
		}
		if inv, ok := m.(*wire.Inv); ok && slices.Contains(inv.Hashes, h) {
			break
		}
	}
	if early := withhold - time.Since(accepted); early > 0 {
		t.Fatalf("withheld block announced %v before the window closed", early)
	}
}

// A withholding relay keeps a stashed block's pending-relay mark while the
// block waits for its parent, and gives it back when the unstash drops the
// block: a dropped block never relays, so its mark would never clear.
func TestRelayDelayMarkOfDroppedOrphan(t *testing.T) {
	adv := startNode(t, 5, func(c *config) { c.RelayDelay = time.Hour })
	at := time.Unix(1700000000, 0)
	parent := chain.NewBlock(testGenesis(), nil, at, 1)
	bad := chain.NewBlock(parent, nil, at, 2)
	bad.Header.Height = 7
	marks := func() int {
		adv.obsMu.Lock()
		defer adv.obsMu.Unlock()
		return adv.withheld[bad.Header.Hash()]
	}
	adv.acceptBlock(nil, bad, bad.Header.Hash(), false)
	if got := marks(); got != 1 {
		t.Fatalf("stashed block holds %d pending-relay marks, want 1", got)
	}
	adv.acceptBlock(nil, parent, parent.Header.Hash(), false)
	if adv.store.Has(bad.Header.Hash()) || adv.store.OrphanCount() != 0 {
		t.Fatal("the parent did not drop its stashed child at the wrong height")
	}
	if got := marks(); got != 0 {
		t.Fatalf("dropped block still holds %d pending-relay marks", got)
	}
}
