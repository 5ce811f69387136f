package node

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// mineChain mines count blocks at n, which should have no peers yet.
func mineChain(t *testing.T, n *Node, count int) []*chain.Block {
	t.Helper()
	blocks := make([]*chain.Block, count)
	for i := range blocks {
		b, err := n.mineBlock([][]byte{fmt.Appendf(nil, "block-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = b
	}
	return blocks
}

// drain reads conn until it closes, reporting each PONG: a raw peer that
// never reads would be shed as a slow consumer once the node has queued
// enough replies for it.
func drain(t *testing.T, conn net.Conn) <-chan struct{} {
	t.Helper()
	pongs := make(chan struct{}, 8) // more than the pings any caller sends
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := wire.Read(conn)
			if err != nil {
				return
			}
			if _, ok := m.(*wire.Pong); ok {
				pongs <- struct{}{}
			}
		}
	}()
	t.Cleanup(func() {
		_ = conn.Close()
		<-done
	})
	return pongs
}

// pingPong returns once the node has handled everything written to conn so
// far: its read loop takes one message at a time, in order.
func pingPong(t *testing.T, conn net.Conn, pongs <-chan struct{}) {
	t.Helper()
	if err := wire.Write(conn, &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-pongs:
	case <-time.After(20 * time.Second):
		t.Fatal("no pong")
	}
}

// A peer can send any number of valid blocks whose parent never comes. The
// stash holds chain.MaxOrphans of them and refuses the rest without
// charging the peer; the node goes on accepting blocks that connect, and
// the stash empties when the parent does arrive.
func TestOrphanStashIsBounded(t *testing.T) {
	const peerID = 0x0FA0
	n := startNode(t, 7801, nil)
	conn := rawDial(t, n, peerID)
	pongs := drain(t, conn)

	at := time.Unix(1700000000, 0)
	ghost := chain.NewBlock(testGenesis(), nil, at, 1)
	children := make([]chain.Hash, 2*chain.MaxOrphans)
	for i := range children {
		child := chain.NewBlock(ghost, nil, at, uint64(i))
		children[i] = child.Header.Hash()
		if err := wire.Write(conn, &wire.Block{Block: child}); err != nil {
			t.Fatal(err)
		}
		// The node asks for the parent after each stashed block; stay
		// inside its send queue so those requests are not what sheds us.
		if i%(peerSendBuffer/2) == 0 {
			pingPong(t, conn, pongs)
		}
	}
	pingPong(t, conn, pongs)
	if got := n.store.OrphanCount(); got != chain.MaxOrphans {
		t.Fatalf("stash holds %d blocks, want the cap %d", got, chain.MaxOrphans)
	}
	if score := n.book.score(peerID); score != 0 {
		t.Fatalf("peer charged %v points for orphans", score)
	}

	honest := chain.NewBlock(testGenesis(), [][]byte{[]byte("honest")}, at, 2)
	if err := wire.Write(conn, &wire.Block{Block: honest}); err != nil {
		t.Fatal(err)
	}
	pingPong(t, conn, pongs)
	if !n.store.Has(honest.Header.Hash()) {
		t.Fatal("a full stash kept the node from accepting a block that connects")
	}

	// The parent arrives once the peer has gone: unstashing announces every
	// child at once, more than one peer's send queue takes.
	_ = conn.Close()
	waitFor(t, "peer gone", 2*time.Second, func() bool { return len(n.Peers()) == 0 })
	n.acceptBlock(nil, ghost, ghost.Header.Hash(), false)
	if got := n.store.OrphanCount(); got != 0 {
		t.Fatalf("%d blocks still stashed after their parent arrived", got)
	}
	connected := 0
	for _, h := range children {
		if n.store.Has(h) {
			connected++
		}
	}
	if !n.store.Has(ghost.Header.Hash()) || connected != chain.MaxOrphans {
		t.Fatalf("store holds the parent and %d of its children, want the %d stashed", connected, chain.MaxOrphans)
	}
}

// A peer that sends the same orphan again is asked for its parent again,
// but the orphan is stashed once: one block cannot fill the stash.
func TestRedeliveredOrphanStashedOnce(t *testing.T) {
	const sends = 5
	n := startNode(t, 7803, nil)
	conn := rawDial(t, n, 0x0FA1)
	at := time.Unix(1700000000, 0)
	parent := chain.NewBlock(testGenesis(), nil, at, 1)
	orphan := chain.NewBlock(parent, nil, at, 2)
	for i := 0; i < sends; i++ {
		if err := wire.Write(conn, &wire.Block{Block: orphan}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.Write(conn, &wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	// The read loop handles messages in order, so every parent request is
	// queued before the pong.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	asked := 0
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		if gd, ok := m.(*wire.GetData); ok && slices.Contains(gd.Hashes, parent.Header.Hash()) {
			asked++
		}
		if _, ok := m.(*wire.Pong); ok {
			break
		}
	}
	if asked != sends {
		t.Fatalf("parent requested %d times for %d deliveries", asked, sends)
	}
	if got := n.store.OrphanCount(); got != 1 {
		t.Fatalf("stash holds %d copies of one orphan, want 1", got)
	}
}

// A node that has dropped old bodies still syncs a peer that is inside the
// window: the joiner walks back from the announced tip one GETDATA at a time.
func TestJoinerInsideBodyWindowCatchesUp(t *testing.T) {
	const behind = 50
	a := startNode(t, 7811, nil)
	blocks := mineChain(t, a, chain.BodyWindow+100)
	if a.store.Get(blocks[0].Header.Hash()) != nil {
		t.Fatal("the serving node still holds its oldest body: the test no longer covers a pruned store")
	}
	b := startNode(t, 7812, nil)
	for _, blk := range blocks[:len(blocks)-behind] {
		if _, err := b.store.Add(blk, blk.Header.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "joiner at the serving node's height", 20*time.Second, func() bool {
		return b.store.Height() == uint64(len(blocks))
	})
	for _, blk := range blocks[len(blocks)-behind:] {
		if !b.store.Has(blk.Header.Hash()) {
			t.Fatalf("joiner is missing block %d", blk.Header.Height)
		}
	}
}

// A GETDATA for a block whose body has aged out is answered like one for an
// unknown hash — with nothing: no charge, no disconnect, and the node keeps
// announcing and serving new blocks to every peer.
func TestGetDataForAgedOutBlockIsSkipped(t *testing.T) {
	const askerID = 0xA6ED
	n := startNode(t, 7821, nil)
	blocks := mineChain(t, n, chain.BodyWindow+100)
	asker, other := rawDial(t, n, askerID), rawDial(t, n, 0x07E4)

	aged, recent := blocks[0].Header.Hash(), blocks[len(blocks)-2].Header.Hash()
	if err := wire.Write(asker, &wire.GetData{Hashes: []chain.Hash{aged, recent}}); err != nil {
		t.Fatal(err)
	}
	if got := readUntil[*wire.Block](t, asker).Block.Header.Hash(); got != recent {
		t.Fatalf("GETDATA for an aged-out and a recent block served %s first, want only the recent one", got)
	}
	if score := n.book.score(askerID); score != 0 {
		t.Fatalf("asker charged %v points", score)
	}

	mined, err := n.mineBlock([][]byte{[]byte("after")})
	if err != nil {
		t.Fatal(err)
	}
	h := mined.Header.Hash()
	for _, conn := range []net.Conn{asker, other} {
		for announced := false; !announced; {
			for _, got := range readUntil[*wire.Inv](t, conn).Hashes {
				announced = announced || got == h
			}
		}
		if err := wire.Write(conn, &wire.GetData{Hashes: []chain.Hash{h}}); err != nil {
			t.Fatal(err)
		}
		if got := readUntil[*wire.Block](t, conn).Block.Header.Hash(); got != h {
			t.Fatalf("served %s for the new block %s", got, h)
		}
	}
}
