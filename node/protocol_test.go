package node

import (
	"net"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// rawDial connects to a node with a plain TCP socket and completes the
// handshake manually, returning the connection for protocol-level tests.
func rawDial(t *testing.T, target *Node, nodeID uint64) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", target.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	local := &wire.Version{Protocol: wire.ProtocolVersion, NodeID: nodeID, Nonce: 1}
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

// readUntil reads messages until one of type want arrives, skipping
// other traffic (GetAddr etc.).
func readUntil[T wire.Message](t *testing.T, conn net.Conn) T {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		if typed, ok := m.(T); ok {
			return typed
		}
	}
}

func TestPingPong(t *testing.T) {
	node := startNode(t, 100, nil)
	conn := rawDial(t, node, 0xABCD)
	if err := wire.Write(conn, &wire.Ping{Nonce: 77}); err != nil {
		t.Fatal(err)
	}
	pong := readUntil[*wire.Pong](t, conn)
	if pong.Nonce != 77 {
		t.Fatalf("pong nonce %d, want 77", pong.Nonce)
	}
}

func TestGetDataServesBlocks(t *testing.T) {
	node := startNode(t, 101, nil)
	blk, err := node.mineBlock([][]byte{[]byte("served")})
	if err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, node, 0xBEEF)
	if err := wire.Write(conn, &wire.GetData{Hashes: []chain.Hash{blk.Header.Hash()}}); err != nil {
		t.Fatal(err)
	}
	got := readUntil[*wire.Block](t, conn)
	if got.Block.Header.Hash() != blk.Header.Hash() {
		t.Fatal("served wrong block")
	}
}

func TestInvTriggersGetData(t *testing.T) {
	node := startNode(t, 102, nil)
	conn := rawDial(t, node, 0xCAFE)
	fake := chain.Hash{1, 2, 3}
	if err := wire.Write(conn, &wire.Inv{Hashes: []chain.Hash{fake}}); err != nil {
		t.Fatal(err)
	}
	gd := readUntil[*wire.GetData](t, conn)
	if len(gd.Hashes) != 1 || gd.Hashes[0] != fake {
		t.Fatalf("getdata %v, want the announced hash", gd.Hashes)
	}
	// Announcing the same unknown hash again immediately must not trigger
	// a duplicate request (2s request de-dup window).
	if err := wire.Write(conn, &wire.Inv{Hashes: []chain.Hash{fake}}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, &wire.Ping{Nonce: 9}); err != nil {
		t.Fatal(err)
	}
	// The next relevant message must be the pong, not another getdata.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading: %v", err)
		}
		switch msg := m.(type) {
		case *wire.GetData:
			t.Fatal("duplicate getdata for a recently-requested hash")
		case *wire.Pong:
			if msg.Nonce != 9 {
				t.Fatalf("wrong pong nonce %d", msg.Nonce)
			}
			return
		}
	}
}

// TestStaleRequestIsRetried: a GETDATA the announcer never answers is sent
// again once the connection has gone one ReadIdleTimeout silent, together
// with the idle probe, while a hash delivered in the meantime is not asked
// for again.
func TestStaleRequestIsRetried(t *testing.T) {
	const idle = 150 * time.Millisecond
	node := startNode(t, 104, func(c *config) { c.ReadIdleTimeout = idle })
	conn := rawDial(t, node, 0xFE7C)
	lost := chain.Hash{4, 5, 6}
	got := chain.NewBlock(testGenesis(), [][]byte{[]byte("delivered")}, time.Now(), 1)
	if err := wire.Write(conn, &wire.Inv{Hashes: []chain.Hash{lost, got.Header.Hash()}}); err != nil {
		t.Fatal(err)
	}
	if gd := readUntil[*wire.GetData](t, conn); len(gd.Hashes) != 2 {
		t.Fatalf("first getdata asks for %v, want both announced hashes", gd.Hashes)
	}
	// Deliver one of the two and fall silent on the other.
	if err := wire.Write(conn, &wire.Block{Block: got}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * idle))
	defer conn.SetReadDeadline(time.Time{})
	pinged := false
	for {
		m, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("reading (pinged %v): %v", pinged, err)
		}
		switch msg := m.(type) {
		case *wire.Ping:
			pinged = true
			// Answer the probe, so a probe that comes a hair before the
			// request is stale is followed by another rather than a
			// disconnect.
			if err := wire.Write(conn, &wire.Pong{Nonce: msg.Nonce}); err != nil {
				t.Fatal(err)
			}
		case *wire.GetData:
			if !pinged {
				t.Fatalf("getdata %v before any idle probe", msg.Hashes)
			}
			if len(msg.Hashes) != 1 || msg.Hashes[0] != lost {
				t.Fatalf("retried getdata asks for %v, want only the undelivered %v", msg.Hashes, lost)
			}
			if !node.store.Has(got.Header.Hash()) {
				t.Fatal("the delivered block is missing from the store")
			}
			return
		}
	}
}

// TestInvalidBlockRejected: the store's validation is the only one a
// received block gets, and its verdict still reaches the misbehavior score
// — once.
func TestInvalidBlockRejected(t *testing.T) {
	node := startNode(t, 103, nil)
	const sender = uint64(0xD00D)
	conn := rawDial(t, node, sender)
	// A block with a bad Merkle commitment must not enter the store.
	bad := chain.NewBlock(testGenesis(), [][]byte{[]byte("x")}, time.Now(), 1)
	bad.Txs = [][]byte{[]byte("tampered")}
	if err := wire.Write(conn, &wire.Block{Block: bad}); err != nil {
		t.Fatal(err)
	}
	// Liveness check: the node keeps serving after the bad block.
	if err := wire.Write(conn, &wire.Ping{Nonce: 5}); err != nil {
		t.Fatal(err)
	}
	readUntil[*wire.Pong](t, conn)
	if node.store.Has(bad.Header.Hash()) {
		t.Fatal("tampered block accepted")
	}
	// The score decays from the moment it is charged, so allow a point.
	if got := node.book.score(sender); got > pointsInvalidBlock || got < pointsInvalidBlock-1 {
		t.Fatalf("score %v after one invalid block, want %v", got, pointsInvalidBlock)
	}
	// A valid block with an unknown parent is fetched for, not charged.
	orphan := chain.NewBlock(bad, [][]byte{[]byte("y")}, time.Now(), 2)
	if err := wire.Write(conn, &wire.Block{Block: orphan}); err != nil {
		t.Fatal(err)
	}
	readUntil[*wire.GetData](t, conn)
	if got := node.book.score(sender); got > pointsInvalidBlock {
		t.Fatalf("score %v after an orphan, want no new charge", got)
	}
}

func TestPostHandshakeVersionDisconnects(t *testing.T) {
	node := startNode(t, 104, nil)
	conn := rawDial(t, node, 0xF00D)
	waitFor(t, "peer registered", time.Second, func() bool { return len(node.Peers()) == 1 })
	// Sending a second Version after the handshake is a protocol
	// violation; the node must drop the connection.
	if err := wire.Write(conn, &wire.Version{Protocol: 1, NodeID: 0xF00D}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "protocol violator dropped", 2*time.Second, func() bool {
		return len(node.Peers()) == 0
	})
}

func TestGarbageStreamDisconnects(t *testing.T) {
	node := startNode(t, 105, nil)
	conn := rawDial(t, node, 0xFEED)
	waitFor(t, "peer registered", time.Second, func() bool { return len(node.Peers()) == 1 })
	if _, err := conn.Write([]byte("this is not a framed message at all.....")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "garbage sender dropped", 2*time.Second, func() bool {
		return len(node.Peers()) == 0
	})
}

func TestWrongProtocolVersionRejected(t *testing.T) {
	node := startNode(t, 106, nil)
	conn, err := net.DialTimeout("tcp", node.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, &wire.Version{Protocol: 99, NodeID: 0x1234, Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	// The responder sends its version/verack then validates; either way
	// no peer may be registered.
	time.Sleep(100 * time.Millisecond)
	if len(node.Peers()) != 0 {
		t.Fatal("peer with wrong protocol version registered")
	}
}
