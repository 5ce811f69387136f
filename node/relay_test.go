package node

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// handshakeDance runs a whole Version/Verack exchange for a raw test peer.
// The initiator speaks first; both sides end up with the remote's Version.
func handshakeDance(conn net.Conn, local *wire.Version, initiator bool) (*wire.Version, error) {
	remote, err := openHandshake(conn, local, initiator)
	if err != nil {
		return nil, err
	}
	return remote, closeHandshake(conn, initiator)
}

// readFrame reads one frame off conn as raw bytes, header included.
func readFrame(conn net.Conn) ([]byte, error) {
	frame := make([]byte, 13)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	frame = append(frame, make([]byte, binary.LittleEndian.Uint32(frame[5:9]))...)
	_, err := io.ReadFull(conn, frame[13:])
	return frame, err
}

// fetchFrame sends a GETDATA for h on conn and returns the raw frame of the
// BLOCK that answers it, skipping whatever else the node sends first.
func fetchFrame(conn net.Conn, h chain.Hash) ([]byte, error) {
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	defer conn.SetDeadline(time.Time{})
	if err := wire.Write(conn, &wire.GetData{Hashes: []chain.Hash{h}}); err != nil {
		return nil, err
	}
	for {
		frame, err := readFrame(conn)
		if err != nil || wire.MsgType(frame[4]) == wire.MsgBlock {
			return frame, err
		}
	}
}

// TestGetDataServesTheVerifiedFrame: a block raw peer A sends is served to
// three requesters at once byte for byte as A framed it, and the message
// queued is the one the node's reader decoded the block into, which frames
// on the checksum that reader verified. When the table's slot holds another
// message of the same hash, here a decoded block with A's header and a
// forged body, a GETDATA is framed and hashed afresh from the stored block
// and the bytes are still A's. Run it with -race: the three requesters
// share one message.
func TestGetDataServesTheVerifiedFrame(t *testing.T) {
	n := startNode(t, 7790, nil)
	a := rawDial(t, n, 0xA)
	requesters := []net.Conn{rawDial(t, n, 0xB1), rawDial(t, n, 0xB2), rawDial(t, n, 0xB3)}
	txs := [][]byte{bytes.Repeat([]byte{1}, 256), nil, []byte("relay")}
	blk := chain.NewBlock(testGenesis(), txs, time.UnixMilli(1), 1)
	h := blk.Header.Hash()
	sent, err := wire.AppendFrame(nil, &wire.Block{Block: blk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(sent); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the block to connect", 2*time.Second, func() bool { return n.store.Has(h) })

	relay := n.relayed[relaySlot(h)].Load()
	if relay == nil || relay.Block != n.store.Get(h) {
		t.Fatalf("table holds %+v, want the message of the stored block", relay)
	}
	if again, err := wire.AppendFrame(nil, relay); err != nil || !bytes.Equal(again, sent) {
		t.Fatalf("the table's message frames as\n %x (%v)\nwant the sender's\n %x", again, err, sent)
	}
	probe := newPeer(0xC, inbound, newRecordingConn(), "", 0)
	getData := &wire.GetData{Hashes: []chain.Hash{h}}
	n.handleGetData(probe, getData)
	if m := <-probe.sendCh; m.msg != relay {
		t.Fatalf("GETDATA queued %#v, want the table's message", m)
	}

	fetchAll := func(what string) {
		t.Helper()
		var wg sync.WaitGroup
		for _, conn := range requesters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := fetchFrame(conn, h)
				if err != nil {
					t.Errorf("%s: %v", what, err)
				} else if !bytes.Equal(got, sent) {
					t.Errorf("%s: served frame\n %x\nwant the sender's\n %x", what, got, sent)
				}
			}()
		}
		wg.Wait()
	}
	fetchAll("from the table")

	// The header's Merkle root is not checked when a frame is decoded, so
	// the forged block decodes to a message of hash h whose bytes are not
	// A's.
	forged := &chain.Block{Header: blk.Header, Txs: [][]byte{[]byte("forged")}}
	forgedFrame, err := wire.AppendFrame(nil, &wire.Block{Block: forged})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.NewReader(bytes.NewReader(forgedFrame)).Read()
	if err != nil {
		t.Fatal(err)
	}
	impostor := decoded.(*wire.Block)
	if impostor.Block.Header.Hash() != h || bytes.Equal(forgedFrame, sent) {
		t.Fatal("the forged block must share the stored block's hash and differ in its bytes")
	}
	n.relayed[relaySlot(h)].Store(impostor)
	n.handleGetData(probe, getData)
	if m, ok := (<-probe.sendCh).msg.(*wire.Block); !ok || m == impostor || m.Block != n.store.Get(h) {
		t.Fatalf("GETDATA beside a forged copy of the block in the table queued %#v, want a fresh BLOCK of the stored block", m)
	}
	fetchAll("hashed afresh")
}

// TestBlocksAcceptedWhileInstallingReachThePeer mines blocks after the node's
// last handshake write and before the new peer could have been installed in
// the order a handshake used to run, and wants every one of them announced
// to that peer. When the node dials, that window is its wait for the
// remote's VERACK, which the test holds back while the node mines; when it
// accepts, the blocks are mined as soon as its VERACK arrives.
func TestBlocksAcceptedWhileInstallingReachThePeer(t *testing.T) {
	const blocks = 3
	mine := func(t *testing.T, n *Node) map[chain.Hash]bool {
		want := map[chain.Hash]bool{}
		for i := 0; i < blocks; i++ {
			b, err := n.mineBlock([][]byte{{byte(i)}})
			if err != nil {
				t.Fatal(err)
			}
			want[b.Header.Hash()] = true
		}
		return want
	}
	announced := func(t *testing.T, conn net.Conn, want map[chain.Hash]bool) {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		for seen := 0; seen < len(want); {
			m, err := wire.Read(conn)
			if err != nil {
				t.Fatalf("%d of the %d blocks mined during the handshake announced: %v", seen, len(want), err)
			}
			if inv, ok := m.(*wire.Inv); ok {
				for _, h := range inv.Hashes {
					if want[h] {
						want[h] = false
						seen++
					}
				}
			}
		}
	}
	version := &wire.Version{Protocol: wire.ProtocolVersion, NodeID: 0x1A57, Nonce: 1}

	t.Run("dialing", func(t *testing.T) {
		n := startNode(t, 7791, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		connected := make(chan error, 1)
		go func() { connected <- n.Connect(ln.Addr().String()) }()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := readVersion(conn); err != nil {
			t.Fatal(err)
		}
		if err := wire.Write(conn, version); err != nil {
			t.Fatal(err)
		}
		if err := readVerack(conn); err != nil {
			t.Fatal(err)
		}
		want := mine(t, n)
		if err := wire.Write(conn, &wire.Verack{}); err != nil {
			t.Fatal(err)
		}
		if err := <-connected; err != nil {
			t.Fatal(err)
		}
		announced(t, conn, want)
	})

	t.Run("accepting", func(t *testing.T) {
		n := startNode(t, 7792, nil)
		conn := rawDial(t, n, version.NodeID)
		announced(t, conn, mine(t, n))
	})
}

// TestGetDataServesAMinedBlockOneMessage: two GETDATAs for a block the
// node just mined are answered with the same BLOCK message, the one
// mineBlock put in the relay table.
func TestGetDataServesAMinedBlockOneMessage(t *testing.T) {
	n := startNode(t, 7791, nil)
	b, err := n.mineBlock([][]byte{[]byte("mined")})
	if err != nil {
		t.Fatal(err)
	}
	probe := newPeer(0xC, inbound, newRecordingConn(), "", 0)
	getData := &wire.GetData{Hashes: []chain.Hash{b.Header.Hash()}}
	n.handleGetData(probe, getData)
	n.handleGetData(probe, getData)
	first, second := <-probe.sendCh, <-probe.sendCh
	if first.msg != second.msg {
		t.Fatalf("two GETDATAs queued %p and %p, want one message", first.msg, second.msg)
	}
	if m, ok := first.msg.(*wire.Block); !ok || m.Block != b {
		t.Fatalf("GETDATA queued %#v, want the mined block", first.msg)
	}
}
