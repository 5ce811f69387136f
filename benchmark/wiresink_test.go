package main

import (
	"net"
	"strings"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
	"github.com/perigee-net/perigee/node"
)

// The sink against a real p2p node: handshake, then every mined block
// fetched and accepted in height order.
func TestSinkHandshakesAndFetchesFromARealNode(t *testing.T) {
	n, err := node.New(node.WithListen("127.0.0.1:0"), node.WithNetwork("sink-test"), node.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	sink, err := dialSink(n.Addr(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.close()

	txs := payloadTxs(benchRand(1, purposePayload), liveTxs, liveTxBytes)
	for h := uint64(1); h <= 5; h++ {
		id, err := n.MineBlock(txs)
		if err != nil {
			t.Fatal(err)
		}
		blk, _, err := sink.next(0)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Header.Height != h || node.BlockID(blk.Header.Hash()) != id {
			t.Fatalf("block %d: got height %d hash %s, mined %s", h, blk.Header.Height, blk.Header.Hash(), id)
		}
	}
	if sink.height != 5 {
		t.Errorf("sink height = %d, want 5", sink.height)
	}
	// Per block: INV in, GETDATA out, BLOCK in. The node's ADDR and GETADDR
	// after the handshake come on top.
	if sink.messages < 15 {
		t.Errorf("sink counted %d messages for 5 blocks, want at least 15", sink.messages)
	}
}

// scriptedPeer accepts one connection, plays the acceptor's half of the
// handshake and then sends the given messages.
func scriptedPeer(t *testing.T, script []wire.Message) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := wire.Read(conn); err != nil { // the sink's Version
			return
		}
		if wire.Write(conn, &wire.Version{Protocol: wire.ProtocolVersion, NodeID: 1}) != nil {
			return
		}
		if _, err := wire.Read(conn); err != nil { // its Verack
			return
		}
		if wire.Write(conn, &wire.Verack{}) != nil {
			return
		}
		for _, m := range script {
			if wire.Write(conn, m) != nil {
				return
			}
		}
		_, _ = wire.Read(conn) // hold the connection until the sink closes it
	}()
	return ln.Addr().String()
}

func TestSinkFailsBadDeliveries(t *testing.T) {
	genesis := chain.NewGenesis("sink-test")
	now := time.Unix(1700000000, 0)
	b1 := chain.NewBlock(genesis, [][]byte{[]byte("a")}, now, 1)
	b2 := chain.NewBlock(b1, [][]byte{[]byte("b")}, now, 2)
	b3 := chain.NewBlock(b2, [][]byte{[]byte("c")}, now, 3)
	corrupt := *b2
	corrupt.Txs = [][]byte{[]byte("tampered")}

	cases := []struct {
		name   string
		script []*chain.Block
		accept int    // blocks accepted before the failure
		want   string // substring of the error
	}{
		{"duplicated", []*chain.Block{b1, b2, b2}, 2, "delivered again"},
		{"missing", []*chain.Block{b1, b3}, 1, "arrived before 2"},
		{"out of height order", []*chain.Block{b2, b1}, 0, "arrived before 1"},
		{"fails CheckBlock", []*chain.Block{b1, &corrupt}, 1, "merkle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var script []wire.Message
			for _, b := range c.script {
				script = append(script, &wire.Block{Block: b})
			}
			sink, err := dialSink(scriptedPeer(t, script), 99)
			if err != nil {
				t.Fatal(err)
			}
			defer sink.close()
			for i := 0; i < c.accept; i++ {
				if _, _, err := sink.next(0); err != nil {
					t.Fatalf("block %d: %v", i+1, err)
				}
			}
			_, _, err = sink.next(0)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// A hash announced twice is fetched once: the second INV is what a node sends
// when a block lands while it is still installing the peer.
func TestSinkFetchesAnAnnouncedHashOnce(t *testing.T) {
	genesis := chain.NewGenesis("sink-test")
	b1 := chain.NewBlock(genesis, nil, time.Unix(1700000000, 0), 1)
	inv := &wire.Inv{Hashes: []chain.Hash{b1.Header.Hash()}}
	sink, err := dialSink(scriptedPeer(t, []wire.Message{inv, inv, &wire.Block{Block: b1}}), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.close()
	if _, _, err := sink.next(0); err != nil {
		t.Fatal(err)
	}
	// Three read, one GETDATA written.
	if sink.messages != 4 {
		t.Errorf("sink counted %d messages, want 4", sink.messages)
	}
}

func TestSinkAnswersPingAndIgnoresAddr(t *testing.T) {
	genesis := chain.NewGenesis("sink-test")
	b1 := chain.NewBlock(genesis, nil, time.Unix(1700000000, 0), 1)
	script := []wire.Message{
		&wire.Addr{Addrs: []wire.NetAddr{{Addr: "127.0.0.1:1"}}},
		&wire.GetAddr{},
		&wire.Ping{Nonce: 5},
		&wire.Block{Block: b1},
	}
	sink, err := dialSink(scriptedPeer(t, script), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.close()
	if _, _, err := sink.next(0); err != nil {
		t.Fatal(err)
	}
	// Four read, one PONG written.
	if sink.messages != 5 {
		t.Errorf("sink counted %d messages, want 5", sink.messages)
	}
}

// The sink's memory of requested hashes is bounded: the oldest goes first.
func TestSinkForgetsTheOldestRequest(t *testing.T) {
	s := &wireSink{requested: map[chain.Hash]struct{}{}}
	hash := func(i int) chain.Hash { return chain.Hash{byte(i), byte(i >> 8), byte(i >> 16)} }
	for i := 0; i < sinkRemembered+10; i++ {
		s.remember(hash(i))
	}
	if len(s.requested) != sinkRemembered || len(s.order) != sinkRemembered {
		t.Fatalf("sink remembers %d hashes in a ring of %d, want %d", len(s.requested), len(s.order), sinkRemembered)
	}
	for i, want := range map[int]bool{0: false, 9: false, 10: true, sinkRemembered + 9: true} {
		if _, ok := s.requested[hash(i)]; ok != want {
			t.Errorf("hash %d remembered = %t, want %t", i, ok, want)
		}
	}
}
