package p2p

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// recordingConn is the write half of a connection: it keeps a copy of
// every Write it receives and signals each one. The read side and the
// addresses are never used by a write loop.
type recordingConn struct {
	net.Conn
	wrote chan struct{}

	mu     sync.Mutex
	writes [][]byte
}

func newRecordingConn() *recordingConn {
	// Room for every write a test makes, so Write never blocks on a test
	// that only polls.
	return &recordingConn{wrote: make(chan struct{}, 256)}
}

func (c *recordingConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	c.wrote <- struct{}{}
	return len(b), nil
}

func (c *recordingConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recordingConn) Close() error                     { return nil }

func (c *recordingConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// awaitWrite waits for the next Write.
func (c *recordingConn) awaitWrite(t *testing.T) {
	t.Helper()
	select {
	case <-c.wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for the write loop to write")
	}
}

// runWriteLoop starts p's write loop and stops it (waiting for it to exit)
// when the test ends.
func runWriteLoop(t *testing.T, p *peer) {
	t.Helper()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		p.writeLoop()
	}()
	t.Cleanup(func() {
		p.close()
		<-exited
	})
}

func frameOf(t *testing.T, m wire.Message) []byte {
	t.Helper()
	b, err := wire.AppendFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWriteLoopBatchesQueuedFrames: messages already queued when the loop
// gets to run leave in one burst, every frame intact and in order.
func TestWriteLoopBatchesQueuedFrames(t *testing.T) {
	conn := newRecordingConn()
	p := newPeer(1, Outbound, conn, "", 0)
	var want []byte
	for i := 0; i < 100; i++ {
		m := &wire.Inv{Hashes: []chain.Hash{{byte(i), 0xAB}}}
		if !p.send(m) {
			t.Fatalf("send %d failed", i)
		}
		want = append(want, frameOf(t, m)...)
	}
	runWriteLoop(t, p)
	waitFor(t, "queue drained", 2*time.Second, func() bool {
		return len(bytes.Join(conn.snapshot(), nil)) == len(want)
	})
	writes := conn.snapshot()
	if len(writes) > 2 {
		t.Fatalf("100 queued INVs left in %d writes, want at most 2", len(writes))
	}
	if !bytes.Equal(bytes.Join(writes, nil), want) {
		t.Fatal("the writes do not concatenate to the 100 frames in order")
	}
}

// TestWriteLoopFlushesLoneMessage: the loop flushes when its queue is
// empty — a single message is written without waiting for a second.
func TestWriteLoopFlushesLoneMessage(t *testing.T) {
	conn := newRecordingConn()
	p := newPeer(1, Outbound, conn, "", 0)
	runWriteLoop(t, p)
	for i := 0; i < 3; i++ {
		m := &wire.Ping{Nonce: uint64(i)}
		p.send(m)
		conn.awaitWrite(t)
		writes := conn.snapshot()
		if len(writes) != i+1 || !bytes.Equal(writes[i], frameOf(t, m)) {
			t.Fatalf("after lone message %d: %d writes, last %x", i, len(writes), writes[len(writes)-1])
		}
	}
}

// TestWriteLoopBoundsABurst: a burst stops growing once it holds
// wire.BufferSize, so a deep queue of blocks leaves in several writes, none
// larger than the bound plus one frame, and nothing is lost or reordered.
func TestWriteLoopBoundsABurst(t *testing.T) {
	conn := newRecordingConn()
	p := newPeer(1, Outbound, conn, "", 0)
	parent := testGenesis()
	var want []byte
	frameSize := 0
	for i := 0; i < 40; i++ {
		b := chain.NewBlock(parent, [][]byte{bytes.Repeat([]byte{byte(i)}, 8<<10)}, time.UnixMilli(int64(i)), uint64(i))
		m := &wire.Block{Block: b}
		p.send(m)
		f := frameOf(t, m)
		want, frameSize = append(want, f...), len(f)
	}
	runWriteLoop(t, p)
	waitFor(t, "queue drained", 2*time.Second, func() bool {
		return len(bytes.Join(conn.snapshot(), nil)) == len(want)
	})
	writes := conn.snapshot()
	for i, w := range writes {
		if len(w) >= wire.BufferSize+frameSize {
			t.Fatalf("write %d is %d bytes, want under %d", i, len(w), wire.BufferSize+frameSize)
		}
	}
	if len(writes) < len(want)/(wire.BufferSize+frameSize) || len(writes) >= 40 {
		t.Fatalf("%d bytes of blocks left in %d writes", len(want), len(writes))
	}
	if !bytes.Equal(bytes.Join(writes, nil), want) {
		t.Fatal("the writes do not concatenate to the frames in order")
	}
}

// TestWriteLoopDelayWritesPerMessage: injected latency is per message, so
// a delayed peer gets one delay and one write for each, queued or not.
func TestWriteLoopDelayWritesPerMessage(t *testing.T) {
	conn := newRecordingConn()
	const delay = 10 * time.Millisecond
	p := newPeer(1, Outbound, conn, "", delay)
	var msgs []wire.Message
	for i := 0; i < 5; i++ {
		msgs = append(msgs, &wire.Ping{Nonce: uint64(i)})
		p.send(msgs[i])
	}
	start := time.Now()
	runWriteLoop(t, p)
	for range msgs {
		conn.awaitWrite(t)
	}
	if elapsed := time.Since(start); elapsed < time.Duration(len(msgs))*delay {
		t.Fatalf("5 delayed messages left in %v, want at least %v", elapsed, time.Duration(len(msgs))*delay)
	}
	writes := conn.snapshot()
	if len(writes) != len(msgs) {
		t.Fatalf("%d writes for %d delayed messages", len(writes), len(msgs))
	}
	for i, m := range msgs {
		if !bytes.Equal(writes[i], frameOf(t, m)) {
			t.Fatalf("write %d is not message %d's frame", i, i)
		}
	}
}

// TestWriteLoopEncodeFailureClosesPeer: a message that cannot be framed
// closes the peer rather than being skipped.
func TestWriteLoopEncodeFailureClosesPeer(t *testing.T) {
	conn := newRecordingConn()
	p := newPeer(1, Outbound, conn, "", 0)
	p.send(&wire.Inv{Hashes: make([]chain.Hash, wire.MaxInvHashes+1)})
	runWriteLoop(t, p)
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		t.Fatal("peer still open after an unencodable message")
	}
}

// TestWriteLoopStalledConnTripsWriteTimeout: a remote that stops reading
// fails the flush at the write deadline and the loop closes the peer.
func TestWriteLoopStalledConnTripsWriteTimeout(t *testing.T) {
	a, b := net.Pipe() // unbuffered: a write blocks until the far end reads
	defer b.Close()
	p := newPeer(1, Outbound, a, "", 0)
	p.writeTimeout = 50 * time.Millisecond
	for i := 0; i < 10; i++ {
		p.send(&wire.Ping{Nonce: uint64(i)})
	}
	runWriteLoop(t, p)
	select {
	case <-p.done:
	case <-time.After(2 * time.Second):
		t.Fatal("peer still open after a flush outlasted the write timeout")
	}
}

// TestReadLoopMidFrameDeadline: an idle deadline that fires after part of
// a frame was consumed must not be treated as an idle interval — resuming
// would parse the payload as a header and charge an honest slow peer for
// bad framing. The block is either accepted or the peer dropped as
// stalled; in neither case is it charged.
func TestReadLoopMidFrameDeadline(t *testing.T) {
	node := startNode(t, 310, func(c *Config) {
		c.ReadIdleTimeout = 150 * time.Millisecond
	})
	const slow = uint64(0x510)
	conn := rawDial(t, node, slow)
	waitFor(t, "peer registered", time.Second, func() bool { return len(node.Peers()) == 1 })
	b := chain.NewBlock(testGenesis(), [][]byte{bytes.Repeat([]byte{7}, 2048)}, time.Now(), 1)
	raw := frameOf(t, &wire.Block{Block: b})
	const headerSize = 13
	if _, err := conn.Write(raw[:headerSize]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)  // past the idle timeout, mid-frame
	_, _ = conn.Write(raw[headerSize:]) // fails if we were already dropped
	waitFor(t, "block accepted or slow peer dropped", 2*time.Second, func() bool {
		return node.Store().Has(b.Header.Hash()) || len(node.Peers()) == 0
	})
	if got := node.Book().score(slow); got != 0 {
		t.Fatalf("slow peer charged %v misbehavior points for a mid-frame pause", got)
	}
	if node.Book().IDBanned(slow) {
		t.Fatal("slow peer banned")
	}
}
