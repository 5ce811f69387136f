package node

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// direction distinguishes who initiated a connection.
type direction int

// Connection directions.
const (
	// outbound connections were dialed by us; only these are scored and
	// rotated by Perigee (a node controls its outgoing set, §2.1).
	outbound direction = iota
	// inbound connections were accepted from a remote dialer.
	inbound
)

// String names the direction.
func (d direction) String() string {
	if d == outbound {
		return "outbound"
	}
	return "inbound"
}

// peer is one live connection after a completed handshake.
type peer struct {
	id         uint64
	direction  direction
	conn       net.Conn
	listenAddr string // remote's accepting address, "" if not listening
	delay      time.Duration

	// writeTimeout bounds each flush of the write loop (at most
	// wire.BufferSize plus one frame); zero disables the deadline.
	writeTimeout time.Duration
	// dropNth, when positive, silently discards every Nth enqueued
	// message — the send-path half of a fault plan's Drop verdict.
	dropNth int
	// maxFullDrops is the consecutive full-queue drop budget after which
	// the peer is disconnected as a slow consumer; zero disables it.
	maxFullDrops int
	// onSlowClose, when non-nil, is invoked once if the peer is closed
	// for exhausting maxFullDrops.
	onSlowClose func()

	sent      atomic.Int64 // messages offered to the queue (feeds dropNth)
	fullDrops atomic.Int64 // consecutive messages lost to a full queue

	// discMu guards the discovery rate-limit state below.
	discMu sync.Mutex
	// awaitingAddr banks the ADDR entries this peer may still send us as
	// solicited responses (wire.MaxAddrs per outstanding GETADDR);
	// entries covered by the bank bypass the unsolicited budget.
	awaitingAddr int
	// getAddrWindow/getAddrCount throttle the peer's GETADDR requests:
	// one answered per window, misbehavior past the burst budget.
	getAddrWindow time.Time
	getAddrCount  int
	// addrWindow/addrCount budget the peer's unsolicited ADDR volume.
	addrWindow time.Time
	addrCount  int
	// addrResponses indexes the per-peer ADDR-sample derivation stream, so
	// consecutive responses to the same peer draw distinct samples while a
	// replay with the same seed draws identical ones.
	addrResponses int

	sendCh chan queued
	done   chan struct{}

	closeOnce sync.Once
}

// maxAwaitingAddr caps (in GETADDR-responses' worth of entries) the
// solicited credit a peer can bank, so our own GETADDR retries cannot be
// farmed into an unlimited unsolicited allowance.
const maxAwaitingAddr = 4

// noteGetAddrSent records that we asked this peer for addresses and owe
// it one un-budgeted response's worth of ADDR entries.
func (p *peer) noteGetAddrSent() {
	p.discMu.Lock()
	p.awaitingAddr += wire.MaxAddrs
	if p.awaitingAddr > maxAwaitingAddr*wire.MaxAddrs {
		p.awaitingAddr = maxAwaitingAddr * wire.MaxAddrs
	}
	p.discMu.Unlock()
}

// consumeSolicited redeems up to n entries of outstanding GETADDR credit,
// returning how many are covered. Entry-based (rather than per-message)
// accounting keeps an interleaved self-announce from burning the credit a
// full-size response needs.
func (p *peer) consumeSolicited(n int) int {
	p.discMu.Lock()
	defer p.discMu.Unlock()
	take := n
	if take > p.awaitingAddr {
		take = p.awaitingAddr
	}
	p.awaitingAddr -= take
	return take
}

// admitGetAddr applies the per-peer GETADDR rate limit: within each
// window only the first request is served, and requests past the burst
// budget are abusive (the caller charges misbehavior).
func (p *peer) admitGetAddr(now time.Time, window time.Duration, burst int) (serve, abusive bool) {
	p.discMu.Lock()
	defer p.discMu.Unlock()
	if p.getAddrWindow.IsZero() || now.Sub(p.getAddrWindow) >= window {
		p.getAddrWindow = now
		p.getAddrCount = 0
	}
	p.getAddrCount++
	return p.getAddrCount == 1, p.getAddrCount > burst
}

// admitUnsolicited spends n addresses against the peer's per-window
// unsolicited budget, returning how many may be processed.
func (p *peer) admitUnsolicited(now time.Time, window time.Duration, budget, n int) (allowed int) {
	p.discMu.Lock()
	defer p.discMu.Unlock()
	if p.addrWindow.IsZero() || now.Sub(p.addrWindow) >= window {
		p.addrWindow = now
		p.addrCount = 0
	}
	allowed = budget - p.addrCount
	if allowed < 0 {
		allowed = 0
	}
	if allowed > n {
		allowed = n
	}
	p.addrCount += allowed
	return allowed
}

// nextAddrResponse returns the 0-based index of the next ADDR sample
// served to this peer.
func (p *peer) nextAddrResponse() int {
	p.discMu.Lock()
	defer p.discMu.Unlock()
	i := p.addrResponses
	p.addrResponses++
	return i
}

const peerSendBuffer = 128

// queued is one entry of a peer's send queue: msg, or, when msg is nil, an
// INV or GETDATA (kind) of hash alone, which the write loop frames from
// scratch of its own, so that relaying a block queues its announcements and
// requests without allocating.
type queued struct {
	msg  wire.Message
	kind wire.MsgType
	hash chain.Hash
}

func newPeer(id uint64, dir direction, conn net.Conn, listenAddr string, delay time.Duration) *peer {
	return &peer{
		id:         id,
		direction:  dir,
		conn:       conn,
		listenAddr: listenAddr,
		delay:      delay,
		sendCh:     make(chan queued, peerSendBuffer),
		done:       make(chan struct{}),
	}
}

// send enqueues a message; it reports false when the peer is shutting down
// or its queue is full (slow peer — the message is dropped rather than
// blocking the caller, like a full TCP send buffer). A peer that keeps a
// full queue for maxFullDrops consecutive sends is disconnected instead of
// silently throttling the broadcast path forever.
func (p *peer) send(m wire.Message) bool { return p.enqueue(queued{msg: m}) }

// sendInv queues an INV of the one hash h, as send does.
func (p *peer) sendInv(h chain.Hash) bool {
	return p.enqueue(queued{kind: wire.MsgInv, hash: h})
}

// sendGetData queues a GETDATA of the one hash h, as send does.
func (p *peer) sendGetData(h chain.Hash) bool {
	return p.enqueue(queued{kind: wire.MsgGetData, hash: h})
}

func (p *peer) enqueue(m queued) bool {
	select {
	case <-p.done:
		return false
	default:
	}
	if p.dropNth > 0 && p.sent.Add(1)%int64(p.dropNth) == 0 {
		return true // injected message drop: pretend it was sent
	}
	select {
	case p.sendCh <- m:
		p.fullDrops.Store(0)
		return true
	case <-p.done:
		return false
	default:
	}
	// Queue full: count the consecutive loss and cut off a consumer that
	// never drains. Exactly-equal so that, of concurrent sends, only the one
	// whose increment reaches the budget takes the slow-close path.
	if p.maxFullDrops > 0 && p.fullDrops.Add(1) == int64(p.maxFullDrops) {
		if p.onSlowClose != nil {
			p.onSlowClose()
		}
		p.close()
	}
	return false
}

// writeLoop drains the send queue onto the connection in bursts: it frames
// the message it took and then whatever else is already queued into one
// buffer, up to wire.BufferSize, and hands that to the connection in a
// single write. It flushes as soon as the queue is empty and never waits
// for more, so a lone message leaves at once. With an injected artificial
// latency every message is its own delay and its own write. It exits when
// the peer closes.
func (p *peer) writeLoop() {
	var buf []byte
	var hash [1]chain.Hash
	inv, getData := &wire.Inv{Hashes: hash[:]}, &wire.GetData{Hashes: hash[:]}
	// message returns the message m stands for, a one-hash INV or GETDATA
	// in the scratch above, valid until the next call.
	message := func(m queued) wire.Message {
		switch {
		case m.msg != nil:
			return m.msg
		case m.kind == wire.MsgInv:
			hash[0] = m.hash
			return inv
		default:
			hash[0] = m.hash
			return getData
		}
	}
	for {
		var m queued
		select {
		case m = <-p.sendCh:
		case <-p.done:
			return
		}
		if p.delay > 0 {
			timer := time.NewTimer(p.delay)
			select {
			case <-timer.C:
			case <-p.done:
				timer.Stop()
				return
			}
		}
		buf = buf[:0]
	burst:
		for {
			var err error
			if buf, err = wire.AppendFrame(buf, message(m)); err != nil {
				p.close()
				return
			}
			if p.delay > 0 || len(buf) >= wire.BufferSize {
				break
			}
			select {
			case m = <-p.sendCh:
			default:
				break burst
			}
		}
		if p.writeTimeout > 0 {
			_ = p.conn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
		}
		if _, err := p.conn.Write(buf); err != nil {
			p.close()
			return
		}
		// A burst outgrows twice the buffer size only when one frame alone
		// is larger than it: let that go rather than pin a 4 MB block's
		// worth of memory per peer.
		if cap(buf) > 2*wire.BufferSize {
			buf = nil
		}
	}
}

// drain waits until the send queue is empty, the peer dies, or the
// deadline passes — the graceful half of shutdown, giving the write loop
// a bounded chance to flush queued announcements.
func (p *peer) drain(deadline time.Time) {
	for len(p.sendCh) > 0 && time.Now().Before(deadline) {
		select {
		case <-p.done:
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close shuts the connection down exactly once.
func (p *peer) close() {
	p.closeOnce.Do(func() {
		close(p.done)
		_ = p.conn.Close()
	})
}

func (p *peer) String() string {
	return fmt.Sprintf("peer(%016x, %s)", p.id, p.direction)
}
