package main

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/wire"
)

// sinkReadTimeout bounds the wait for one message: a block lost on the way
// fails the run instead of hanging it.
const sinkReadTimeout = 30 * time.Second

// sinkRemembered is how many requested hashes the sink keeps, oldest out
// first: far more than are ever in flight, and bounded so that the sink's
// own memory does not grow with the run.
const sinkRemembered = 1024

// wireSink is the benchmark's end of the relay: a raw internal/wire
// connection that handshakes as an initiator, fetches every block announced
// to it once, and accepts a block only if it passes chain.CheckBlock and carries
// exactly the next height. It is not a node: it stores nothing, relays
// nothing and leaves ADDR and GETADDR unanswered. One goroutine drives it.
type wireSink struct {
	conn net.Conn
	in   *bufio.Reader
	rec  *recorder // spans around the sink's own layer calls; nil is off

	height    uint64                  // last accepted block
	messages  int                     // messages read and written since the handshake
	requested map[chain.Hash]struct{} // the last sinkRemembered hashes a GETDATA went out for
	order     []chain.Hash            // the same hashes as a ring, for eviction
	oldest    int                     // index into order
	want      []chain.Hash            // scratch for the next GETDATA
}

// dialSink connects to a node and completes the version handshake
// (Version, Version, Verack, Verack, the dialer speaking first).
func dialSink(addr string, id uint64) (*wireSink, error) {
	conn, err := net.DialTimeout("tcp", addr, sinkReadTimeout)
	if err != nil {
		return nil, fmt.Errorf("sink: %w", err)
	}
	s := &wireSink{conn: conn, in: bufio.NewReaderSize(conn, 64<<10), requested: map[chain.Hash]struct{}{}}
	if err := s.handshake(id); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("sink: handshake with %s: %w", addr, err)
	}
	return s, nil
}

func (s *wireSink) handshake(id uint64) error {
	_ = s.conn.SetDeadline(time.Now().Add(sinkReadTimeout))
	defer func() { _ = s.conn.SetDeadline(time.Time{}) }()
	if err := wire.Write(s.conn, &wire.Version{Protocol: wire.ProtocolVersion, NodeID: id, Nonce: id}); err != nil {
		return err
	}
	m, err := wire.Read(s.in)
	if err != nil {
		return err
	}
	v, ok := m.(*wire.Version)
	if !ok {
		return fmt.Errorf("expected version, got %v", m.Type())
	}
	if v.Protocol != wire.ProtocolVersion {
		return fmt.Errorf("remote speaks protocol %d", v.Protocol)
	}
	if err := wire.Write(s.conn, &wire.Verack{}); err != nil {
		return err
	}
	if m, err = wire.Read(s.in); err != nil {
		return err
	}
	if _, ok := m.(*wire.Verack); !ok {
		return fmt.Errorf("expected verack, got %v", m.Type())
	}
	return nil
}

// next blocks until the next block arrives, answering INV with GETDATA and
// PING with PONG on the way, and returns it with its arrival time, taken
// after validation. A block that fails chain.CheckBlock, repeats a height
// already accepted, or skips one is an error.
func (s *wireSink) next(batch int) (*chain.Block, time.Time, error) {
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(sinkReadTimeout))
		m, err := wire.Read(s.in)
		if err != nil {
			return nil, time.Time{}, fmt.Errorf("sink: waiting for block %d: %w", s.height+1, err)
		}
		s.messages++
		switch m := m.(type) {
		case *wire.Inv:
			// A node announces a block once as it relays it and, if the
			// block lands while the node is still installing this peer,
			// once more as its tip: fetch each hash once, as a node does.
			s.want = s.want[:0]
			for _, h := range m.Hashes {
				if _, asked := s.requested[h]; !asked {
					s.remember(h)
					s.want = append(s.want, h)
				}
			}
			if len(s.want) > 0 {
				err = s.write(batch, &wire.GetData{Hashes: s.want})
			}
		case *wire.Ping:
			err = s.write(batch, &wire.Pong{Nonce: m.Nonce})
		case *wire.Block:
			id := s.rec.begin("chain.CheckBlock", noSpan, batch)
			err = chain.CheckBlock(m.Block)
			s.rec.end(id)
			if err != nil {
				return nil, time.Time{}, fmt.Errorf("sink: block %d: %w", s.height+1, err)
			}
			at := time.Now()
			switch h := m.Block.Header.Height; {
			case h <= s.height:
				return nil, time.Time{}, fmt.Errorf("sink: block at height %d delivered again (at %d)", h, s.height)
			case h != s.height+1:
				return nil, time.Time{}, fmt.Errorf("sink: block at height %d arrived before %d", h, s.height+1)
			}
			s.height++
			return m.Block, at, nil
		}
		if err != nil {
			return nil, time.Time{}, fmt.Errorf("sink: %w", err)
		}
	}
}

// remember records a hash as requested, forgetting the oldest one when full.
func (s *wireSink) remember(h chain.Hash) {
	if len(s.order) < sinkRemembered {
		s.order = append(s.order, h)
	} else {
		delete(s.requested, s.order[s.oldest])
		s.order[s.oldest] = h
		s.oldest = (s.oldest + 1) % sinkRemembered
	}
	s.requested[h] = struct{}{}
}

func (s *wireSink) write(batch int, m wire.Message) error {
	id := s.rec.begin("wire.Write", noSpan, batch)
	err := wire.Write(s.conn, m)
	s.rec.end(id)
	s.messages++
	return err
}

func (s *wireSink) close() { _ = s.conn.Close() }
