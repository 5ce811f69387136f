package node

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/wire"
)

// sizes reports how many records the table holds, how many slab slots it
// has ever filled, how many of its records have a request in flight, and
// how many blocks its window holds.
func (s *sightings) sizes() (records, slots, asked, window int) {
	for _, i := range s.index {
		if !s.slab[i].asked.IsZero() {
			asked++
		}
	}
	return len(s.index), len(s.slab) - int(rings), asked, s.count[windowRing]
}

// windowHashes lists the window's blocks in acceptance order.
func (s *sightings) windowHashes() []chain.Hash {
	var hs []chain.Hash
	for i := s.slab[windowRing].next; i != windowRing; i = s.slab[i].next {
		hs = append(hs, s.slab[i].hash)
	}
	return hs
}

// referenceSightings is the nested-map bookkeeping the table replaced,
// without its prunes: each hash's per-peer first sightings, the accepted
// blocks in order, and the time of each hash's last request.
type referenceSightings struct {
	firstSeen map[chain.Hash]map[uint64]time.Time
	order     []chain.Hash
	requested map[chain.Hash]time.Time
}

func newReferenceSightings() *referenceSightings {
	return &referenceSightings{
		firstSeen: make(map[chain.Hash]map[uint64]time.Time),
		requested: make(map[chain.Hash]time.Time),
	}
}

func (r *referenceSightings) note(peer uint64, h chain.Hash, at time.Time) {
	m, ok := r.firstSeen[h]
	if !ok {
		m = make(map[uint64]time.Time)
		r.firstSeen[h] = m
	}
	if _, seen := m[peer]; !seen {
		m[peer] = at
	}
}

func (r *referenceSightings) ask(h chain.Hash, now time.Time, after time.Duration) bool {
	last, asked := r.requested[h]
	if asked && now.Sub(last) <= after {
		return false
	}
	r.requested[h] = now
	return true
}

func (r *referenceSightings) stale(now time.Time, after time.Duration, has func(chain.Hash) bool) []chain.Hash {
	var want []chain.Hash
	for h, at := range r.requested {
		if now.Sub(at) <= after || has(h) {
			continue
		}
		r.requested[h] = now
		want = append(want, h)
	}
	return want
}

func (r *referenceSightings) accept(h chain.Hash) {
	r.order = append(r.order, h)
	delete(r.requested, h)
}

// round builds each outbound peer's offsets from the minimum over every
// peer's sighting of a block, then resets.
func (r *referenceSightings) round(neighbors []int) core.Observations {
	obs := core.NewObservations(neighbors, len(r.order))
	for b, h := range r.order {
		seen := r.firstSeen[h]
		if len(seen) == 0 {
			continue
		}
		var tMin time.Time
		first := true
		for _, at := range seen {
			if first || at.Before(tMin) {
				tMin, first = at, false
			}
		}
		for j, id := range neighbors {
			if at, ok := seen[uint64(id)]; ok {
				obs.Offsets[b][j] = at.Sub(tMin)
			}
		}
	}
	r.order = nil
	r.firstSeen = make(map[chain.Hash]map[uint64]time.Time)
	r.requested = make(map[chain.Hash]time.Time)
	return obs
}

// FuzzSightingsMatchReference drives the table and the nested-map
// reference through the same sequences of the node's handlers — an
// announcement (note, then a request unless the block is stored), a
// delivery (note, then accept), a mined block, an idle re-request sweep
// and a round — on a dozen hashes, far below the cap, and requires the
// same requests, the same round matrices and block counts, and the same
// window order throughout.
func FuzzSightingsMatchReference(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 13, 9, 0, 25, 3, 5, 0x1f, 0})
	f.Add([]byte{3, 4, 0, 0, 4, 7, 2, 4, 1, 4, 0, 200, 5, 0xff, 0})
	f.Add(bytes.Repeat([]byte{0, 37, 90, 2, 37, 91, 5, 0x0f, 0}, 4))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const after = 20 * time.Millisecond
		base := time.Unix(1700000000, 0)
		got, want := newSightings(observationCap), newReferenceSightings()
		stored := make(map[chain.Hash]bool)
		has := func(h chain.Hash) bool { return stored[h] }
		for k := 0; k+3 <= len(ops); k += 3 {
			op := ops[k : k+3]
			h := chain.Hash{op[1] % 12}
			peer := uint64(op[1]/12%5 + 1)
			at := base.Add(time.Duration(op[2]) * time.Millisecond)
			switch op[0] % 6 {
			case 0, 1: // an announcement
				got.note(peer, h, at)
				want.note(peer, h, at)
				if !stored[h] {
					if g, w := got.ask(h, at, after), want.ask(h, at, after); g != w {
						t.Fatalf("op %d: ask(%x) = %v, reference %v", k/3, h[0], g, w)
					}
				}
			case 2, 3: // a delivery, or a mined block, which no peer showed
				if op[0]%6 == 2 {
					got.note(peer, h, at)
					want.note(peer, h, at)
				}
				if !stored[h] {
					stored[h] = true
					got.accept(h)
					want.accept(h)
				}
			case 4:
				g := got.stale(at, after, has, wire.MaxInvHashes)
				w := want.stale(at, after, has)
				if !sameHashes(g, w) {
					t.Fatalf("op %d: stale asks for %x, reference %x", k/3, g, w)
				}
			case 5:
				var neighbors []int
				for id := 1; id <= 5; id++ {
					if op[2]&(1<<id) != 0 {
						neighbors = append(neighbors, id)
					}
				}
				g, w := got.round(neighbors), want.round(neighbors)
				if len(g.Offsets) != len(w.Offsets) || !reflect.DeepEqual(g.Neighbors, w.Neighbors) || !reflect.DeepEqual(g.Offsets, w.Offsets) {
					t.Fatalf("op %d: round matrix %v, reference %v", k/3, g.Offsets, w.Offsets)
				}
			}
			if g := got.windowHashes(); !slices.Equal(g, want.order) {
				t.Fatalf("op %d: window %x, reference %x", k/3, g, want.order)
			}
		}
	})
}

// sameHashes reports whether a and b hold the same hashes, in any order.
func sameHashes(a, b []chain.Hash) bool {
	cmp := func(x, y chain.Hash) int { return bytes.Compare(x[:], y[:]) }
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, cmp)
	slices.SortFunc(b, cmp)
	return slices.Equal(a, b)
}

// TestSightingsDropFirstSightedOutsideWindow pins the table's one bound on
// a small cap: records outside the window leave first sighted first,
// accepting a record takes it out of that queue, and the window keeps the
// newest blocks.
func TestSightingsDropFirstSightedOutsideWindow(t *testing.T) {
	const cap = 3
	s := newSightings(cap)
	at := time.Unix(1700000000, 0)
	hash := func(i int) chain.Hash { return chain.Hash{byte(i + 1)} }
	for i := 0; i < 4; i++ {
		s.note(1, hash(i), at.Add(time.Duration(i)))
	}
	if _, ok := s.index[hash(0)]; ok {
		t.Fatal("the first sighted rumour outlived a full queue")
	}
	s.accept(hash(1)) // leaves the queue, so the next rumour drops nothing
	s.note(1, hash(4), at)
	for i := 1; i <= 4; i++ {
		if _, ok := s.index[hash(i)]; !ok {
			t.Fatalf("record %d dropped", i)
		}
	}
	for i := 5; i < 9; i++ {
		s.accept(hash(i))
	}
	if got, want := s.windowHashes(), []chain.Hash{hash(6), hash(7), hash(8)}; !slices.Equal(got, want) {
		t.Fatalf("window %x, want %x", got, want)
	}
	if records, slots, _, _ := s.sizes(); records != 2*cap || slots != 2*cap {
		t.Fatalf("%d records in %d slots, want %d in %d", records, slots, 2*cap, 2*cap)
	}
}

// rawOutbound makes n dial a plain listener that completes the handshake
// as node id, and returns the listener's side of that outbound connection.
func rawOutbound(t *testing.T, n *Node, id uint64) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		defer close(accepted)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		local := &wire.Version{Protocol: wire.ProtocolVersion, NodeID: id, Nonce: 1}
		if _, err := handshakeDance(conn, local, false); err != nil {
			_ = conn.Close()
			return
		}
		accepted <- conn
	}()
	if err := n.Connect(ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	conn, ok := <-accepted
	if !ok {
		t.Fatal("listener side of the handshake failed")
	}
	return conn
}

// TestRoundRacesInvFlood runs Perigee rounds while two outbound peers flood
// announcements, one of them delivering a chain of blocks the other also
// announces. Run under -race it checks that every path into the table
// holds obsMu; in any run, every delivered block is scored by exactly one
// round or still waits in the window. Every burst blocks both peers wait
// for a pong, the deliverer's first, so the GETDATAs and relays the node
// queues for them stay inside its send queues: a full queue drops a pong,
// and a loaded box had left one of the peers waiting for ever in about a
// third of the runs.
func TestRoundRacesInvFlood(t *testing.T) {
	const blocks, fakes, burst = 300, 8, 32
	n := startNode(t, 7750, func(c *config) { c.Frozen = true })
	deliverer, announcer := rawOutbound(t, n, 0x0A1), rawOutbound(t, n, 0x0A2)
	pongs := drain(t, deliverer)
	announcerPongs := drain(t, announcer)
	chainOf := make([]*chain.Block, blocks)
	prev := testGenesis()
	at := time.Unix(1700000000, 0)
	for i := range chainOf {
		chainOf[i] = chain.NewBlock(prev, nil, at, uint64(i))
		prev = chainOf[i]
	}
	flood := func() error {
		for i, b := range chainOf {
			if i%burst == 0 {
				for _, c := range []struct {
					conn  net.Conn
					pongs <-chan struct{}
				}{{deliverer, pongs}, {announcer, announcerPongs}} {
					if err := wire.Write(c.conn, &wire.Ping{Nonce: uint64(i)}); err != nil {
						return err
					}
					select {
					case <-c.pongs:
					case <-time.After(20 * time.Second):
						return fmt.Errorf("no pong after %d blocks", i)
					}
				}
			}
			inv := &wire.Inv{Hashes: []chain.Hash{b.Header.Hash()}}
			for f := 0; f < fakes; f++ {
				inv.Hashes = append(inv.Hashes, chain.Hash{0xFA, byte(i), byte(i >> 8), byte(f)})
			}
			for _, m := range []struct {
				conn net.Conn
				msg  wire.Message
			}{{announcer, inv}, {deliverer, inv}, {deliverer, &wire.Block{Block: b}}} {
				if err := wire.Write(m.conn, m.msg); err != nil {
					return err
				}
			}
		}
		return nil
	}
	flooded := make(chan error, 1)
	go func() { flooded <- flood() }()
	// Round until the last block is stored, so every delivery races one.
	last := chainOf[blocks-1].Header.Hash()
	deadline := time.Now().Add(20 * time.Second)
	scored, rounds := 0, 0
	for ; !n.store.Has(last); rounds++ {
		if time.Now().After(deadline) {
			t.Fatalf("the delivered chain did not reach the store in %d rounds", rounds)
		}
		rep, err := n.round()
		if err != nil {
			t.Fatal(err)
		}
		scored += rep.BlocksScored
	}
	if err := <-flooded; err != nil {
		t.Fatal(err)
	}
	pingPong(t, deliverer, pongs)
	if got := scored + n.ObservationWindow(); got != blocks {
		t.Fatalf("%d rounds scored %d blocks and %d wait in the window, want %d delivered", rounds, scored, n.ObservationWindow(), blocks)
	}
}
