package node

import (
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
)

// sightings is the live node's record of the blocks it hears about, the
// input of its next Perigee round (paper §4): per hash, each peer's first
// announcement or delivery, the earliest from any peer, the last GETDATA,
// and whether the block is in the round window. Node.obsMu guards it.
//
// It is bounded one way, rounds or no rounds: the window keeps the newest
// cap accepted blocks in acceptance order, and at most cap other records
// (rumours, fetches in flight, late announcements) wait outside it, the
// first sighted leaving first. Nothing sorts, and a warm table allocates
// nothing: the first slab slots head three rings threaded through prev and
// next, the window, the records outside it and the free slots.
//
// A new slot's peer list is a window of peerSlab as wide as the longest
// list so far. peerSlab is allocated when the slot slab grows, with one
// window for each slot the slab now has room for, so a new slot costs no
// allocation of its own while the table fills, and windows are as wide as
// the node's peers have needed, not as its peer limits allow. A list that
// outgrows its window moves to the heap rather than into the next.
type sightings struct {
	cap      int
	width    int // the longest peer list so far, at least 1
	index    map[chain.Hash]int32
	slab     []sighting
	peerSlab []peerSighting // windows not yet given to a slot
	count    [rings]int
}

// The rings, by the slab slot that heads each.
const (
	windowRing int32 = iota
	outsideRing
	freeRing
	rings
)

// sighting is one hash's record. peers is empty for a block no peer showed
// the node, such as one it mined; asked is zero when no request is in
// flight.
type sighting struct {
	hash             chain.Hash
	first, asked     time.Time
	peers            []peerSighting
	ring, prev, next int32
}

// peerSighting is one peer's first announcement or delivery of a block.
type peerSighting struct {
	id uint64
	at time.Time
}

func newSightings(cap int) sightings {
	s := sightings{cap: cap, width: 1, index: make(map[chain.Hash]int32), slab: make([]sighting, rings)}
	s.clear()
	return s
}

// clear forgets every record. The slots stay, their peer slices too, for
// the next round's records.
func (s *sightings) clear() {
	clear(s.index)
	for r := range rings {
		s.slab[r].prev, s.slab[r].next = r, r
	}
	s.count = [rings]int{}
	for i := rings; i < int32(len(s.slab)); i++ {
		s.link(i, freeRing)
	}
}

// note records a peer announcing or delivering h at at; only the peer's
// first sighting of a block counts.
func (s *sightings) note(peer uint64, h chain.Hash, at time.Time) {
	e := &s.slab[s.slot(h, outsideRing)]
	for _, p := range e.peers {
		if p.id == peer {
			return
		}
	}
	if len(e.peers) == 0 || at.Before(e.first) {
		e.first = at
	}
	e.peers = append(e.peers, peerSighting{peer, at})
	s.width = max(s.width, len(e.peers))
}

// ask reports whether h should be requested now: it never was, or its last
// request is more than after old. A true answer counts as the request.
func (s *sightings) ask(h chain.Hash, now time.Time, after time.Duration) bool {
	e := &s.slab[s.slot(h, outsideRing)]
	if !e.asked.IsZero() && now.Sub(e.asked) <= after {
		return false
	}
	e.asked = now
	return true
}

// stale asks again for, and returns, up to max blocks requested more than
// after before now that are still not had, first sighted first.
func (s *sightings) stale(now time.Time, after time.Duration, has func(chain.Hash) bool, max int) []chain.Hash {
	var want []chain.Hash
	for i := s.slab[outsideRing].next; i != outsideRing && len(want) < max; i = s.slab[i].next {
		e := &s.slab[i]
		if !e.asked.IsZero() && now.Sub(e.asked) > after && !has(e.hash) {
			e.asked = now
			want = append(want, e.hash)
		}
	}
	return want
}

// accept makes h the window's newest block and ends its fetch, dropping
// the window's oldest block once it is over the cap.
func (s *sightings) accept(h chain.Hash) {
	i := s.slot(h, windowRing)
	if s.slab[i].ring == outsideRing {
		s.unlink(i)
		s.link(i, windowRing)
	}
	s.slab[i].asked = time.Time{}
	if s.count[windowRing] > s.cap {
		s.drop(s.slab[windowRing].next)
	}
}

// round writes the window as a round's observations, row b for its b-th
// block and column j for neighbors[j]: the offset of that neighbor's
// sighting from the block's first, censored where the neighbor showed
// none. Then it clears the table.
func (s *sightings) round(neighbors []int) core.Observations {
	obs := core.NewObservations(neighbors, s.count[windowRing])
	for b, i := 0, s.slab[windowRing].next; i != windowRing; b, i = b+1, s.slab[i].next {
		e := &s.slab[i]
		for _, p := range e.peers {
			for j, id := range neighbors {
				if uint64(id) == p.id {
					obs.Offsets[b][j] = p.at.Sub(e.first)
				}
			}
		}
	}
	s.clear()
	return obs
}

// slot returns h's slot. When h has none, it gives h a fresh record at the
// end of ring, first dropping the ring's oldest record if the ring is full,
// so at most 2·cap slots are ever filled.
func (s *sightings) slot(h chain.Hash, ring int32) int32 {
	if i, ok := s.index[h]; ok {
		return i
	}
	if s.count[ring] >= s.cap {
		s.drop(s.slab[ring].next)
	}
	i := s.slab[freeRing].next
	if i == freeRing {
		i = int32(len(s.slab))
		s.slab = append(s.slab, sighting{})
		if len(s.peerSlab) < s.width {
			s.peerSlab = make([]peerSighting, (cap(s.slab)-int(i))*s.width)
		}
		s.slab[i].peers, s.peerSlab = s.peerSlab[:0:s.width], s.peerSlab[s.width:]
	} else {
		s.unlink(i)
	}
	e := &s.slab[i]
	*e = sighting{hash: h, peers: e.peers[:0]}
	s.index[h] = i
	s.link(i, ring)
	return i
}

// drop forgets slot i's record.
func (s *sightings) drop(i int32) {
	delete(s.index, s.slab[i].hash)
	s.unlink(i)
	s.link(i, freeRing)
}

// link appends the unlinked slot i to ring.
func (s *sightings) link(i, ring int32) {
	e := &s.slab[i]
	e.ring, e.prev, e.next = ring, s.slab[ring].prev, ring
	s.slab[e.prev].next, s.slab[ring].prev = i, i
	s.count[ring]++
}

// unlink takes slot i out of its ring.
func (s *sightings) unlink(i int32) {
	e := &s.slab[i]
	s.slab[e.prev].next, s.slab[e.next].prev = e.next, e.prev
	s.count[e.ring]--
}
