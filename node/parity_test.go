package node

import (
	"reflect"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
)

// parityMatrix is the shared observation matrix: offsets[b][i] is block
// b's arrival offset from the hub's i-th outbound peer (ascending peer
// ID). Each row has a zero minimum, mirroring the time normalization both
// drivers apply; Censored marks a block a peer never announced. The
// columns are built so Vanilla and Subset disagree: peer 1 (index 0) and
// peer 2 (index 1) complement each other, peer 3 (index 2) is uniformly
// mediocre, peer 4 (index 3) barely delivers.
func parityMatrix() [][]time.Duration {
	ms := time.Millisecond
	inf := stats.InfDuration
	return [][]time.Duration{
		{0, 40 * ms, 20 * ms, inf},
		{0, 42 * ms, 21 * ms, inf},
		{50 * ms, 0, 22 * ms, inf},
		{52 * ms, 0, 23 * ms, inf},
		{0, 5 * ms, 30 * ms, 60 * ms},
		{10 * ms, 0, 31 * ms, 61 * ms},
	}
}

// injectObservations fills the hub's observation window as if the blocks
// in the matrix had been announced with exactly those offsets.
func injectObservations(t *testing.T, hub *Node, peerIDs []uint64, offsets [][]time.Duration) {
	t.Helper()
	base := time.Now()
	hub.obsMu.Lock()
	defer hub.obsMu.Unlock()
	for b, row := range offsets {
		var h chain.Hash
		h[0] = byte(b + 1)
		for i, off := range row {
			if off != stats.InfDuration {
				hub.sightings.note(peerIDs[i], h, base.Add(off))
			}
		}
		hub.sightings.accept(h)
	}
}

// TestSelectorParitySimVsLive is the unification guarantee: for every
// selector variant, a live TCP node's Perigee round and the simulator's
// decision path (core.Decide, the single function Engine.Step routes
// every node through) make identical keep/drop decisions from identical
// observations. The live side runs real connections and real
// disconnects; only the observation window is injected.
func TestSelectorParitySimVsLive(t *testing.T) {
	const (
		hubID     = uint64(777)
		hubSeed   = uint64(42)
		outDegree = 4
	)
	newSel := func(t *testing.T, build func() (core.Selector, error)) core.Selector {
		t.Helper()
		sel, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}
	variants := []struct {
		name  string
		build func() (core.Selector, error)
	}{
		{"subset", func() (core.Selector, error) { return core.NewSubsetSelector(1, 0.9) }},
		{"vanilla", func() (core.Selector, error) { return core.NewVanillaSelector(1, 0.9) }},
		{"ucb", func() (core.Selector, error) { return core.NewUCBSelector(0.9, 50*time.Millisecond) }},
		{"random", func() (core.Selector, error) { return core.NewRandomSelector(1) }},
	}
	for _, variant := range variants {
		t.Run(variant.name, func(t *testing.T) {
			// Live side: a hub with four outbound relays over real TCP.
			relays := make([]*Node, 4)
			peerIDs := make([]uint64, 4)
			for i := range relays {
				id := uint64(i + 1)
				relays[i] = startNode(t, 100+id, func(c *config) { c.NodeID = id })
				peerIDs[i] = id
			}
			hub, err := newNode(config{
				NodeID:    hubID,
				Seed:      hubSeed,
				OutDegree: outDegree,
				Selector:  newSel(t, variant.build),
				network:   testNetwork,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(hub.Stop)
			for _, r := range relays {
				if err := hub.Connect(r.Addr()); err != nil {
					t.Fatal(err)
				}
			}

			offsets := parityMatrix()
			injectObservations(t, hub, peerIDs, offsets)
			candidates := hub.book.Len()
			rep, err := hub.round()
			if err != nil {
				t.Fatal(err)
			}
			if rep.BlocksScored != len(offsets) {
				t.Fatalf("live round scored %d blocks, want %d", rep.BlocksScored, len(offsets))
			}

			// Sim side: the same observations through core.Decide — the
			// one code path Engine.Step drives for every simulated node —
			// with a fresh selector instance and the same derived stream
			// the live driver hands its selector.
			obs := core.NewObservations([]int{1, 2, 3, 4}, len(offsets))
			for b, row := range offsets {
				copy(obs.Offsets[b], row)
			}
			decision, err := core.Decide(newSel(t, variant.build), core.NeighborView{
				Node:         int(hubID),
				OutDegree:    outDegree,
				Candidates:   candidates,
				Observations: obs,
				Rand:         rng.New(hubSeed).Derive("p2p-selector").DeriveIndexed("round", 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			toIDs := func(indices []int) []uint64 {
				if len(indices) == 0 {
					return nil
				}
				ids := make([]uint64, len(indices))
				for i, idx := range indices {
					ids[i] = peerIDs[idx]
				}
				return ids
			}
			if want := toIDs(decision.Keep); !reflect.DeepEqual(rep.Kept, want) {
				t.Fatalf("live kept %v, sim decision keeps %v", rep.Kept, want)
			}
			if want := toIDs(decision.Drop); !reflect.DeepEqual(rep.Dropped, want) {
				t.Fatalf("live dropped %v, sim decision drops %v", rep.Dropped, want)
			}
			// The live driver really disconnected what the selector said.
			for _, id := range rep.Dropped {
				for _, p := range hub.Peers() {
					if p.ID == id && p.Outbound {
						// A redial during exploration may legitimately
						// resurrect the connection; only fail when the
						// peer was never dropped (no dial recorded).
						if len(rep.Dialed) == 0 {
							t.Fatalf("dropped peer %d still connected with no redial", id)
						}
					}
				}
			}
		})
	}
}

// TestSubsetParityDropsDiffer pins the parity matrix to decisions that
// actually differ across variants, so the parity test cannot pass
// vacuously (e.g. if every selector kept everything).
func TestSubsetParityDropsDiffer(t *testing.T) {
	offsets := parityMatrix()
	obs := core.NewObservations([]int{1, 2, 3, 4}, len(offsets))
	for b, row := range offsets {
		copy(obs.Offsets[b], row)
	}
	decide := func(build func() (core.Selector, error)) core.Decision {
		sel, err := build()
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Decide(sel, core.NeighborView{
			Node: 0, OutDegree: 4, Observations: obs,
			Rand: rng.New(1).Derive("x"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	subset := decide(func() (core.Selector, error) { return core.NewSubsetSelector(1, 0.9) })
	vanilla := decide(func() (core.Selector, error) { return core.NewVanillaSelector(1, 0.9) })
	if len(subset.Drop) == 0 || len(vanilla.Drop) == 0 {
		t.Fatalf("parity matrix produces no drops (subset %v, vanilla %v)", subset, vanilla)
	}
	if reflect.DeepEqual(subset.Keep, vanilla.Keep) {
		t.Fatalf("parity matrix does not distinguish subset from vanilla (both keep %v)", subset.Keep)
	}
}
