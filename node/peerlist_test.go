package node

import (
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/wire"
)

// idleNode is a node that was never started, holding the given peers on
// connections nobody reads or writes: no loop runs, so an allocation count
// over its methods counts theirs alone.
func idleNode(t *testing.T, ids ...uint64) (*Node, []*peer) {
	t.Helper()
	n, err := newNode(config{Seed: 1, network: testNetwork})
	if err != nil {
		t.Fatal(err)
	}
	peers := make([]*peer, len(ids))
	n.mu.Lock()
	for i, id := range ids {
		peers[i] = newPeer(id, inbound, newRecordingConn(), "", 0)
		n.peers[id] = peers[i]
	}
	n.mu.Unlock()
	return n, peers
}

func snapshotIDs(ps []*peer) []uint64 {
	ids := make([]uint64, len(ps))
	for i, p := range ps {
		ids[i] = p.id
	}
	return ids
}

// TestPeerSnapshotAllocatesNothingWhenUnchanged: the sorted peer list is
// built once per peer-set change, not once per relay.
func TestPeerSnapshotAllocatesNothingWhenUnchanged(t *testing.T) {
	n, _ := idleNode(t, 30, 10, 20)
	first := n.peerSnapshot()
	if got := snapshotIDs(first); !slices.Equal(got, []uint64{10, 20, 30}) {
		t.Fatalf("snapshot IDs %v, want sorted [10 20 30]", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = n.peerSnapshot() }); allocs != 0 {
		t.Fatalf("peerSnapshot on an unchanged peer set allocates %.1f times, want 0", allocs)
	}
}

// TestBroadcastInvQueuesOneMessage: a relay to three peers queues one INV
// of the hash to each, as a value its write loop frames, and allocates
// nothing.
func TestBroadcastInvQueuesOneMessage(t *testing.T) {
	n, peers := idleNode(t, 1, 2, 3, 4)
	n.peerSnapshot() // build the list outside the count
	h := testGenesis().Header.Hash()
	if allocs := testing.AllocsPerRun(20, func() { n.broadcastInv(h, 4) }); allocs != 0 {
		t.Fatalf("broadcastInv to three peers allocates %.1f times, want 0", allocs)
	}
	if got := len(peers[3].sendCh); got != 0 {
		t.Fatalf("the excluded peer was sent %d messages", got)
	}
	for _, p := range peers[:3] {
		if m := <-p.sendCh; m != (queued{kind: wire.MsgInv, hash: h}) {
			t.Fatalf("peer %d was sent %#v, want an Inv of %s", p.id, m, h)
		}
	}
}

// TestPeerSnapshotSurvivesConnectAndDisconnect: snapshots handed out before
// a disconnect and before a connect read as they did after both, while
// other goroutines read them, and the next snapshot is sorted and current.
// Run it with -race: neither the delete nor the install may write to a list
// already handed out.
func TestPeerSnapshotSurvivesConnectAndDisconnect(t *testing.T) {
	a := startNode(t, 1, nil)
	conns := map[uint64]net.Conn{}
	for _, id := range []uint64{30, 10, 20} {
		conns[id] = rawDial(t, a, id)
	}
	waitFor(t, "three peers", 2*time.Second, func() bool { return len(a.peerSnapshot()) == 3 })

	var held, want [][]*peer
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hold := func() {
		snap := a.peerSnapshot()
		held, want = append(held, snap), append(want, slices.Clone(snap))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum uint64
			for {
				select {
				case <-stop:
					_ = sum
					return
				default:
				}
				for _, p := range snap {
					sum += p.id
				}
			}
		}()
	}
	hold()
	_ = conns[20].Close()
	waitFor(t, "peer 20 gone", 2*time.Second, func() bool { return len(a.peerSnapshot()) == 2 })
	hold()
	conns[15] = rawDial(t, a, 15)
	waitFor(t, "peer 15 installed", 2*time.Second, func() bool { return len(a.peerSnapshot()) == 3 })
	close(stop)
	wg.Wait()

	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("snapshot %d changed to %v, want %v", i, snapshotIDs(held[i]), snapshotIDs(want[i]))
		}
	}
	if got := snapshotIDs(a.peerSnapshot()); !slices.Equal(got, []uint64{10, 15, 30}) {
		t.Fatalf("snapshot after the changes lists %v, want sorted [10 15 30]", got)
	}
}
