//go:build !race

package node

import (
	"runtime"
	"testing"
	"time"
)

// TestRelayMallocsPerBlock relays blocks through a three-node loopback line
// a → b → c, one at a time, and bounds the whole process's mallocs per
// block: a's mining and serving, b's decode, store and relay, c's decode
// and store, over one INV, one GETDATA and one BLOCK per hop. A relay that
// allocated per message again, as before one-hash INVs and GETDATAs were
// queued by value and a decoded BLOCK was served as it was read, costs
// about 25 a block here. (Skipped under -race.)
func TestRelayMallocsPerBlock(t *testing.T) {
	const blocks = 1024
	frozen := func(c *config) { c.Frozen = true }
	a, b, c := startNode(t, 0xA110, frozen), startNode(t, 0xA111, frozen), startNode(t, 0xA112, frozen)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Connect(c.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the line to connect", 2*time.Second, func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 2 && len(c.Peers()) == 1
	})
	txs := [][]byte{make([]byte, 1024)}
	relay := func(height uint64) {
		txs[0][0] = byte(height)
		if _, err := a.mineBlock(txs); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for c.store.Height() < height {
			if time.Now().After(deadline) {
				t.Fatalf("block %d did not reach the end of the line", height)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	// Warm up: grow every buffer, map and pool to its working size.
	const warm = 64
	for h := uint64(1); h <= warm; h++ {
		relay(h)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for h := uint64(warm + 1); h <= warm+blocks; h++ {
		relay(h)
	}
	runtime.ReadMemStats(&after)
	// About 10.1 a block: a's mined block (3) and the BLOCK message it
	// serves it in (1) and two decodes (3 each). Until b's and c's tables
	// reached observationCap, each one's sighting of the new block was one
	// more (12.1 a block, bound 14); its peer list is now a window of a
	// slab.
	const bound = 12
	if per := float64(after.Mallocs-before.Mallocs) / blocks; per > bound {
		t.Fatalf("%.2f mallocs per relayed block, want at most %d", per, bound)
	} else {
		t.Logf("%.2f mallocs per relayed block", per)
	}
}
