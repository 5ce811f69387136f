package workload

import (
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/des"
)

// landed drains in until t and returns what landed, per node.
func landed(in *inboxes, t time.Duration) map[int][]int32 {
	got := map[int][]int32{}
	in.drainUntil(t, func(node int, id int32) { got[node] = append(got[node], id) })
	return got
}

func TestInboxEqualTimesLandInMiningOrder(t *testing.T) {
	in := newInboxes(2)
	for id := int32(1); id <= 2*inboxReserve; id++ {
		in.push(0, 10*time.Millisecond, id)
		in.push(1, time.Duration(id)*time.Millisecond, id) // overtaken by nothing
	}
	in.push(0, 5*time.Millisecond, 99) // earlier, and mined last
	got := landed(in, 11*time.Millisecond)
	want := []int32{99, 1, 2, 3, 4, 5, 6, 7, 8}
	if !slices.Equal(got[0], want) {
		t.Fatalf("node 0 landed %v, want %v", got[0], want)
	}
	if !slices.Equal(got[1], want[1:]) {
		t.Fatalf("node 1 landed %v, want %v", got[1], want[1:])
	}
	if in.pending != 0 {
		t.Fatalf("%d deliveries still pending", in.pending)
	}
}

// A drain bound is exclusive: a delivery exactly at a mining event does not
// land before it, so the miner's view still holds its old tip.
func TestInboxDeliveryAtBoundStaysQueued(t *testing.T) {
	v := newViews(2)
	in := newInboxes(2)
	const at = 300 * time.Millisecond
	b := v.tree.Add(0)
	v.deliver(0, b)
	in.push(1, at, b)
	in.drainUntil(at, v.deliver)
	if v.tip[1] != 0 || in.pending != 1 {
		t.Fatalf("delivery at the bound landed: tip %d, %d pending", v.tip[1], in.pending)
	}
	own := v.tree.Add(v.tip[1]) // node 1 mines on genesis: a fork
	v.deliver(1, own)
	in.drainUntil(at+1, v.deliver)
	if v.tip[1] != own || in.pending != 0 {
		t.Fatalf("tip %d after the rival landed, want the first-seen %d; %d pending", v.tip[1], own, in.pending)
	}
}

func TestInboxLaterMinedArrivingFirstLandsFirst(t *testing.T) {
	in := newInboxes(1)
	in.push(0, 40*time.Millisecond, 1)
	in.push(0, 30*time.Millisecond, 2)
	in.push(0, 20*time.Millisecond, 3)
	in.push(0, 35*time.Millisecond, 4)
	if got, want := landed(in, time.Second)[0], []int32{3, 2, 4, 1}; !slices.Equal(got, want) {
		t.Fatalf("landed %v, want %v", got, want)
	}
}

// Run's last drain is at Duration: nothing at or after it lands.
func TestInboxNothingLandsAtOrAfterDuration(t *testing.T) {
	const duration = time.Minute
	in := newInboxes(3)
	in.push(0, duration-1, 1)
	in.push(1, duration, 1)
	in.push(2, duration+time.Second, 1)
	got := landed(in, duration)
	if !slices.Equal(got[0], []int32{1}) || len(got[1]) != 0 || len(got[2]) != 0 {
		t.Fatalf("landed %v, want only node 0's delivery", got)
	}
	if in.pending != 2 {
		t.Fatalf("%d pending, want 2", in.pending)
	}
}

// fuzzInboxSeeds are the seed inputs of FuzzInboxMatchesHeap, committed
// under testdata/fuzz by TestGenerateSeedCorpus.
func fuzzInboxSeeds() map[string][]byte {
	return map[string][]byte{
		"seed-one-node":    {0, 1, 0, 5, 0, 9, 0, 0, 3, 2, 0, 1, 0},
		"seed-ties":        {3, 1, 0, 1, 1, 1, 2, 1, 3, 0, 0, 1, 0, 1, 1, 0, 2},
		"seed-overtake":    {4, 29, 0, 5, 1, 9, 2, 0, 1, 1, 3, 1, 0, 0, 3, 13, 3},
		"seed-grow":        {1, 1, 0, 5, 0, 9, 0, 13, 0, 17, 0, 21, 0, 25, 0, 29, 0, 0, 1, 1, 0, 0, 0},
		"seed-eight-nodes": {7, 5, 7, 9, 6, 13, 5, 17, 4, 0, 2, 21, 3, 25, 2, 29, 1, 1, 0, 0, 1, 8, 3},
	}
}

// FuzzInboxMatchesHeap holds the per-node inboxes to a global
// des.DeliveryQueue. The first byte picks 1–8 nodes; each later pair
// (a, b) is a mining event when a%4 == 0 — the clock moves b%4 ticks,
// everything before it lands, and the block id advances — and otherwise a
// delivery of the current block to node b at the clock plus (a>>2)%8 ticks,
// so ties are frequent. Each node's landing order must be the heap's order
// filtered to that node, and a final drain must leave the same deliveries
// queued.
func FuzzInboxMatchesHeap(f *testing.F) {
	for _, data := range fuzzInboxSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		in := newInboxes(n)
		var heap des.DeliveryQueue
		got, want := make([][]int32, n), make([][]int32, n)
		drain := func(bound time.Duration) {
			in.drainUntil(bound, func(node int, id int32) { got[node] = append(got[node], id) })
			for heap.Len() > 0 && heap.PeekMin().At < bound {
				d := heap.PopMin()
				want[d.Node] = append(want[d.Node], d.Slot)
			}
		}
		const tick = time.Millisecond
		clock, id := time.Duration(0), int32(1)
		for i := 1; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			if a%4 == 0 {
				clock += time.Duration(b%4) * tick
				drain(clock)
				id++
				continue
			}
			node, at := int(b)%n, clock+time.Duration((a>>2)%8)*tick
			in.push(node, at, id)
			heap.Push(des.Delivery{At: at, Node: int32(node), Slot: id})
		}
		drain(clock + 4*tick)
		for v := range got {
			if !slices.Equal(got[v], want[v]) {
				t.Fatalf("node %d landed %v, the heap %v", v, got[v], want[v])
			}
		}
		if in.pending != heap.Len() {
			t.Fatalf("%d deliveries still queued, the heap holds %d", in.pending, heap.Len())
		}
	})
}
