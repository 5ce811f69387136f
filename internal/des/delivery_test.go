package des

import (
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// TestDeliveryQueueOrdersByTime pops a shuffled schedule in timestamp order.
func TestDeliveryQueueOrdersByTime(t *testing.T) {
	var q DeliveryQueue
	r := rand.New(rand.NewPCG(1, 2))
	times := make([]time.Duration, 500)
	for i := range times {
		times[i] = time.Duration(r.IntN(10_000)) * time.Microsecond
		q.Push(Delivery{At: times[i], Node: int32(i), Slot: 0})
	}
	sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
	for i, want := range times {
		if q.Len() != len(times)-i {
			t.Fatalf("Len = %d before pop %d", q.Len(), i)
		}
		got := q.PopMin()
		if got.At != want {
			t.Fatalf("pop %d: at = %v, want %v", i, got.At, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d left", q.Len())
	}
}

// TestDeliveryQueueFIFOTieBreak proves deliveries scheduled for the same
// instant pop in the order they were pushed, the determinism contract that
// replay reproducibility depends on.
func TestDeliveryQueueFIFOTieBreak(t *testing.T) {
	var q DeliveryQueue
	const at = 5 * time.Millisecond
	// Interleave tied timestamps with earlier/later ones so ties travel
	// through real sift-up/down paths, not a degenerate sorted heap.
	for i := 0; i < 64; i++ {
		q.Push(Delivery{At: at, Node: int32(i), Slot: int32(i % 7)})
		if i%3 == 0 {
			q.Push(Delivery{At: at + time.Duration(i+1)*time.Millisecond, Node: 1000 + int32(i)})
		}
		if i%5 == 0 {
			q.Push(Delivery{At: time.Duration(i) * time.Microsecond, Node: 2000 + int32(i)})
		}
	}
	next := int32(0)
	for q.Len() > 0 {
		d := q.PopMin()
		if d.At != at {
			continue
		}
		if d.Node != next {
			t.Fatalf("tied deliveries out of FIFO order: got node %d, want %d", d.Node, next)
		}
		if d.Slot != next%7 {
			t.Fatalf("delivery payload corrupted: node %d slot %d", d.Node, d.Slot)
		}
		next++
	}
	if next != 64 {
		t.Fatalf("drained %d tied deliveries, want 64", next)
	}
}
