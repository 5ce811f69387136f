//go:build !race

package netsim

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
)

// TestDelayToFractionNoSteadyStateAllocs proves the sorted-index scratch is
// reused: after the pool warms up, the hot path allocates nothing. (Skipped
// under -race, where the detector's instrumentation allocates.)
func TestDelayToFractionNoSteadyStateAllocs(t *testing.T) {
	const n = 500
	arrival := make([]time.Duration, n)
	power := make([]float64, n)
	r := rng.New(6)
	for i := range arrival {
		arrival[i] = time.Duration(r.IntN(300)) * time.Millisecond
		power[i] = 1.0 / n
	}
	// Warm the pool.
	if _, err := DelayToFraction(arrival, power, 0.9); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DelayToFraction(arrival, power, 0.9); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("DelayToFraction allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBroadcastNoSteadyStateAllocs proves the CSR hot path is
// allocation-free once the Broadcaster's scratch and delivery heap have
// grown to the topology's high-water mark: no closures, no container/heap
// boxing, no per-round rebuilds.
func TestBroadcastNoSteadyStateAllocs(t *testing.T) {
	sim := randomSim(t, 300, nil)
	// Warm up: grow the delivery heap and scratch to their high-water mark
	// (different sources flood different subtrees, so sweep a few).
	for src := 0; src < 10; src++ {
		if _, err := sim.Broadcast(src); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sim.Broadcast(src); err != nil {
			t.Fatal(err)
		}
		src = (src + 1) % sim.N()
	})
	if allocs > 0 {
		t.Fatalf("Broadcast allocates %.1f objects per call at steady state, want 0", allocs)
	}
}

// TestBroadcastSerializedNoSteadyStateAllocs covers the upload-serialization
// variant of the hot path.
func TestBroadcastSerializedNoSteadyStateAllocs(t *testing.T) {
	intervals := make([]time.Duration, 300)
	for i := range intervals {
		intervals[i] = time.Duration(i%5) * time.Millisecond
	}
	sim := randomSim(t, 300, intervals)
	for src := 0; src < 10; src++ {
		if _, err := sim.Broadcast(src); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sim.Broadcast(src); err != nil {
			t.Fatal(err)
		}
		src = (src + 1) % sim.N()
	})
	if allocs > 0 {
		t.Fatalf("serialized Broadcast allocates %.1f objects per call, want 0", allocs)
	}
}

// TestArrivalIntoNoSteadyStateAllocs covers the arrival-only flood a
// round's workers run, each through its own Broadcaster: once the queue and
// the destination buffer are warm it allocates nothing, and it never sizes
// the per-edge record Broadcast keeps.
func TestArrivalIntoNoSteadyStateAllocs(t *testing.T) {
	intervals := make([]time.Duration, 300)
	for i := range intervals {
		intervals[i] = time.Duration(i%3) * time.Millisecond
	}
	for _, sim := range []*Simulator{randomSim(t, 300, nil), randomSim(t, 300, intervals)} {
		bc := sim.NewBroadcaster()
		var buf []time.Duration
		var err error
		for src := 0; src < 10; src++ {
			if buf, err = bc.ArrivalInto(buf, src); err != nil {
				t.Fatal(err)
			}
		}
		src := 0
		allocs := testing.AllocsPerRun(100, func() {
			if buf, err = bc.ArrivalInto(buf, src); err != nil {
				t.Fatal(err)
			}
			src = (src + 1) % sim.N()
		})
		if allocs > 0 {
			t.Fatalf("ArrivalInto allocates %.1f objects per call at steady state, want 0", allocs)
		}
		if bc.edgeFlat != nil || bc.edgeArrival != nil || bc.arrival != nil {
			t.Fatal("ArrivalInto sized the Broadcaster's own scratch")
		}
	}
}

// TestArrivalAnalyticIntoNoSteadyStateAllocs proves the pooled bucket-queue
// pass allocates nothing once the queue pool and the caller's destination
// buffer are warm.
func TestArrivalAnalyticIntoNoSteadyStateAllocs(t *testing.T) {
	sim := randomSim(t, 300, nil)
	var buf []time.Duration
	var err error
	for src := 0; src < 10; src++ {
		if buf, err = sim.ArrivalAnalyticInto(buf, src); err != nil {
			t.Fatal(err)
		}
	}
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		if buf, err = sim.ArrivalAnalyticInto(buf, src); err != nil {
			t.Fatal(err)
		}
		src = (src + 1) % sim.N()
	})
	if allocs > 0 {
		t.Fatalf("ArrivalAnalyticInto allocates %.1f objects per call at steady state, want 0", allocs)
	}
}
