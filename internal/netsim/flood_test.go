package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/stats"
)

// arrivalItem is one entry of the reference heap: node v is tentatively
// first reached at d.
type arrivalItem struct {
	d time.Duration
	v int32
}

// arrivalHeap is the binary min-heap on d that ordered the flood before the
// bucket queue; it survives here as heapFlood's queue.
type arrivalHeap struct {
	items []arrivalItem
}

func (q *arrivalHeap) push(it arrivalItem) {
	q.items = append(q.items, it)
	h := q.items
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *arrivalHeap) pop() arrivalItem {
	h := q.items
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.items = h[:last]
	h = q.items
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h[l].d < h[smallest].d {
			smallest = l
		}
		if r < last && h[r].d < h[smallest].d {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// heapFlood is the reference flood is held to: the same pass in strict
// arrival order off a binary heap, which is exact whatever the relay
// increments are. It fills arrival and, when non-nil, edgeFlat.
func (s *Simulator) heapFlood(source int32, arrival, edgeFlat []time.Duration) {
	for i := range arrival {
		arrival[i] = stats.InfDuration
	}
	for i := range edgeFlat {
		edgeFlat[i] = stats.InfDuration
	}
	silent, fwd, relay, intervals := s.cfg.Silent, s.cfg.Forward, s.cfg.RelayDelay, s.cfg.SendInterval
	rowStart, edgeDst, edgeSlot := s.rowStart, s.edgeDst, s.edgeSlot
	arrival[source] = 0
	var q arrivalHeap
	q.push(arrivalItem{d: 0, v: source})
	for len(q.items) > 0 {
		it := q.pop()
		v := it.v
		if it.d > arrival[v] {
			continue
		}
		depart := it.d
		if v != source {
			if silent != nil && silent[v] {
				continue
			}
			depart += fwd[v]
			if relay != nil {
				depart += relay[v]
			}
		}
		var interval time.Duration
		if intervals != nil {
			interval = intervals[v]
		}
		for e := rowStart[v]; e < rowStart[v+1]; e++ {
			w := edgeDst[e]
			t := depart + s.delayOf(v, e)
			depart += interval
			if edgeFlat != nil {
				edgeFlat[rowStart[w]+edgeSlot[e]] = t
			}
			if t < arrival[w] {
				arrival[w] = t
				q.push(arrivalItem{d: t, v: w})
			}
		}
	}
}

// matchHeapFlood fails unless bc's Broadcast from src equals heapFlood on
// Arrival and on every EdgeArrival slot, and the arrival-only pass equals
// its Arrival. It returns the broadcast's result.
func matchHeapFlood(t *testing.T, bc *Broadcaster, src int) Result {
	t.Helper()
	s := bc.sim
	wantArr := make([]time.Duration, s.n)
	wantEdge := make([]time.Duration, s.rowStart[s.n])
	s.heapFlood(int32(src), wantArr, wantEdge)
	got, err := bc.Broadcast(src)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := s.ArrivalAnalytic(src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantArr {
		if got.Arrival[v] != wantArr[v] || analytic[v] != wantArr[v] {
			t.Fatalf("src %d: arrival[%d] = %v (arrival-only pass %v), heap flood %v",
				src, v, got.Arrival[v], analytic[v], wantArr[v])
		}
		for i, a := range got.EdgeArrival[v] {
			if want := wantEdge[int(s.rowStart[v])+i]; a != want {
				t.Fatalf("src %d: edgeArrival[%d][%d] = %v, heap flood %v", src, v, i, a, want)
			}
		}
	}
	return got
}

// TestFloodMatchesHeap holds the bucket queue to the heap it replaced, bit
// for bit, over random graphs and the delay shapes that decide how the
// queue runs: a validation delay of zero everywhere or at one node (bucket
// width on its floor, buckets refilled while they drain), the uniform 50 ms
// of the evaluation (label-setting), relay delays that change between
// broadcasts (width re-read per flood), plus silent nodes and a silent
// source, serialized uploads and an unreachable component.
func TestFloodMatchesHeap(t *testing.T) {
	shapes := []struct {
		name    string
		opts    caseOpts
		forward func(v int, sampled time.Duration) time.Duration
	}{
		{"forward-zero", caseOpts{}, func(int, time.Duration) time.Duration { return 0 }},
		{"forward-50ms", caseOpts{}, func(int, time.Duration) time.Duration { return 50 * time.Millisecond }},
		{"forward-one-zero", caseOpts{}, func(v int, d time.Duration) time.Duration {
			if v == 3 {
				return 0
			}
			return d + time.Millisecond
		}},
		{"silent", caseOpts{silent: true}, nil},
		{"relay-mutated", caseOpts{relay: true}, nil},
		{"serialized", caseOpts{serialized: true}, nil},
		{"island", caseOpts{island: 5}, nil},
		{"ties-everything", caseOpts{ties: true, serialized: true, silent: true, relay: true, island: 3}, nil},
	}
	for seed := uint64(0); seed < 8; seed++ {
		for _, shape := range shapes {
			for _, mode := range []latency.Mode{latency.Precomputed, latency.Streaming} {
				t.Run(fmt.Sprintf("seed%d-%s-%v", seed, shape.name, mode), func(t *testing.T) {
					opts := shape.opts
					opts.mode = mode
					cfg := randomCase(t, seed*6151+11, opts)
					if shape.forward != nil {
						for v, d := range cfg.Forward {
							cfg.Forward[v] = shape.forward(v, d)
						}
					}
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					bc := sim.NewBroadcaster()
					n := len(cfg.Adj)
					sources := []int{0, (n - opts.island) / 2, n - 1}
					for _, src := range sources {
						matchHeapFlood(t, bc, src)
					}
					// An adversary switching behavior mid-run: the slice is
					// shared with the simulator, and the next flood's bucket
					// width follows it (one node stops withholding at all).
					for round := 0; cfg.RelayDelay != nil && round < 3; round++ {
						for v := range cfg.RelayDelay {
							cfg.RelayDelay[v] = time.Duration((v*5+round)%4) * time.Duration(round) * 30 * time.Millisecond
						}
						for _, src := range sources {
							matchHeapFlood(t, bc, src)
						}
					}
				})
			}
		}
	}
}

// fastLinks divides another model's delays by 50, so that many links cost
// less than the flood's 1.05 ms bucket floor.
type fastLinks struct{ latency.Model }

func (m fastLinks) Delay(u, v int) time.Duration { return m.Model.Delay(u, v) / 50 }

// TestInboundHopMatchesEdgeArrival holds the closed form the engine's
// rounds rebuild observations from to Broadcast's per-edge record, slot by
// slot: EdgeArrival[v][k] is the sender's departure plus InboundHop(v, k),
// where the miner departs at 0 and any other sender at its first arrival
// plus Forward and RelayDelay, and a silent or unreached sender never
// delivers. The shapes are TestFloodMatchesHeap's that bear on it: a zero
// validation delay (buckets on their floor, where a node relays again after
// its arrival improves), withholding relays, silent nodes and a silent
// miner, serialized uploads and an unreachable component, in both latency
// modes. ArrivalInto must give Broadcast's arrival vector. In streaming mode
// a count of δ evaluations shows that the zero-delay shape does make nodes
// relay again.
func TestInboundHopMatchesEdgeArrival(t *testing.T) {
	shapes := []struct {
		name string
		opts caseOpts
	}{
		{"forward-zero", caseOpts{}},
		{"everything", caseOpts{serialized: true, silent: true, relay: true, island: 3}},
		{"ties-everything", caseOpts{ties: true, serialized: true, silent: true, relay: true, island: 3}},
	}
	reRelays := 0
	for seed := uint64(0); seed < 6; seed++ {
		for _, shape := range shapes {
			for _, mode := range []latency.Mode{latency.Precomputed, latency.Streaming} {
				t.Run(fmt.Sprintf("seed%d-%s-%v", seed, shape.name, mode), func(t *testing.T) {
					opts := shape.opts
					opts.mode = mode
					cfg := randomCase(t, seed*7919+5, opts)
					if shape.name == "forward-zero" {
						for v := range cfg.Forward {
							cfg.Forward[v] *= time.Duration(v % 2)
						}
						cfg.Latency = fastLinks{cfg.Latency}
					}
					model := &countingModel{Model: cfg.Latency}
					cfg.Latency = model
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					bc := sim.NewBroadcaster()
					n := len(cfg.Adj)
					var arrival []time.Duration
					for _, src := range []int{0, (n - opts.island) / 2, n - 1} {
						model.calls = 0
						res, err := sim.Broadcast(src)
						if err != nil {
							t.Fatal(err)
						}
						if mode == latency.Streaming {
							once := 0 // δ evaluations if every relaying node relayed once
							for v, a := range res.Arrival {
								if a != stats.InfDuration && (v == src || cfg.Silent == nil || !cfg.Silent[v]) {
									once += len(cfg.Adj[v])
								}
							}
							if model.calls > once {
								reRelays++
							}
						}
						if arrival, err = bc.ArrivalInto(arrival, src); err != nil {
							t.Fatal(err)
						}
						for v := range res.Arrival {
							if arrival[v] != res.Arrival[v] {
								t.Fatalf("src %d: ArrivalInto[%d] = %v, Broadcast %v", src, v, arrival[v], res.Arrival[v])
							}
							for k, u := range sim.Row(v) {
								want := stats.InfDuration
								switch a := res.Arrival[u]; {
								case int(u) == src:
									want = sim.InboundHop(v, k)
								case a == stats.InfDuration || (cfg.Silent != nil && cfg.Silent[u]):
								default:
									want = a + cfg.Forward[u] + sim.InboundHop(v, k)
									if cfg.RelayDelay != nil {
										want += cfg.RelayDelay[u]
									}
								}
								if got := res.EdgeArrival[v][k]; got != want {
									t.Fatalf("src %d: EdgeArrival[%d][%d] (from %d) = %v, closed form %v", src, v, k, u, got, want)
								}
							}
						}
					}
				})
			}
		}
	}
	if reRelays == 0 {
		t.Fatal("no broadcast relayed any node twice; the zero-delay shape must exercise repeated relays")
	}
}

// TestFloodBucketCountIsBounded pins the far list: with relay delays of
// minutes the arrival times span far more bucket widths than the queue has
// buckets, so the flood must park late entries, restart its window where
// they begin — more than once — and still equal the heap.
func TestFloodBucketCountIsBounded(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		cfg := randomCase(t, seed*389+2, caseOpts{serialized: seed%2 == 1})
		n := len(cfg.Adj)
		for v := range cfg.Forward {
			cfg.Forward[v] = 50 * time.Millisecond
		}
		// Most nodes withhold for minutes, each for a different time, and
		// the rest not at all, so the width stays at 2^25 ns (33.5 ms).
		cfg.RelayDelay = make([]time.Duration, n)
		for v := range cfg.RelayDelay {
			if v%4 != 0 {
				cfg.RelayDelay[v] = time.Duration(2+v%7) * time.Minute
			}
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bc := sim.NewBroadcaster()
		for _, src := range []int{0, n / 2, n - 1} {
			res := matchHeapFlood(t, bc, src)
			var last time.Duration
			for _, a := range res.Arrival {
				if a != stats.InfDuration {
					last = max(last, a)
				}
			}
			if bc.queue.shift != 25 {
				t.Fatalf("seed %d: bucket shift %d, want 25 for a 50 ms smallest relay increment", seed, bc.queue.shift)
			}
			if span := int64(last >> bc.queue.shift); span < 3*floodBuckets {
				t.Fatalf("seed %d src %d: arrivals span %d bucket widths, want at least %d to leave the window repeatedly",
					seed, src, span, 3*floodBuckets)
			}
			if bc.queue.base == 0 {
				t.Fatalf("seed %d src %d: the bucket window never moved", seed, src)
			}
		}
	}
}
