package netsim

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// TestShardedBroadcastMatchesSingleQueue is the conservative-PDES
// acceptance check: for every shard and worker count, the sharded
// broadcaster produces bit-for-bit the unsharded Broadcaster's results —
// first arrivals and per-edge arrivals — in both the analytic regime and
// under serialized uploads.
func TestShardedBroadcastMatchesSingleQueue(t *testing.T) {
	const n, sources = 250, 24
	for _, name := range []string{"analytic-regime", "serialized-uploads"} {
		t.Run(name, func(t *testing.T) {
			var intervals []time.Duration
			if name == "serialized-uploads" {
				intervals = make([]time.Duration, n)
				for i := range intervals {
					intervals[i] = time.Duration(i%7) * time.Millisecond
				}
			}
			sim := randomSim(t, n, intervals)
			want := make([]Result, sources)
			for src := 0; src < sources; src++ {
				res, err := sim.Broadcast(src)
				if err != nil {
					t.Fatal(err)
				}
				want[src] = snapshot(res)
			}
			for _, shards := range []int{2, 4, 7} {
				for _, workers := range []int{1, 4} {
					sb, err := sim.NewShardedBroadcaster(shards, workers)
					if err != nil {
						t.Fatal(err)
					}
					if eff := sb.Shards(); eff < 2 {
						t.Fatalf("shards=%d degenerated to %d effective shards", shards, eff)
					}
					if sb.Lookahead() <= 0 {
						t.Fatalf("shards=%d: non-positive lookahead %v", shards, sb.Lookahead())
					}
					for src := 0; src < sources; src++ {
						res, err := sb.Broadcast(src)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, want[src], snapshot(res))
					}
				}
			}
		})
	}
}

// TestShardedBroadcastStreaming runs the shard equivalence on a streaming
// simulator: delays computed on the fly from many shard goroutines must
// still reproduce the unsharded results exactly.
func TestShardedBroadcastStreaming(t *testing.T) {
	const n, sources = 200, 12
	sim := randomSimMode(t, n, nil, latency.Streaming)
	sb, err := sim.NewShardedBroadcaster(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < sources; src++ {
		want, err := sim.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy := snapshot(want)
		got, err := sb.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, wantCopy, snapshot(got))
	}
}

// TestShardedBroadcasterReconfigure checks a sharded broadcaster survives
// Simulator.Reconfigure: the partition and lookahead resync lazily and the
// results still match the unsharded pass on the new topology.
func TestShardedBroadcasterReconfigure(t *testing.T) {
	const n = 150
	sim := randomSim(t, n, nil)
	sb, err := sim.NewShardedBroadcaster(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Broadcast(0); err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, rng.New(7).Derive("rewire"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Reconfigure(tbl.Undirected()); err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 8; src++ {
		want, err := sim.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		wantCopy := snapshot(want)
		got, err := sb.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, wantCopy, snapshot(got))
	}
}

// TestShardedBroadcasterValidation covers the constructor and source-range
// errors.
func TestShardedBroadcasterValidation(t *testing.T) {
	sim := randomSim(t, 40, nil)
	if _, err := sim.NewShardedBroadcaster(1, 0); err == nil {
		t.Fatal("NewShardedBroadcaster accepted a single shard")
	}
	sb, err := sim.NewShardedBroadcaster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Broadcast(-1); err == nil {
		t.Fatal("Broadcast accepted a negative source")
	}
	if _, err := sb.Broadcast(40); err == nil {
		t.Fatal("Broadcast accepted an out-of-range source")
	}
}

// TestShardedBroadcasterClampsShards checks a shard count above the node
// count is clamped rather than rejected, and still reproduces the
// unsharded results.
func TestShardedBroadcasterClampsShards(t *testing.T) {
	const n = 25
	sim := randomSim(t, n, nil)
	sb, err := sim.NewShardedBroadcaster(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eff := sb.Shards(); eff > n {
		t.Fatalf("effective shards %d exceeds node count %d", eff, n)
	}
	want, err := sim.Broadcast(3)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := snapshot(want)
	got, err := sb.Broadcast(3)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, wantCopy, snapshot(got))
}
