package netsim

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// randomSimMode is randomSim with an explicit latency mode, so streaming
// tests can build twin simulators over the identical sampled network.
func randomSimMode(t testing.TB, n int, sendInterval []time.Duration, mode latency.Mode) *Simulator {
	t.Helper()
	root := rng.New(99)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := latency.NewGeographic(u, root.Derive("lat"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topo"))
	if err != nil {
		t.Fatal(err)
	}
	fwd := make([]time.Duration, n)
	for i := range fwd {
		fwd[i] = 50 * time.Millisecond
	}
	sim, err := New(Config{Adj: tbl.Undirected(), Latency: model, Forward: fwd,
		SendInterval: sendInterval, LatencyMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestStreamingMatchesPrecomputed is the streaming-latency acceptance
// check: with identical inputs, a streaming simulator produces bit-for-bit
// the results of the precomputed one — Broadcast arrivals, per-edge
// arrivals, and the arrival-only pass — in both the analytic regime
// and under serialized uploads.
func TestStreamingMatchesPrecomputed(t *testing.T) {
	const n, sources = 250, 16
	for _, name := range []string{"analytic-regime", "serialized-uploads"} {
		t.Run(name, func(t *testing.T) {
			var intervals []time.Duration
			if name == "serialized-uploads" {
				intervals = make([]time.Duration, n)
				for i := range intervals {
					intervals[i] = time.Duration(i%7) * time.Millisecond
				}
			}
			pre := randomSimMode(t, n, intervals, latency.Precomputed)
			str := randomSimMode(t, n, intervals, latency.Streaming)
			if pre.Streaming() {
				t.Fatal("precomputed simulator reports streaming mode")
			}
			if !str.Streaming() {
				t.Fatal("streaming simulator reports precomputed mode")
			}
			if len(str.edgeDelay) != 0 {
				t.Fatalf("streaming simulator retains %d precomputed edge delays", len(str.edgeDelay))
			}
			for src := 0; src < sources; src++ {
				want, err := pre.Broadcast(src)
				if err != nil {
					t.Fatal(err)
				}
				wantCopy := snapshot(want)
				got, err := str.Broadcast(src)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, wantCopy, snapshot(got))

				if intervals != nil {
					// The analytic pass is undefined under upload
					// serialization.
					continue
				}
				wantArr, err := pre.ArrivalAnalytic(src)
				if err != nil {
					t.Fatal(err)
				}
				gotArr, err := str.ArrivalAnalytic(src)
				if err != nil {
					t.Fatal(err)
				}
				for v := range wantArr {
					if wantArr[v] != gotArr[v] {
						t.Fatalf("source %d node %d: analytic arrival %v != %v", src, v, gotArr[v], wantArr[v])
					}
				}
			}
		})
	}
}

// TestLatencyModeAutoThreshold pins the auto-selection contract the
// simulator builds on: Auto resolves to precomputed below the threshold
// and to streaming at and above it.
func TestLatencyModeAutoThreshold(t *testing.T) {
	if got := latency.Auto.Resolve(latency.StreamingAutoThreshold - 1); got != latency.Precomputed {
		t.Fatalf("Auto below threshold resolves to %v, want precomputed", got)
	}
	if got := latency.Auto.Resolve(latency.StreamingAutoThreshold); got != latency.Streaming {
		t.Fatalf("Auto at threshold resolves to %v, want streaming", got)
	}
	if got := latency.Streaming.Resolve(10); got != latency.Streaming {
		t.Fatalf("explicit streaming resolves to %v", got)
	}
	if got := latency.Precomputed.Resolve(1 << 30); got != latency.Precomputed {
		t.Fatalf("explicit precomputed resolves to %v", got)
	}
}

// TestStreamingValidation checks an invalid mode is rejected at
// construction.
func TestStreamingValidation(t *testing.T) {
	sim := randomSim(t, 30, nil)
	cfg := sim.cfg
	cfg.LatencyMode = latency.Mode(99)
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an invalid latency mode")
	}
}
