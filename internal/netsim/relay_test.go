package netsim

import (
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

func TestRelayDelayWithholdsForwarding(t *testing.T) {
	// Line 0-1-2 with a withholding node 1: node 2's arrival is pushed
	// back by exactly the relay delay, while node 1's own arrival is not.
	const withhold = 70 * time.Millisecond
	base := lineConfig(3, 5*time.Millisecond)
	sim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	honestAt1, honestAt2 := honest.Arrival[1], honest.Arrival[2]

	withCfg := lineConfig(3, 5*time.Millisecond)
	withCfg.RelayDelay = []time.Duration{0, withhold, 0}
	withSim, err := New(withCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := withSim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrival[1] != honestAt1 {
		t.Errorf("withholding node's own arrival moved: %v vs %v", res.Arrival[1], honestAt1)
	}
	if want := honestAt2 + withhold; res.Arrival[2] != want {
		t.Errorf("arrival behind withholding relay: got %v, want %v", res.Arrival[2], want)
	}
}

func TestRelayDelayDoesNotApplyToSource(t *testing.T) {
	// A withholding source still announces its own block immediately.
	cfg := lineConfig(3, 0)
	cfg.RelayDelay = []time.Duration{time.Second, 0, 0}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * time.Millisecond; res.Arrival[1] != want {
		t.Errorf("neighbor of withholding source: got %v, want %v", res.Arrival[1], want)
	}
}

func TestRelayDelayAnalyticMatchesEventSim(t *testing.T) {
	// Random topologies with scattered withholding delays: the arrival-only
	// pass and the edge-recording pass must agree on every arrival.
	r := rng.New(99)
	for trial := 0; trial < 5; trial++ {
		tbl, err := topology.RandomUndirected(40, 4, r.DeriveIndexed("adj", trial))
		if err != nil {
			t.Fatal(err)
		}
		relay := make([]time.Duration, 40)
		for i := range relay {
			if r.Float64() < 0.3 {
				relay[i] = time.Duration(r.IntN(200)) * time.Millisecond
			}
		}
		sim, err := NewRows(Config{
			Latency:    latency.Constant{Nodes: 40, D: 10 * time.Millisecond},
			Forward:    uniformForward(40, 5*time.Millisecond),
			RelayDelay: relay,
		}, tbl)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 40; src += 7 {
			event, err := sim.Broadcast(src)
			if err != nil {
				t.Fatal(err)
			}
			analytic, err := sim.ArrivalAnalytic(src)
			if err != nil {
				t.Fatal(err)
			}
			for v := range analytic {
				if analytic[v] != event.Arrival[v] {
					t.Fatalf("trial %d src %d node %d: analytic %v vs event %v",
						trial, src, v, analytic[v], event.Arrival[v])
				}
			}
		}
	}
}

func TestRelayDelayValidation(t *testing.T) {
	cfg := lineConfig(3, 0)
	cfg.RelayDelay = []time.Duration{0, -time.Millisecond, 0}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative relay delay accepted")
	}
	cfg.RelayDelay = []time.Duration{0, 0}
	if _, err := New(cfg); err == nil {
		t.Fatal("short relay-delay table accepted")
	}
}
