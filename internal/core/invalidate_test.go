package core

import (
	"slices"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/latency"
)

// scaledModel is a latency model whose delays change when factor does, the
// shape of an adversarial partition or route inflation.
type scaledModel struct {
	latency.Model
	factor time.Duration
}

func (m *scaledModel) Delay(u, v int) time.Duration { return m.factor * m.Model.Delay(u, v) }

// TestInvalidateNetworkCacheReachesSurvivingEdges: the engine carries an
// edge's delay for as long as the edge survives rewiring, so after a
// model's delays change InvalidateNetworkCache must re-derive every edge —
// the survivors too — whether the table version stood still or moved in
// between. A dirty flag that only forced a Reconfigure would leave the
// survivors on their old delays and fail both halves.
func TestInvalidateNetworkCacheReachesSurvivingEdges(t *testing.T) {
	tn := newTestNetwork(t, 80, 21)
	model := &scaledModel{Model: tn.lat, factor: 1}
	tn.lat = model
	params := DefaultParams(Subset)
	params.RoundBlocks = 10
	engine, err := NewEngine(tn.config(Subset, params))
	if err != nil {
		t.Fatal(err)
	}
	// probe reads every source's time to reach the whole network and
	// every node's mean receive delay off the engine's cached simulator.
	probe := func(e *Engine) []time.Duration {
		t.Helper()
		reach, err := e.Delays(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := e.ReceiveDelays(nil)
		if err != nil {
			t.Fatal(err)
		}
		return append(reach, recv...)
	}
	// fresh is the same probe from an engine that never saw another delay.
	fresh := func() []time.Duration {
		t.Helper()
		cfg := tn.config(Subset, params)
		cfg.Table = engine.Table().Clone()
		cfg.Latency = &scaledModel{Model: model.Model, factor: model.factor}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return probe(e)
	}

	if _, err := engine.Step(); err != nil {
		t.Fatal(err)
	}
	before := probe(engine)

	version := engine.Table().Version()
	model.factor = 2
	engine.InvalidateNetworkCache()
	after := probe(engine)
	if engine.Table().Version() != version {
		t.Fatal("table version moved without a round")
	}
	if slices.Equal(after, before) {
		t.Fatal("doubling every delay changed nothing the engine reports")
	}
	if want := fresh(); !slices.Equal(after, want) {
		t.Fatal("unchanged table version: the invalidated engine disagrees with a fresh one on the new delays")
	}

	if _, err := engine.Step(); err != nil {
		t.Fatal(err)
	}
	if engine.Table().Version() == version {
		t.Fatal("a Subset round left the table version unchanged")
	}
	model.factor = 3
	engine.InvalidateNetworkCache()
	if got, want := probe(engine), fresh(); !slices.Equal(got, want) {
		t.Fatal("changed table version: surviving edges kept the delays they had before the model changed")
	}
}
