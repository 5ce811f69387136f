package bench

import (
	"slices"
	"testing"

	"github.com/perigee-net/perigee/internal/core"
)

// TestRoundObservations checks the captures the scoring benchmarks rotate
// over, the uniform round's, the pools round's and the 10-block window's:
// one matrix per node of the engine — at least the 256 distinct ones the
// rotation is meant to have — each a full round, or a full window, of a full
// neighbor set.
func TestRoundObservations(t *testing.T) {
	for _, c := range []struct {
		name   string
		round  []core.Observations
		blocks int
	}{
		{"uniform", RoundObservations(), 100},
		{"pools", PoolsRoundObservations(), 100},
		{"window", WindowRoundObservations(), 10},
	} {
		name, round := c.name, c.round
		if len(round) != benchNodes || len(round) < 256 {
			t.Fatalf("%s: captured %d matrices, want %d (>= 256)", name, len(round), benchNodes)
		}
		for v, obs := range round {
			if len(obs.Neighbors) != 8 || len(obs.Offsets) != c.blocks {
				t.Fatalf("%s node %d: %d neighbors x %d blocks, want 8 x %d", name, v, len(obs.Neighbors), len(obs.Offsets), c.blocks)
			}
			if v > 0 && slices.Equal(obs.Neighbors, round[v-1].Neighbors) {
				t.Fatalf("%s: nodes %d and %d captured the same neighbor set %v", name, v-1, v, obs.Neighbors)
			}
		}
	}
}
