package bench

import (
	"slices"
	"testing"
)

// TestRoundObservations checks the capture the scoring benchmarks rotate
// over: one matrix per node of the engine — at least the 256 distinct ones
// the rotation is meant to have — each a full round of a full neighbor set.
func TestRoundObservations(t *testing.T) {
	round := RoundObservations()
	if len(round) != benchNodes || len(round) < 256 {
		t.Fatalf("captured %d matrices, want %d (>= 256)", len(round), benchNodes)
	}
	for v, obs := range round {
		if len(obs.Neighbors) != 8 || len(obs.Offsets) != 100 {
			t.Fatalf("node %d: %d neighbors x %d blocks, want 8 x 100", v, len(obs.Neighbors), len(obs.Offsets))
		}
		if v > 0 && slices.Equal(obs.Neighbors, round[v-1].Neighbors) {
			t.Fatalf("nodes %d and %d captured the same neighbor set %v", v-1, v, obs.Neighbors)
		}
	}
}
