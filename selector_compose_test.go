package perigee

import (
	"fmt"
	"slices"
	"testing"
)

// TestComposedBuiltinsKeepTheirOwnDecisions runs two built-ins on one view
// from inside a custom selector. The engine's decision scratch (view.Buf)
// must reach neither: otherwise RandomSelector's decision is written over
// the Keep that SubsetSelector just returned.
func TestComposedBuiltinsKeepTheirOwnDecisions(t *testing.T) {
	subset, random := SubsetSelector(2, 0.9), RandomSelector(2)
	checked := 0 // WithWorkers(1) decides the nodes one at a time
	composed := SelectorFunc(func(view NeighborView) (Decision, error) {
		first, err := subset.SelectNeighbors(view)
		if err != nil {
			return Decision{}, err
		}
		keep := slices.Clone(first.Keep)
		if _, err := random.SelectNeighbors(view); err != nil {
			return Decision{}, err
		}
		if !slices.Equal(first.Keep, keep) {
			return Decision{}, fmt.Errorf("subset Keep %v became %v once RandomSelector ran on the same view", keep, first.Keep)
		}
		checked++
		return first, nil
	})
	net, err := New(60, WithSeed(3), WithWorkers(1), WithRoundBlocks(10), WithSelector(composed))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(3); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("the composed selector never ran")
	}
}
