package perigee

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// keepAllSelector is a custom policy written purely against the public
// API: it never rotates anything.
type keepAllSelector struct{}

func (keepAllSelector) SelectNeighbors(view NeighborView) (Decision, error) {
	keep := make([]int, len(view.Observations.Neighbors))
	for i := range keep {
		keep[i] = i
	}
	return Decision{Keep: keep}, nil
}

// TestCustomSelectorDrivesSimulator is the acceptance check for the
// selector API on the simulator side: a custom Selector implemented
// outside the library runs unmodified through perigee.New, and its
// decisions — keep everything, dial nothing — are exactly what happens.
func TestCustomSelectorDrivesSimulator(t *testing.T) {
	net, err := New(50, WithRoundBlocks(5), WithSelector(keepAllSelector{}))
	if err != nil {
		t.Fatal(err)
	}
	before := net.Adjacency()
	sum, err := net.Step()
	if err != nil {
		t.Fatal(err)
	}
	if sum.ConnectionsDropped != 0 || sum.ConnectionsAdded != 0 {
		t.Fatalf("keep-all selector still churned connections: %+v", sum)
	}
	if !reflect.DeepEqual(before, net.Adjacency()) {
		t.Fatal("keep-all selector changed the topology")
	}
}

func TestRandomSelectorDeterministicRuns(t *testing.T) {
	build := func() *Network {
		t.Helper()
		net, err := New(50, WithSeed(9), WithRoundBlocks(5), WithSelector(RandomSelector(2)))
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Run(3); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Adjacency(), b.Adjacency()) {
		t.Fatal("random-selector networks diverge for equal seeds")
	}
}

func TestSelectorOptionValidation(t *testing.T) {
	if _, err := New(50, WithSelector(nil)); err == nil {
		t.Fatal("nil selector accepted")
	}
	// Built-in constructor argument errors surface when the option is
	// applied, not on the first round.
	if _, err := New(50, WithSelector(SubsetSelector(-1, 0.9))); err == nil ||
		!strings.Contains(err.Error(), "explore") {
		t.Fatalf("invalid built-in selector accepted: %v", err)
	}
	if _, err := New(50, WithSelector(UCBSelector(1.7, 0))); err == nil {
		t.Fatal("invalid UCB percentile accepted")
	}
}

// TestDecideContract exercises the exported Decide helper custom
// selectors are tested against.
func TestDecideContract(t *testing.T) {
	view := NeighborView{
		OutDegree: 3,
		Observations: Observations{
			Neighbors: []int{7, 8, 9},
			Offsets:   [][]time.Duration{{0, time.Millisecond, Censored}},
		},
	}
	bad := SelectorFunc(func(NeighborView) (Decision, error) {
		return Decision{Keep: []int{0}}, nil // incomplete partition
	})
	if _, err := Decide(bad, view); err == nil {
		t.Fatal("incomplete decision accepted")
	}
	good := SelectorFunc(func(v NeighborView) (Decision, error) {
		return Decision{Keep: []int{0, 1}, Drop: []int{2}, Dial: 1}, nil
	})
	d, err := Decide(good, view)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dial != 1 || len(d.Drop) != 1 {
		t.Fatalf("decision altered: %+v", d)
	}
}

// TestSelectorObserverStream: a custom selector composes with the
// streaming observer pipeline — the edge churn it causes is reported
// exactly.
func TestSelectorObserverStream(t *testing.T) {
	// Rotate exactly one neighbor per round, deterministically.
	rotateOne := SelectorFunc(func(view NeighborView) (Decision, error) {
		k := len(view.Observations.Neighbors)
		if k == 0 {
			return Decision{Dial: view.OutDegree}, nil
		}
		keep := make([]int, 0, k-1)
		for i := 1; i < k; i++ {
			keep = append(keep, i)
		}
		return Decision{Keep: keep, Drop: []int{0}, Dial: 1}, nil
	})
	var drops, adds int
	obs := ObserverFunc(func(net *Network, s RoundStats) {
		drops += len(s.DroppedEdges)
		adds += len(s.AddedEdges)
	})
	net, err := New(50, WithRoundBlocks(5), WithSelector(rotateOne), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Run(2); err != nil {
		t.Fatal(err)
	}
	if drops != 2*50 {
		t.Fatalf("observer saw %d drops, want one per node per round = 100", drops)
	}
	if adds != 2*50 {
		t.Fatalf("observer saw %d adds, want one per node per round = 100", adds)
	}
}
