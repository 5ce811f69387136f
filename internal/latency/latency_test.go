package latency

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/rng"
)

func testUniverse(t *testing.T, n int) *geo.Universe {
	t.Helper()
	u, err := geo.SampleUniverse(n, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestRegionLayout(t *testing.T) {
	// Hub distances should be broadly consistent with published one-way
	// inter-continental latencies: nearby pairs below distant pairs.
	dist := func(a, b geo.Region) float64 {
		ca, cb := regionCenters[a], regionCenters[b]
		return math.Hypot(ca[0]-cb[0], ca[1]-cb[1])
	}
	naEU := dist(geo.NorthAmerica, geo.Europe)
	naAsia := dist(geo.NorthAmerica, geo.Asia)
	euAsia := dist(geo.Europe, geo.Asia)
	asiaChina := dist(geo.Asia, geo.China)
	if !(naEU < naAsia) {
		t.Errorf("NA-EU (%v) should be closer than NA-Asia (%v)", naEU, naAsia)
	}
	if !(asiaChina < euAsia) {
		t.Errorf("Asia-China (%v) should be closer than EU-Asia (%v)", asiaChina, euAsia)
	}
	for r := 0; r < geo.NumRegions; r++ {
		if regionRadii[r] <= 0 {
			t.Errorf("region %v has non-positive radius", geo.Region(r))
		}
	}
}

func TestGeographicSymmetryAndBounds(t *testing.T) {
	u := testUniverse(t, 200)
	g, err := NewGeographic(u, rng.New(1).Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, b uint8) bool {
		x, y := int(a)%200, int(b)%200
		d1 := g.Delay(x, y)
		d2 := g.Delay(y, x)
		if d1 != d2 {
			return false
		}
		if x == y {
			return d1 == 0
		}
		// Any distinct pair: positive, below a loose cap (route noise and
		// slow access tails can stack, but not into the seconds).
		return d1 > 0 && d1 < 3*time.Second
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestGeographicBimodal(t *testing.T) {
	// Mean intra-region latency must sit well below mean latency between
	// distant regions — the structure behind Figure 5's bimodality.
	u := testUniverse(t, 400)
	g, err := NewGeographic(u, rng.New(3).Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	var intraSum, interSum time.Duration
	var intraN, interN int
	for i := 0; i < 400; i++ {
		for j := i + 1; j < 400; j++ {
			d := g.Delay(i, j)
			switch {
			case u.Region(i) == u.Region(j):
				intraSum += d
				intraN++
			case (u.Region(i) == geo.NorthAmerica && u.Region(j) == geo.Asia) ||
				(u.Region(i) == geo.Asia && u.Region(j) == geo.NorthAmerica):
				interSum += d
				interN++
			}
		}
	}
	if intraN == 0 || interN == 0 {
		t.Skip("universe sample lacks needed pairs")
	}
	intra := intraSum / time.Duration(intraN)
	inter := interSum / time.Duration(interN)
	if !(intra < inter/2) {
		t.Fatalf("intra-region mean %v not well below NA-Asia mean %v", intra, inter)
	}
}

func TestGeographicHeterogeneousWithinRegionPair(t *testing.T) {
	// Two nodes of the same region must not all be equivalent: per-node
	// position and access spread is what Perigee learns. Check the spread
	// of delays from one node to many nodes of a single region.
	u := testUniverse(t, 500)
	g, err := NewGeographic(u, rng.New(5).Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	var ds []time.Duration
	for j := 1; j < 500; j++ {
		if u.Region(j) == u.Region(0) && j != 0 {
			ds = append(ds, g.Delay(0, j))
		}
	}
	if len(ds) < 10 {
		t.Skip("not enough same-region nodes")
	}
	minD, maxD := ds[0], ds[0]
	for _, d := range ds {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if maxD < 2*minD {
		t.Fatalf("same-region delays too uniform: min %v, max %v", minD, maxD)
	}
}

func TestGeographicZeroJitterDeterministicDistance(t *testing.T) {
	u := testUniverse(t, 50)
	stream := rng.New(1)
	g, err := NewGeographic(u, stream)
	if err != nil {
		t.Fatal(err)
	}
	// The delay is exactly the Euclidean position distance plus both
	// access delays, scaled by the stream's jitter and route factors for
	// the pair.
	for i := 0; i < 50; i++ {
		if g.accessMs[i] < 0 {
			t.Fatalf("node %d has access delay %v ms", i, g.accessMs[i])
		}
		for j := i + 1; j < 50; j++ {
			dx, dy := g.pos[i][0]-g.pos[j][0], g.pos[i][1]-g.pos[j][1]
			ms := math.Sqrt(dx*dx+dy*dy) + g.accessMs[i] + g.accessMs[j]
			ms *= stream.PairJitter(i, j, 0.1)
			ms *= stream.PairLogNormal(i, j, 0.45)
			want := time.Duration(ms * float64(time.Millisecond))
			if got := g.Delay(i, j); got != want {
				t.Fatalf("delay(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestGeographicTrialResampling(t *testing.T) {
	u := testUniverse(t, 100)
	root := rng.New(9)
	g1, err := NewGeographic(u, root.DeriveIndexed("trial", 0))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGeographic(u, root.DeriveIndexed("trial", 1))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 100; i++ {
		if g1.Delay(i, (i+1)%100) != g2.Delay(i, (i+1)%100) {
			diff++
		}
	}
	if diff < 50 {
		t.Fatalf("only %d/100 links differ between trials; jitter not trial-dependent", diff)
	}
}

func TestNewGeographicErrors(t *testing.T) {
	u := testUniverse(t, 10)
	if _, err := NewGeographic(nil, rng.New(1)); err == nil {
		t.Fatal("expected error for nil universe")
	}
	if _, err := NewGeographic(u, nil); err == nil {
		t.Fatal("expected error for nil stream")
	}
}

func TestHypercube(t *testing.T) {
	h, err := NewHypercube(100, 2, 100*time.Millisecond, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 100 || len(h.points[0]) != 2 {
		t.Fatalf("N=%d dim=%d", h.N(), len(h.points[0]))
	}
	maxDist := 0.0
	for i := 0; i < 100; i++ {
		if h.Delay(i, i) != 0 {
			t.Fatal("self delay must be zero")
		}
		for j := i + 1; j < 100; j++ {
			if h.Delay(i, j) != h.Delay(j, i) {
				t.Fatal("asymmetric hypercube delay")
			}
			d := h.Distance(i, j)
			if d < 0 || d > 1.4142135623731 {
				t.Fatalf("distance %v outside [0, sqrt(2)]", d)
			}
			if d > maxDist {
				maxDist = d
			}
			want := time.Duration(d * float64(100*time.Millisecond))
			if got := h.Delay(i, j); got != want {
				t.Fatalf("delay scaling wrong: %v != %v", got, want)
			}
		}
	}
	if maxDist < 0.5 {
		t.Fatalf("100 uniform points should spread out; max distance %v", maxDist)
	}
}

func TestHypercubePointsInUnitCube(t *testing.T) {
	h, err := NewHypercube(50, 5, time.Second, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < h.N(); i++ {
		for _, c := range h.points[i] {
			if c < 0 || c >= 1 {
				t.Fatalf("coordinate %v outside [0,1)", c)
			}
		}
	}
}

func TestNewHypercubeErrors(t *testing.T) {
	if _, err := NewHypercube(0, 2, time.Second, rng.New(1)); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewHypercube(5, 0, time.Second, rng.New(1)); err == nil {
		t.Fatal("expected error for dim=0")
	}
	if _, err := NewHypercube(5, 2, 0, rng.New(1)); err == nil {
		t.Fatal("expected error for zero scale")
	}
	if _, err := NewHypercube(5, 2, time.Second, nil); err == nil {
		t.Fatal("expected error for nil stream")
	}
}

func TestOverride(t *testing.T) {
	base := Constant{Nodes: 10, D: 100 * time.Millisecond}
	o, err := NewOverride(base)
	if err != nil {
		t.Fatal(err)
	}
	if o.N() != 10 {
		t.Fatalf("N = %d", o.N())
	}
	if err := o.Set(2, 7, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := o.Delay(2, 7); got != 5*time.Millisecond {
		t.Fatalf("override not applied: %v", got)
	}
	if got := o.Delay(7, 2); got != 5*time.Millisecond {
		t.Fatalf("override not symmetric: %v", got)
	}
	if got := o.Delay(1, 2); got != 100*time.Millisecond {
		t.Fatalf("non-overridden pair changed: %v", got)
	}
	if len(o.overrides) != 1 {
		t.Fatalf("%d overridden pairs", len(o.overrides))
	}
}

func TestOverrideErrors(t *testing.T) {
	if _, err := NewOverride(nil); err == nil {
		t.Fatal("expected error for nil base")
	}
	o, err := NewOverride(Constant{Nodes: 5, D: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Set(1, 1, time.Millisecond); err == nil {
		t.Fatal("expected error for self pair")
	}
	if err := o.Set(0, 9, time.Millisecond); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	if err := o.Set(0, 1, -time.Millisecond); err == nil {
		t.Fatal("expected error for negative delay")
	}
}

func TestConstant(t *testing.T) {
	c := Constant{Nodes: 3, D: time.Second}
	if c.Delay(0, 0) != 0 {
		t.Fatal("self delay must be zero")
	}
	if c.Delay(0, 1) != time.Second {
		t.Fatal("wrong constant delay")
	}
}

func TestPrecomputeEdges(t *testing.T) {
	u, err := geo.SampleUniverse(6, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGeographic(u, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	// CSR of the 6-cycle 0-1-2-3-4-5-0.
	rowStart := []int32{0, 2, 4, 6, 8, 10, 12}
	edgeDst := []int32{1, 5, 0, 2, 1, 3, 2, 4, 3, 5, 0, 4}
	out := make([]time.Duration, len(edgeDst))
	if err := PrecomputeEdges(g, rowStart, edgeDst, out); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		for e := rowStart[v]; e < rowStart[v+1]; e++ {
			if want := g.Delay(v, int(edgeDst[e])); out[e] != want {
				t.Fatalf("edge (%d, %d): precomputed %v, model %v", v, edgeDst[e], out[e], want)
			}
		}
	}
}

func TestPrecomputeEdgesErrors(t *testing.T) {
	if err := PrecomputeEdges(nil, []int32{0}, nil, nil); err == nil {
		t.Fatal("expected error for nil model")
	}
	c := Constant{Nodes: 2, D: time.Millisecond}
	if err := PrecomputeEdges(c, nil, nil, nil); err == nil {
		t.Fatal("expected error for empty row index")
	}
	if err := PrecomputeEdges(c, []int32{0, 1, 2}, []int32{1, 0}, make([]time.Duration, 1)); err == nil {
		t.Fatal("expected error for short delay buffer")
	}
}
