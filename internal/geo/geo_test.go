package geo

import (
	"math"
	"testing"

	"github.com/perigee-net/perigee/internal/rng"
)

func TestRegionString(t *testing.T) {
	if NorthAmerica.String() != "NorthAmerica" {
		t.Fatalf("got %q", NorthAmerica.String())
	}
	if Oceania.String() != "Oceania" {
		t.Fatalf("got %q", Oceania.String())
	}
	if Region(200).String() != "Region(200)" {
		t.Fatalf("got %q", Region(200).String())
	}
}

func TestSampleUniverseDistribution(t *testing.T) {
	r := rng.New(1)
	const n = 50000
	u, err := SampleUniverse(n, r)
	if err != nil {
		t.Fatal(err)
	}
	var counts [NumRegions]int
	for _, reg := range u.regions {
		counts[reg]++
	}
	for reg, want := range DefaultWeights {
		got := float64(counts[reg]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v: frequency %.3f, want ~%.3f", Region(reg), got, want)
		}
	}
}

func TestSampleUniverseDeterministic(t *testing.T) {
	a, err := SampleUniverse(100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleUniverse(100, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Region(i) != b.Region(i) {
			t.Fatalf("node %d: %v != %v", i, a.Region(i), b.Region(i))
		}
	}
}

func TestSampleUniverseWeightsErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := SampleUniverseWeights(0, DefaultWeights[:], r); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := SampleUniverseWeights(10, []float64{1, 2}, r); err == nil {
		t.Fatal("expected error for wrong weight count")
	}
	bad := make([]float64, NumRegions)
	bad[0] = -1
	if _, err := SampleUniverseWeights(10, bad, r); err == nil {
		t.Fatal("expected error for negative weight")
	}
	zero := make([]float64, NumRegions)
	if _, err := SampleUniverseWeights(10, zero, r); err == nil {
		t.Fatal("expected error for all-zero weights")
	}
}

func TestSampleUniverseSingleRegion(t *testing.T) {
	w := make([]float64, NumRegions)
	w[China] = 5
	u, err := SampleUniverseWeights(500, w, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < u.N(); i++ {
		if u.Region(i) != China {
			t.Fatalf("node %d in %v, want China", i, u.Region(i))
		}
	}
}
