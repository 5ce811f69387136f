// Package geo models the node universe of a blockchain p2p network: which
// geographic region each node lives in.
//
// The paper samples 1000 nodes from a Bitnodes crawl spanning seven regions
// (North America, South America, Europe, Asia, Africa, China, Oceania).
// That snapshot is not redistributable, so this package synthesizes a
// universe with a region mix matching published Bitnodes distributions;
// DESIGN.md documents the substitution.
package geo

import (
	"fmt"

	"github.com/perigee-net/perigee/internal/rng"
)

// Region identifies one of the seven geographic regions used by the paper's
// evaluation.
type Region uint8

// The seven regions, in the order the paper lists them.
const (
	NorthAmerica Region = iota
	SouthAmerica
	Europe
	Asia
	Africa
	China
	Oceania

	numRegions = 7
)

// NumRegions is the number of distinct regions.
const NumRegions = int(numRegions)

var regionNames = [numRegions]string{
	"NorthAmerica",
	"SouthAmerica",
	"Europe",
	"Asia",
	"Africa",
	"China",
	"Oceania",
}

// String returns the region's name.
func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// DefaultWeights approximates the regional mix of reachable Bitcoin nodes
// reported by Bitnodes-style crawls around 2020: Europe and North America
// dominate, with meaningful Asian and Chinese populations and small tails
// elsewhere. Indexed by Region.
var DefaultWeights = [NumRegions]float64{
	NorthAmerica: 0.29,
	SouthAmerica: 0.03,
	Europe:       0.43,
	Asia:         0.12,
	Africa:       0.02,
	China:        0.08,
	Oceania:      0.03,
}

// Universe is an immutable assignment of nodes to regions.
type Universe struct {
	regions []Region
}

// SampleUniverse draws an n-node universe using DefaultWeights.
func SampleUniverse(n int, r *rng.RNG) (*Universe, error) {
	return SampleUniverseWeights(n, DefaultWeights[:], r)
}

// SampleUniverseWeights draws an n-node universe with the given region
// weights (one per region, need not be normalized).
func SampleUniverseWeights(n int, weights []float64, r *rng.RNG) (*Universe, error) {
	if n <= 0 {
		return nil, fmt.Errorf("geo: universe size %d must be positive", n)
	}
	if len(weights) != NumRegions {
		return nil, fmt.Errorf("geo: got %d weights, want %d", len(weights), NumRegions)
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("geo: negative weight %v for %v", w, Region(i))
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("geo: weights sum to zero")
	}
	cum := make([]float64, NumRegions)
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[NumRegions-1] = 1 // guard against floating-point shortfall
	regions := make([]Region, n)
	for i := range regions {
		u := r.Float64()
		for j, c := range cum {
			if u < c {
				regions[i] = Region(j)
				break
			}
		}
	}
	return &Universe{regions: regions}, nil
}

// N returns the number of nodes.
func (u *Universe) N() int { return len(u.regions) }

// Region returns node i's region.
func (u *Universe) Region(i int) Region { return u.regions[i] }
