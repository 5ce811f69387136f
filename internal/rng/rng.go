// Package rng provides deterministic, splittable pseudo-random number
// streams for simulations.
//
// Every experiment in this repository is driven by a single root seed.
// Independent subsystems (latency jitter, hash-power sampling, topology
// construction, exploration, ...) derive their own named streams from that
// root so that adding a random draw in one subsystem never perturbs the
// sequence observed by another. Derivation is stateless: deriving the same
// label twice yields identical streams regardless of how much state the
// parent has consumed.
//
// Per-pair values (PairJitter, PairLogNormal) come from a keyed 64-bit
// mixer over the stream's seed and the pair, not from the stream's state
// and not from a cryptographic hash: they are reproducible and well mixed
// for node indices, and must not be relied on against adversarial inputs.
package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream. It embeds *rand.Rand, so all the
// usual drawing methods (Float64, IntN, Perm, Shuffle, ExpFloat64, ...) are
// available directly.
//
// A stream built by New or Derive holds its generator by value: Rand points
// at the struct's own rand.Rand, which draws from its own PCG, so a stream
// is one allocation (the engine derives one per node per round). An RNG
// must therefore not be copied by value.
type RNG struct {
	*rand.Rand
	seed [32]byte
	gen  rand.Rand
	pcg  rand.PCG
}

// New returns a stream rooted at the given integer seed.
func New(seed uint64) *RNG {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	digest := sha256.Sum256(buf[:])
	return fromDigest(digest)
}

func fromDigest(digest [32]byte) *RNG {
	r := &RNG{seed: digest}
	r.pcg.Seed(binary.LittleEndian.Uint64(digest[0:8]), binary.LittleEndian.Uint64(digest[8:16]))
	r.gen = *rand.New(&r.pcg)
	r.Rand = &r.gen
	return r
}

// Derive returns an independent stream identified by label. Derivation
// depends only on the receiver's seed and the label, never on how many
// values have been drawn from the receiver.
func (r *RNG) Derive(label string) *RNG {
	h := sha256.New()
	h.Write(r.seed[:])
	h.Write([]byte(label))
	var digest [32]byte
	h.Sum(digest[:0])
	return fromDigest(digest)
}

// DeriveIndexed returns an independent stream identified by a label and an
// integer index, convenient for per-trial or per-node streams.
func (r *RNG) DeriveIndexed(label string, index int) *RNG {
	h := sha256.New()
	h.Write(r.seed[:])
	h.Write([]byte(label))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	var digest [32]byte
	h.Sum(digest[:0])
	return fromDigest(digest)
}

// Domain constants separating the pair-keyed functions' hash inputs.
const (
	domainJitter     = 0x2545f4914f6cdd1d
	domainLogNormal1 = 0xd1b54a32d192ed03
	domainLogNormal2 = 0x8cb92ba72f3d8dd7
)

// mix64 is the SplitMix64 finaliser, a bijection on 64-bit words in which
// every input bit flips each output bit with probability close to 1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// pairHash maps the unordered pair {u, v} to 64 bits under the stream's
// key (words 2 and 3 of its seed; words 0 and 1 seed the PCG) and a
// per-function domain: two chained mix64 rounds, stateless and
// allocation-free. It is a keyed mixer, not a cryptographic hash — fine for
// jitter over node indices, not for inputs an adversary chooses.
func (r *RNG) pairHash(domain uint64, u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	k0 := binary.LittleEndian.Uint64(r.seed[16:24])
	k1 := binary.LittleEndian.Uint64(r.seed[24:32])
	const gamma = 0x9e3779b97f4a7c15 // SplitMix64's increment: spreads small indices
	return mix64(mix64((k0^domain)+uint64(u)*gamma) ^ (k1 + uint64(v)*gamma))
}

// PairJitter returns a deterministic value in [1-amplitude, 1+amplitude]
// keyed by the unordered pair {u, v}. It is used for symmetric per-link
// latency jitter without storing an n-by-n matrix: calling with (u, v) or
// (v, u) yields the same factor, and the factor depends only on the
// receiver's seed.
func (r *RNG) PairJitter(u, v int, amplitude float64) float64 {
	return 1 - amplitude + 2*amplitude*unitFloat(r.pairHash(domainJitter, u, v))
}

// PairLogNormal returns a deterministic multiplicative factor keyed by the
// unordered pair {u, v}, distributed LogNormal(−σ²/2, σ) so its mean is 1.
// It models per-link routing inefficiency (Internet latencies deviate
// multiplicatively from clean metric embeddings). Symmetric in (u, v).
func (r *RNG) PairLogNormal(u, v int, sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	u1 := unitFloat(r.pairHash(domainLogNormal1, u, v))
	u2 := unitFloat(r.pairHash(domainLogNormal2, u, v))
	// Box-Muller; clamp u1 away from zero to keep log finite.
	if u1 < 1e-18 {
		u1 = 1e-18
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return math.Exp(sigma*z - sigma*sigma/2)
}

func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Seed exposes the stream's 32-byte seed, primarily for diagnostics.
func (r *RNG) Seed() [32]byte { return r.seed }
