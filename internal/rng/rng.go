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
// A stream holds its generator by value: Rand points at the struct's own
// rand.Rand, which draws from its own PCG, so New and Derive allocate the
// stream alone, and DeriveIndexedInto reseeds an existing stream without
// allocating. An RNG must therefore not be copied by value; go vet's
// copylocks check reports a copy.
type RNG struct {
	_ noCopy
	*rand.Rand
	seed [32]byte
	gen  rand.Rand
	pcg  rand.PCG
}

// noCopy makes go vet's copylocks check report a by-value copy of the
// struct that holds it: a copied RNG would keep drawing from the original's
// generator.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New returns a stream rooted at the given integer seed.
func New(seed uint64) *RNG {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], seed)
	r := new(RNG)
	r.reseed(sha256.Sum256(buf[:]))
	return r
}

// reseed points r at the stream whose seed is digest, as if it had just
// been built from it.
func (r *RNG) reseed(digest [32]byte) {
	r.seed = digest
	r.pcg.Seed(binary.LittleEndian.Uint64(digest[0:8]), binary.LittleEndian.Uint64(digest[8:16]))
	r.gen = *rand.New(&r.pcg)
	r.Rand = &r.gen
}

// labelled returns the receiver's seed followed by label, in buf when it
// fits: the hash input every derivation starts from.
func (r *RNG) labelled(buf []byte, label string) []byte {
	return append(append(buf[:0], r.seed[:]...), label...)
}

// Derive returns an independent stream identified by label. Derivation
// depends only on the receiver's seed and the label, never on how many
// values have been drawn from the receiver.
func (r *RNG) Derive(label string) *RNG {
	var buf [64]byte
	d := new(RNG)
	d.reseed(sha256.Sum256(r.labelled(buf[:], label)))
	return d
}

// DeriveIndexed returns an independent stream identified by a label and an
// integer index, convenient for per-trial or per-node streams.
func (r *RNG) DeriveIndexed(label string, index int) *RNG {
	d := new(RNG)
	r.DeriveIndexedInto(d, label, index)
	return d
}

// DeriveIndexedInto reseeds dst, which may be a zero RNG, as the stream
// DeriveIndexed(label, index) returns, whatever dst had drawn before. It
// allocates nothing for a label of up to 24 bytes, so a driver can hand
// each node of a round its own stream from one reused value per worker.
func (r *RNG) DeriveIndexedInto(dst *RNG, label string, index int) {
	var buf [64]byte
	in := binary.LittleEndian.AppendUint64(r.labelled(buf[:], label), uint64(index))
	dst.reseed(sha256.Sum256(in))
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
