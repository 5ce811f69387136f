package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: streams diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds agreed on %d of 64 draws", same)
	}
}

func TestDeriveIsStateless(t *testing.T) {
	parent := New(7)
	first := parent.Derive("latency")
	// Consume a lot of parent state; derivation must not care.
	for i := 0; i < 1000; i++ {
		parent.Uint64()
	}
	second := parent.Derive("latency")
	for i := 0; i < 50; i++ {
		if first.Uint64() != second.Uint64() {
			t.Fatalf("derive depends on parent draw state at draw %d", i)
		}
	}
}

func TestDeriveLabelsIndependent(t *testing.T) {
	parent := New(7)
	a := parent.Derive("alpha")
	b := parent.Derive("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different labels agreed on %d of 64 draws", same)
	}
}

func TestDeriveIndexed(t *testing.T) {
	parent := New(3)
	if parent.DeriveIndexed("trial", 0).Uint64() == parent.DeriveIndexed("trial", 1).Uint64() {
		// A single collision is not proof of failure, but with 64-bit
		// outputs it is overwhelmingly unlikely.
		t.Fatal("indexed derivations 0 and 1 produced identical first draw")
	}
	a := parent.DeriveIndexed("trial", 5)
	b := parent.DeriveIndexed("trial", 5)
	if a.Uint64() != b.Uint64() {
		t.Fatal("same index must produce the same stream")
	}
}

func TestPairJitterSymmetric(t *testing.T) {
	r := New(99)
	check := func(u, v uint16, ampRaw uint8) bool {
		amp := float64(ampRaw%50) / 100 // in [0, 0.49]
		a := r.PairJitter(int(u), int(v), amp)
		b := r.PairJitter(int(v), int(u), amp)
		return a == b
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairJitterBounds(t *testing.T) {
	r := New(123)
	check := func(u, v uint16) bool {
		const amp = 0.2
		j := r.PairJitter(int(u), int(v), amp)
		return j >= 1-amp && j <= 1+amp && !math.IsNaN(j)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairJitterDistribution(t *testing.T) {
	r := New(5)
	const amp = 0.25
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.PairJitter(i, i+1, amp)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("jitter mean %.4f too far from 1", mean)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

// TestPairHashGolden pins the keyed mixer: the 64-bit hash to the last bit,
// and the two transforms built on it to 1e-12 (their floating-point steps
// may fuse differently on another architecture). Every simulated latency in
// the repository hangs off these values, so a change here is a change of
// every golden file and of the options-hash version.
func TestPairHashGolden(t *testing.T) {
	for _, tc := range []struct {
		seed      uint64
		u, v      int
		hash      uint64
		jitter    float64
		logNormal float64
	}{
		{0, 0, 1, 0x61abedccb1a17a4c, 0.976305935377901, 1.0600907784676612},
		{1, 0, 1, 0x6c5f0dc051d2772a, 0.9846650809198441, 1.4816951227123534},
		{1, 1, 0, 0x6c5f0dc051d2772a, 0.9846650809198441, 1.4816951227123534},
		{1, 7, 7, 0xe4fa356f9ad2cea7, 1.078888576459362, 1.5370808839327084},
		{42, 3, 999, 0x70baf12f50428bde, 0.9880705021002104, 1.0019027071798565},
		{42, 19999, 20000, 0x81cd0ce6bf6b7a77, 1.0014070141477387, 1.1333637454898793},
		{1 << 63, 123456, 654321, 0xeb7a2cf906b9f821, 1.0839666005701887, 1.5767003581223777},
		{99, 0, 1 << 40, 0xdd32b1ea51cc591, 0.9108006849254002, 0.7184323365315374},
	} {
		r := New(tc.seed)
		h, j, l := r.pairHash(domainJitter, tc.u, tc.v), r.PairJitter(tc.u, tc.v, 0.1), r.PairLogNormal(tc.u, tc.v, 0.25)
		if h != tc.hash || math.Abs(j-tc.jitter) > 1e-12 || math.Abs(l-tc.logNormal) > 1e-12 {
			t.Errorf("{%d, %d, %d, %#x, %v, %v},", tc.seed, tc.u, tc.v, h, j, l)
		}
	}
}

func TestPairLogNormalSymmetricMeanOne(t *testing.T) {
	r := New(17)
	const sigma = 0.3
	var sum, sumSq float64
	count := 0
	for u := 0; u < 400; u++ {
		for v := u + 1; v < 400; v++ {
			x := r.PairLogNormal(u, v, sigma)
			if x != r.PairLogNormal(v, u, sigma) || !(x > 0) {
				t.Fatalf("PairLogNormal(%d,%d) = %v, not symmetric or not positive", u, v, x)
			}
			sum += x
			sumSq += x * x
			count++
		}
	}
	mean := sum / float64(count)
	stderr := math.Sqrt((sumSq/float64(count) - mean*mean) / float64(count))
	if math.Abs(mean-1) > 3*stderr {
		t.Fatalf("mean %.5f is %.1f standard errors from 1", mean, math.Abs(mean-1)/stderr)
	}
	if r.PairLogNormal(3, 4, 0) != 1 {
		t.Fatal("sigma 0 must give factor 1")
	}
}

// TestPairHashUniform bins the jitter's unit value over every pair
// u < v < 1500 (1.1 M pairs, 256 bins): χ² has 255 degrees of freedom, mean
// 255 and standard deviation 22.6, so 360 is more than 4.6 σ out.
func TestPairHashUniform(t *testing.T) {
	const n, bins = 1500, 256
	for _, seed := range []uint64{1, 2, 3} {
		r := New(seed)
		var counts [bins]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				unit := (r.PairJitter(u, v, 0.5) - 0.5) // in [0, 1]
				counts[min(int(unit*bins), bins-1)]++
			}
		}
		expected := float64(n*(n-1)/2) / bins
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 360 {
			t.Errorf("seed %d: χ² = %.1f over %d bins, want < 360", seed, chi2, bins)
		}
	}
}

// TestPairHashAvalanche flips single bits of u, of v and of the two key
// words: on average at least 24 of the 64 output bits must flip (an ideal
// mixer flips 32).
func TestPairHashAvalanche(t *testing.T) {
	base := New(7)
	draw := New(8)
	var flipped, trials int
	for i := 0; i < 2000; i++ {
		r := &RNG{seed: base.seed}
		u, v := int(draw.Uint32()), int(draw.Uint32())
		h := r.pairHash(domainJitter, u, v)
		bit := draw.IntN(32)
		for _, g := range []uint64{
			r.pairHash(domainJitter, u^1<<bit, v),
			r.pairHash(domainJitter, u, v^1<<bit),
			flipKey(r, 16+draw.IntN(16), uint(draw.IntN(8))).pairHash(domainJitter, u, v),
		} {
			flipped += bits.OnesCount64(h ^ g)
			trials++
		}
	}
	if mean := float64(flipped) / float64(trials); mean < 24 {
		t.Fatalf("a single input bit flips %.1f of 64 output bits on average, want >= 24", mean)
	}
}

func flipKey(r *RNG, b int, bit uint) *RNG {
	c := &RNG{seed: r.seed}
	c.seed[b] ^= 1 << bit
	return c
}

// TestDeriveAllocatesOnce pins a derived stream at one allocation: the RNG
// holds its rand.Rand and PCG by value.
func TestDeriveAllocatesOnce(t *testing.T) {
	parent := New(1)
	for name, derive := range map[string]func(){
		"New":           func() { New(7) },
		"Derive":        func() { parent.Derive("engine") },
		"DeriveIndexed": func() { parent.DeriveIndexed("node", 42) },
	} {
		if got := testing.AllocsPerRun(100, derive); got != 1 {
			t.Errorf("%s allocates %v times per stream, want 1", name, got)
		}
	}
}

// TestDeriveIndexedIntoReseeds reseeds one stream in place, the way the
// engine hands each node its worker's stream: whether the stream is zero or
// has drawn, it must then draw DeriveIndexed's sequence, and reseeding must
// allocate nothing.
func TestDeriveIndexedIntoReseeds(t *testing.T) {
	parent := New(3)
	var dst RNG
	for index := 0; index < 4; index++ {
		parent.DeriveIndexedInto(&dst, "node", index)
		want := parent.DeriveIndexed("node", index)
		for i := 0; i < 20; i++ {
			if got, w := dst.Uint64(), want.Uint64(); got != w {
				t.Fatalf("index %d draw %d: reseeded %#x, derived %#x", index, i, got, w)
			}
		}
		if dst.Seed() != want.Seed() {
			t.Fatalf("index %d: reseeded seed differs from the derived one", index)
		}
	}
	if got := testing.AllocsPerRun(100, func() { parent.DeriveIndexedInto(&dst, "node", 42) }); got != 0 {
		t.Fatalf("DeriveIndexedInto allocates %v times, want 0", got)
	}
}

// TestStreamsPinned pins the first draws of a root, a derived and an
// indexed stream: holding the generator by value must not move a bit.
func TestStreamsPinned(t *testing.T) {
	root := New(1)
	for _, tc := range []struct {
		r    *RNG
		want [2]uint64
	}{
		{root, [2]uint64{0xd724b410a47ce8c2, 0x40a324d415220eb0}},
		{root.Derive("engine"), [2]uint64{0x5234c4a9ae400594, 0x1d6c67bb3e09cad7}},
		{root.DeriveIndexed("node", 42), [2]uint64{0xe53a772d84ad0148, 0xbe35cb4fff89fd3f}},
	} {
		if got := [2]uint64{tc.r.Uint64(), tc.r.Uint64()}; got != tc.want {
			t.Errorf("first draws %#x, want %#x", got, tc.want)
		}
	}
}
