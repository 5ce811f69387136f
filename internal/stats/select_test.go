package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sortedDurationPercentile is the reference DurationPercentile's selection
// is held to: copy, sort everything, read the two order statistics.
func sortedDurationPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return InfDuration
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a, b := sorted[lo], sorted[hi]
	switch {
	case lo == hi:
		return a
	case b == InfDuration:
		return InfDuration
	}
	return a + time.Duration(float64(b-a)*(rank-float64(lo)))
}

// checkAgainstSort fails unless DurationPercentile equals the sort-based
// reference on ds at p, exactly, and leaves ds untouched.
func checkAgainstSort(t *testing.T, ds []time.Duration, p float64) {
	t.Helper()
	before := slices.Clone(ds)
	got, want := DurationPercentile(ds, p), sortedDurationPercentile(ds, p)
	if got != want {
		t.Fatalf("p=%v of %v: selection %v, sort reference %v", p, ds, got, want)
	}
	if !slices.Equal(ds, before) {
		t.Fatalf("p=%v: input modified: %v, was %v", p, ds, before)
	}
}

// sampleDurations draws n observations from `distinct` values (small counts
// force duplicates), each censored with probability inf.
func sampleDurations(r *rand.Rand, n, distinct int, inf float64) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		if r.Float64() < inf {
			ds[i] = InfDuration
		} else {
			ds[i] = time.Duration(r.Intn(distinct)) * 137 * time.Microsecond
		}
	}
	return ds
}

// TestDurationPercentileMatchesSort is the property test of the selection:
// over sizes, quantiles, duplicate densities and censoring rates — all
// censored and exactly one finite included — it must agree with a full
// sort to the last bit.
func TestDurationPercentileMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ps := []float64{0, 0.5, 0.9, 1, 1.0 / 3, 0.999}
	for _, n := range []int{1, 2, 3, 10, 100, 257} {
		for _, distinct := range []int{1, 2, 5, 1 << 20} {
			for _, inf := range []float64{0, 0.1, 0.5, 0.95, 1} {
				for trial := 0; trial < 8; trial++ {
					ds := sampleDurations(r, n, distinct, inf)
					for _, p := range ps {
						checkAgainstSort(t, ds, p)
					}
				}
			}
		}
		oneFinite := sampleDurations(r, n, 1, 1)
		for at := 0; at < n; at += max(1, n/7) {
			oneFinite[at] = time.Second
			for _, p := range ps {
				checkAgainstSort(t, oneFinite, p)
			}
			oneFinite[at] = InfDuration
		}
		// Already-ordered inputs are quickselect's classic bad case.
		ordered := sampleDurations(r, n, 1<<20, 0.2)
		slices.Sort(ordered)
		for _, p := range ps {
			checkAgainstSort(t, ordered, p)
		}
		slices.Reverse(ordered)
		for _, p := range ps {
			checkAgainstSort(t, ordered, p)
		}
	}
}

// FuzzDurationPercentile lets the fuzzer shape the sample (size, duplicate
// density, censoring rate, quantile); the seeds run in every go test.
func FuzzDurationPercentile(f *testing.F) {
	for _, n := range []uint8{1, 2, 10, 100} {
		for _, p := range []float64{0, 0.5, 0.9, 1} {
			f.Add(int64(n), n, uint8(3), uint8(64), p)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n, distinct, infOf256 uint8, p float64) {
		if !(p >= 0 && p <= 1) {
			t.Skipf("p=%v outside [0, 1] panics by contract", p)
		}
		r := rand.New(rand.NewSource(seed))
		checkAgainstSort(t, sampleDurations(r, int(n), int(distinct)+1, float64(infOf256)/256), p)
	})
}
