package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"median odd", []float64{3, 1, 2}, 0.5, 2},
		{"median even interpolates", []float64{1, 2, 3, 4}, 0.5, 2.5},
		{"p0 is min", []float64{5, 1, 9}, 0, 1},
		{"p1 is max", []float64{5, 1, 9}, 1, 9},
		{"single element", []float64{7}, 0.9, 7},
		{"p90 of 1..10", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{"repeated values", []float64{2, 2, 2, 2}, 0.37, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Percentile(tc.xs, tc.p)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
			}
		})
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := Percentile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty percentile = %v, want NaN", got)
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p > 1")
		}
	}()
	Percentile([]float64{1}, 1.5)
}

func TestPercentileCensored(t *testing.T) {
	inf := math.Inf(1)
	xs := []float64{1, 2, 3, 4, 5, 6, 7, inf, inf, inf}
	// rank = 0.5*9 = 4.5 -> halfway between sorted[4]=5 and sorted[5]=6.
	if got := Percentile(xs, 0.5); got != 5.5 {
		t.Fatalf("median with censoring = %v, want 5.5", got)
	}
	if got := Percentile(xs, 0.9); !math.IsInf(got, 1) {
		t.Fatalf("p90 with 30%% censoring = %v, want +Inf", got)
	}
}

// Property: a percentile always lies within [min, max] and is monotone in p.
func TestPercentileProperties(t *testing.T) {
	check := func(raw []float64, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(p1%101) / 100
		b := float64(p2%101) / 100
		if a > b {
			a, b = b, a
		}
		qa := Percentile(xs, a)
		qb := Percentile(xs, b)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return qa >= sorted[0] && qb <= sorted[len(sorted)-1] && qa <= qb
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationPercentile(t *testing.T) {
	ds := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		30 * time.Millisecond,
	}
	if got := DurationPercentile(ds, 0.5); got != 20*time.Millisecond {
		t.Fatalf("median = %v", got)
	}
	if got := DurationPercentile(ds, 1); got != 30*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := DurationPercentile(nil, 0.5); got != InfDuration {
		t.Fatalf("empty = %v, want InfDuration", got)
	}
}

func TestDurationPercentileCensored(t *testing.T) {
	ds := []time.Duration{time.Second, 2 * time.Second, InfDuration, InfDuration}
	if got := DurationPercentile(ds, 0.9); got != InfDuration {
		t.Fatalf("p90 = %v, want InfDuration", got)
	}
	if got := DurationPercentile(ds, 0); got != time.Second {
		t.Fatalf("p0 = %v, want 1s", got)
	}
	// Interpolating strictly below the censored region stays finite.
	if got := DurationPercentile(ds, 1.0/3.0); got >= InfDuration {
		t.Fatalf("p33 = %v, want finite", got)
	}
}

// Property: DurationPercentile agrees with float Percentile on finite data.
func TestDurationPercentileMatchesFloat(t *testing.T) {
	check := func(raw []uint32, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := float64(pRaw%101) / 100
		ds := make([]time.Duration, len(raw))
		fs := make([]float64, len(raw))
		for i, v := range raw {
			ds[i] = time.Duration(v) * time.Microsecond
			fs[i] = float64(ds[i])
		}
		got := float64(DurationPercentile(ds, p))
		want := Percentile(fs, p)
		return math.Abs(got-want) <= 1 // integer truncation tolerance
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if !math.IsNaN(s.Mean()) {
		t.Fatal("empty summary should report NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if got := s.Std(); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("std = %v", got)
	}
	if s.n != 8 {
		t.Fatalf("n = %v", s.n)
	}
}

// Property: Welford summary matches naive two-pass computation.
func TestSummaryMatchesNaive(t *testing.T) {
	check := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, x := range xs {
			s.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(variance))
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Variance()-variance)/scale < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFSorted(t *testing.T) {
	in := []float64{3, 1, 2}
	out := CDF(in)
	if !sort.Float64sAreSorted(out) {
		t.Fatalf("CDF output not sorted: %v", out)
	}
	if in[0] != 3 {
		t.Fatal("CDF must not mutate its input")
	}
}

func TestAggregateSeries(t *testing.T) {
	mean, std, err := AggregateSeries([][]float64{{1, 10}, {3, 20}})
	if err != nil {
		t.Fatal(err)
	}
	if mean[0] != 2 || mean[1] != 15 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std[0]-math.Sqrt2) > 1e-12 {
		t.Fatalf("std = %v", std)
	}
}

func TestAggregateSeriesErrors(t *testing.T) {
	if _, _, err := AggregateSeries(nil); err == nil {
		t.Fatal("expected error for no trials")
	}
	if _, _, err := AggregateSeries([][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("expected error for ragged trials")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, 2.5, 9.99, -3, 42} {
		h.Add(x)
	}
	counts := h.counts
	if counts[0] != 3 { // 0, 1, and clamped -3
		t.Fatalf("bin 0 = %d, want 3", counts[0])
	}
	if counts[4] != 2 { // 9.99 and clamped 42
		t.Fatalf("bin 4 = %d, want 2", counts[4])
	}
	if h.total != 6 {
		t.Fatalf("total = %d", h.total)
	}
	fr := h.Fractions()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Fatal("expected error for zero bins")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("expected error for empty range")
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.BinCenter(0); got != 1 {
		t.Fatalf("center 0 = %v, want 1", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Fatalf("center 4 = %v, want 9", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 2, 2)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render(10)
	if out == "" {
		t.Fatal("empty render")
	}
}

// Property: histogram conserves mass regardless of input.
func TestHistogramConservesMass(t *testing.T) {
	check := func(raw []float64) bool {
		h, err := NewHistogram(-5, 5, 7)
		if err != nil {
			return false
		}
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		total := 0
		for _, c := range h.counts {
			total += c
		}
		return total == n && h.total == n
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
