package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/perigee-net/perigee/internal/stats"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestMethodString(t *testing.T) {
	if Vanilla.String() != "Perigee-Vanilla" || UCB.String() != "Perigee-UCB" || Subset.String() != "Perigee-Subset" {
		t.Fatal("method names changed")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatalf("got %q", Method(9).String())
	}
	if Method(9).Valid() || Method(-1).Valid() {
		t.Fatal("invalid methods reported valid")
	}
}

func TestNewObservations(t *testing.T) {
	o := NewObservations([]int{3, 7}, 4)
	if len(o.Offsets) != 4 {
		t.Fatalf("blocks = %d", len(o.Offsets))
	}
	for _, row := range o.Offsets {
		if len(row) != 2 {
			t.Fatalf("row width = %d", len(row))
		}
		for _, v := range row {
			if v != stats.InfDuration {
				t.Fatal("offsets should start censored")
			}
		}
	}
}

func TestVanillaScoresPrefersFasterNeighbor(t *testing.T) {
	o := NewObservations([]int{10, 20}, 10)
	for b := 0; b < 10; b++ {
		o.Offsets[b][0] = ms(5)  // always 5ms behind the best
		o.Offsets[b][1] = ms(50) // always 50ms behind
	}
	scores := VanillaScores(o, 0.9)
	if scores[0] >= scores[1] {
		t.Fatalf("faster neighbor scored worse: %v vs %v", scores[0], scores[1])
	}
	ranked := rankInto(nil, o, scores)
	if ranked[0] != 0 {
		t.Fatalf("rank order %v, want fastest first", ranked)
	}
}

func TestVanillaScoresCensoredWorst(t *testing.T) {
	o := NewObservations([]int{1, 2}, 5)
	for b := 0; b < 5; b++ {
		o.Offsets[b][0] = ms(100) // slow but delivers
		// neighbor 1 never delivers: stays InfDuration
	}
	scores := VanillaScores(o, 0.9)
	if scores[1] != stats.InfDuration {
		t.Fatalf("non-delivering neighbor score = %v, want InfDuration", scores[1])
	}
	if scores[0] >= scores[1] {
		t.Fatal("delivering neighbor must outrank silent one")
	}
}

func TestRankByScoreTieBreak(t *testing.T) {
	o := NewObservations([]int{42, 7}, 1)
	scores := []time.Duration{ms(5), ms(5)}
	ranked := rankInto(nil, o, scores)
	// Equal scores: lower node ID (7, at index 1) first.
	if ranked[0] != 1 || ranked[1] != 0 {
		t.Fatalf("tie-break wrong: %v", ranked)
	}
}

func TestSubsetSelectComplementarity(t *testing.T) {
	// Three neighbors, 10 blocks. A has the best raw percentile so the
	// greedy picks it first (fast for blocks 0-4, 40ms otherwise). B
	// complements A: fast exactly where A is slow, but its raw percentile
	// (100ms) is the worst of the three. C is uniformly mediocre (45ms).
	// Vanilla would keep {A, C}; the joint transform must keep {A, B}.
	o := NewObservations([]int{0, 1, 2}, 10)
	for b := 0; b < 10; b++ {
		if b < 5 {
			o.Offsets[b][0] = ms(1)
			o.Offsets[b][1] = ms(100)
		} else {
			o.Offsets[b][0] = ms(40)
			o.Offsets[b][1] = ms(2)
		}
		o.Offsets[b][2] = ms(45)
	}
	scores := VanillaScores(o, 0.9)
	if !(scores[0] < scores[2] && scores[2] < scores[1]) {
		t.Fatalf("test setup broken: want A < C < B individually, got %v", scores)
	}
	ranked := rankInto(nil, o, scores)
	if ranked[0] != 0 || ranked[1] != 2 {
		t.Fatalf("vanilla would keep %v, setup expects [0 2 ...]", ranked)
	}
	chosen := SubsetSelect(o, 2, 0.9)
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 1 {
		t.Fatalf("subset chose %v, want [0 1] (complementary pair)", chosen)
	}
}

func TestSubsetSelectDegenerate(t *testing.T) {
	o := NewObservations([]int{5, 6, 7}, 3)
	if got := SubsetSelect(o, 5, 0.9); len(got) != 3 {
		t.Fatalf("retain > k should return all: %v", got)
	}
	if got := SubsetSelect(o, 0, 0.9); got != nil {
		t.Fatalf("retain 0 should return nil: %v", got)
	}
}

func TestSubsetSelectTieBreaksOnIndividualScore(t *testing.T) {
	// Neighbor 0 delivers first on every block, so after it is chosen the
	// joint transform zeroes out everyone else — a full tie. The fast
	// neighbor 2 must win the tie over the never-delivering neighbor 1
	// even though neighbor 1 has the lower ID.
	o := NewObservations([]int{10, 20, 30}, 6)
	for b := 0; b < 6; b++ {
		o.Offsets[b][0] = 0      // always first
		o.Offsets[b][2] = ms(15) // fast but redundant
		// neighbor index 1 (ID 20) never delivers: stays censored
	}
	chosen := SubsetSelect(o, 2, 0.9)
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 2 {
		t.Fatalf("subset chose %v, want [0 2]: ties must break on individual score", chosen)
	}
}

func TestSubsetSelectFirstPickIsVanillaBest(t *testing.T) {
	o := NewObservations([]int{0, 1, 2}, 4)
	for b := 0; b < 4; b++ {
		o.Offsets[b][0] = ms(30)
		o.Offsets[b][1] = ms(10)
		o.Offsets[b][2] = ms(20)
	}
	chosen := SubsetSelect(o, 1, 0.9)
	if len(chosen) != 1 || chosen[0] != 1 {
		t.Fatalf("first pick %v, want [1]", chosen)
	}
}

// Property: SubsetSelect returns exactly min(retain, k) distinct, sorted,
// in-range indices for arbitrary observation matrices.
func TestSubsetSelectProperty(t *testing.T) {
	check := func(raw []uint16, kRaw, retainRaw uint8) bool {
		k := int(kRaw%6) + 1
		retain := int(retainRaw % 8)
		blocks := 3
		nbrs := make([]int, k)
		for i := range nbrs {
			nbrs[i] = i * 10
		}
		o := NewObservations(nbrs, blocks)
		pos := 0
		for b := 0; b < blocks; b++ {
			for i := 0; i < k; i++ {
				if pos < len(raw) {
					o.Offsets[b][i] = time.Duration(raw[pos]) * time.Microsecond
					pos++
				}
			}
		}
		chosen := SubsetSelect(o, retain, 0.9)
		want := retain
		if k < want {
			want = k
		}
		if len(chosen) != want {
			return false
		}
		for i, c := range chosen {
			if c < 0 || c >= k {
				return false
			}
			if i > 0 && chosen[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sortedPercentile is the textbook quantile the scoring kernels are held
// to: sort, interpolate between the two closest ranks, censored if the
// upper one is.
func sortedPercentile(ds []time.Duration, p float64) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a, b := sorted[lo], sorted[hi]
	if lo == hi || b == stats.InfDuration {
		return b
	}
	return a + time.Duration(float64(b-a)*(rank-float64(lo)))
}

// referenceSubsetSelect is §4.3's greedy selection written straight down:
// every step materializes each candidate's per-block minimum against the
// chosen set, sorts it for the percentile, and breaks ties by individual
// score and then neighbor ID.
func referenceSubsetSelect(obs Observations, retain int, pct float64) []int {
	k, blocks := len(obs.Neighbors), len(obs.Offsets)
	column := func(i int, best []time.Duration) []time.Duration {
		col := make([]time.Duration, blocks)
		for b := range col {
			col[b] = min(obs.Offsets[b][i], best[b])
		}
		return col
	}
	best := make([]time.Duration, blocks)
	for b := range best {
		best[b] = stats.InfDuration
	}
	individual := make([]time.Duration, k)
	for i := range individual {
		individual[i] = sortedPercentile(column(i, best), pct)
	}
	var chosen []int
	for len(chosen) < min(retain, k) {
		pick, pickScore := -1, stats.InfDuration
		for i := 0; i < k; i++ {
			if slices.Contains(chosen, i) {
				continue
			}
			score := sortedPercentile(column(i, best), pct)
			better := pick == -1 || score < pickScore
			if !better && score == pickScore {
				if individual[i] != individual[pick] {
					better = individual[i] < individual[pick]
				} else {
					better = obs.Neighbors[i] < obs.Neighbors[pick]
				}
			}
			if better {
				pick, pickScore = i, score
			}
		}
		chosen = append(chosen, pick)
		best = column(pick, best)
	}
	slices.Sort(chosen)
	return chosen
}

// TestSubsetSelectMatchesReference holds the optimized selection — columns
// transposed once, the first step reusing the individual scores, the
// percentile of a minimum taken without materializing it — to the
// straightforward one, index for index, over random matrices with censored
// cells, wholly censored columns and all-tie rounds, at the paper's 100
// blocks and at a 10-block observation window.
func TestSubsetSelectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, blocks := range []int{100, 10} {
		for trial := 0; trial < 300; trial++ {
			k := 2 + r.Intn(9)
			nbrs := r.Perm(1000)[:k]
			o := NewObservations(nbrs, blocks)
			// Few distinct values force joint-score ties; trial%5 == 0 is an
			// all-tie round (every neighbor delivers every block first).
			distinct := []int{1, 1, 3, 50, 1 << 20}[trial%5]
			censor := []float64{0, 0.05, 0.5}[trial%3]
			for b := range o.Offsets {
				for i := range o.Offsets[b] {
					if r.Float64() >= censor {
						o.Offsets[b][i] = time.Duration(r.Intn(distinct)) * 313 * time.Microsecond
					}
				}
			}
			if trial%4 == 1 { // a neighbor that never delivered anything
				dead := r.Intn(k)
				for b := range o.Offsets {
					o.Offsets[b][dead] = stats.InfDuration
				}
			}
			for _, retain := range []int{1, k / 2, k - 1, k} {
				got, want := SubsetSelect(o, retain, 0.9), referenceSubsetSelect(o, retain, 0.9)
				if !slices.Equal(got, want) {
					t.Fatalf("blocks=%d trial=%d k=%d retain=%d: chose %v, reference %v", blocks, trial, k, retain, got, want)
				}
			}
		}
	}
}

func TestUCBBounds(t *testing.T) {
	samples := []time.Duration{ms(10), ms(20), ms(30), ms(40), ms(50)}
	lcb, ucb := UCBBounds(samples, 0.9, ms(100))
	if lcb > ucb {
		t.Fatalf("lcb %v above ucb %v", lcb, ucb)
	}
	est := stats.DurationPercentile(samples, 0.9)
	if !(lcb <= est && est <= ucb) {
		t.Fatalf("estimate %v outside [%v, %v]", est, lcb, ucb)
	}
	if lcb < 0 {
		t.Fatal("lcb clamped below zero")
	}
}

func TestUCBBoundsSingleSampleHasZeroBonus(t *testing.T) {
	lcb, ucb := UCBBounds([]time.Duration{ms(25)}, 0.9, ms(100))
	if lcb != ms(25) || ucb != ms(25) {
		t.Fatalf("log(1)=0 should give zero bonus, got [%v, %v]", lcb, ucb)
	}
}

func TestUCBBoundsShrinkWithSamples(t *testing.T) {
	// More samples of the same distribution narrow the interval.
	small := make([]time.Duration, 5)
	large := make([]time.Duration, 500)
	for i := range small {
		small[i] = ms(10)
	}
	for i := range large {
		large[i] = ms(10)
	}
	l1, u1 := UCBBounds(small, 0.9, ms(100))
	l2, u2 := UCBBounds(large, 0.9, ms(100))
	if (u1 - l1) <= (u2 - l2) {
		t.Fatalf("interval did not shrink: small=%v large=%v", u1-l1, u2-l2)
	}
}

func TestUCBBoundsEmpty(t *testing.T) {
	lcb, ucb := UCBBounds(nil, 0.9, ms(100))
	if lcb != stats.InfDuration || ucb != stats.InfDuration {
		t.Fatalf("empty samples should be (Inf, Inf), got (%v, %v)", lcb, ucb)
	}
}

func TestUCBEvict(t *testing.T) {
	// Neighbor 2's lcb (90) is above neighbor 0's ucb (50): evict 2.
	lcbs := []time.Duration{ms(10), ms(40), ms(90)}
	ucbs := []time.Duration{ms(50), ms(80), ms(130)}
	if got := UCBEvict(lcbs, ucbs); got != 2 {
		t.Fatalf("evict = %d, want 2", got)
	}
}

func TestUCBEvictNoSeparation(t *testing.T) {
	// Overlapping intervals: keep everyone.
	lcbs := []time.Duration{ms(10), ms(20)}
	ucbs := []time.Duration{ms(50), ms(60)}
	if got := UCBEvict(lcbs, ucbs); got != -1 {
		t.Fatalf("evict = %d, want -1", got)
	}
}

func TestUCBEvictDegenerate(t *testing.T) {
	if UCBEvict(nil, nil) != -1 {
		t.Fatal("empty inputs must not evict")
	}
	if UCBEvict([]time.Duration{1}, []time.Duration{1, 2}) != -1 {
		t.Fatal("mismatched inputs must not evict")
	}
}

func TestUCBEvictSilentNeighbor(t *testing.T) {
	// A neighbor with no samples has (Inf, Inf) bounds and gets evicted as
	// soon as any other neighbor has a finite ucb.
	lcbs := []time.Duration{ms(10), stats.InfDuration}
	ucbs := []time.Duration{ms(50), stats.InfDuration}
	if got := UCBEvict(lcbs, ucbs); got != 1 {
		t.Fatalf("evict = %d, want silent neighbor 1", got)
	}
}

// sortPercentileOfMin is the percentile scanSubsetSelect scores with. It
// shares no code with the stats kernels SubsetSelect calls, whose regimes it
// referees: copy the column, clip it element-wise to limit (nil: no
// clipping), sort it, and interpolate between the order statistics either
// side of rank p·(n−1), censored when the upper one is.
func sortPercentileOfMin(col, limit []time.Duration, p float64) time.Duration {
	if len(col) == 0 {
		return stats.InfDuration
	}
	sorted := slices.Clone(col)
	for i, l := range limit {
		sorted[i] = min(sorted[i], l)
	}
	slices.Sort(sorted)
	rank := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	a, b := sorted[lo], sorted[hi]
	if lo == hi || b == stats.InfDuration {
		return b
	}
	return a + time.Duration(float64(b-a)*(rank-float64(lo)))
}

// scanSubsetSelect is SubsetSelect as it stood before the ordered pass:
// every joint score a sortPercentileOfMin of the candidate's whole column.
// The ordered pass, the distinct-row weights and the kernels' regimes may
// only skip work, so SubsetSelect is held to this slice for slice.
func scanSubsetSelect(obs Observations, retain int, pct float64) []int {
	k, blocks := len(obs.Neighbors), len(obs.Offsets)
	if retain >= k {
		all := make([]int, k)
		for i := range all {
			all[i] = i
		}
		return all
	}
	if retain <= 0 {
		return nil
	}
	cols := make([]time.Duration, k*blocks)
	for b, row := range obs.Offsets {
		for i, t := range row[:k] {
			cols[i*blocks+b] = t
		}
	}
	individual := make([]time.Duration, k)
	for i := range individual {
		individual[i] = sortPercentileOfMin(cols[i*blocks:(i+1)*blocks], nil, pct)
	}
	best := make([]time.Duration, blocks)
	for b := range best {
		best[b] = stats.InfDuration
	}
	chosen := make([]int, 0, retain)
	used := make([]bool, k)
	for len(chosen) < retain {
		bestIdx := -1
		bestScore := stats.InfDuration
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			score := individual[i]
			if len(chosen) > 0 {
				score = sortPercentileOfMin(cols[i*blocks:(i+1)*blocks], best, pct)
			}
			if bestIdx == -1 || score < bestScore || (score == bestScore && subsetTieBetter(obs, individual, i, bestIdx)) {
				bestScore = score
				bestIdx = i
			}
		}
		used[bestIdx] = true
		chosen = append(chosen, bestIdx)
		for b, t := range cols[bestIdx*blocks : (bestIdx+1)*blocks] {
			if t < best[b] {
				best[b] = t
			}
		}
	}
	slices.Sort(chosen)
	return chosen
}

// differentialPercentiles are the quantiles the differential tests run: the
// default, its neighbors, the median (m = 51 of 100 blocks: no ordered pass),
// and the two that read the largest values.
var differentialPercentiles = []float64{0.5, 0.85, 0.9, 0.95, 0.999, 1}

// checkSubsetAgainstScan returns an error unless SubsetSelect and the
// full-scan reference choose the same neighbors of obs.
func checkSubsetAgainstScan(obs Observations, retain int, pct float64) error {
	got, want := SubsetSelect(obs, retain, pct), scanSubsetSelect(obs, retain, pct)
	if !slices.Equal(got, want) {
		return fmt.Errorf("blocks=%d k=%d retain=%d p=%v: chose %v, full scan %v\noffsets %v",
			len(obs.Offsets), len(obs.Neighbors), retain, pct, got, want, obs.Offsets)
	}
	return nil
}

// TestSubsetSelectMatchesScanOnEngineRounds runs the differential check on
// what a simulation feeds the selection: every node's matrix in rounds 1, 20
// and 60 of a 300-node Subset engine — a random topology, a half-converged
// one and a converged one, where one neighbor is first on most blocks and
// joint scores tie — at every quantile and several retain counts. It runs
// the full 100-block round and observation windows of 10, 11 and 12 blocks,
// either side of where the 0.9-quantile stops reading only the two largest
// minima.
func TestSubsetSelectMatchesScanOnEngineRounds(t *testing.T) {
	for _, window := range []int{0, 10, 11, 12} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			subsetMatchesScanOnEngineRounds(t, window)
		})
	}
}

// subsetMatchesScanOnEngineRounds is TestSubsetSelectMatchesScanOnEngineRounds
// at one observation window, zero for none.
func subsetMatchesScanOnEngineRounds(t *testing.T, window int) {
	tn := newTestNetwork(t, 300, 9)
	params := DefaultParams(Subset)
	subset, err := SelectorFromMethod(Subset, params)
	if err != nil {
		t.Fatal(err)
	}
	blocks := params.RoundBlocks
	if window > 0 {
		blocks = window
	}
	check := false
	var checked atomic.Int64
	cfg := tn.config(Subset, params)
	cfg.ObservationWindow = window
	cfg.Selector = SelectorFunc(func(view NeighborView) (Decision, error) {
		if check {
			if got := len(view.Observations.Offsets); got != blocks {
				return Decision{}, fmt.Errorf("node %d scored %d blocks, want %d", view.Node, got, blocks)
			}
			for _, pct := range differentialPercentiles {
				for _, retain := range []int{1, 3, 6, 7} {
					if err := checkSubsetAgainstScan(view.Observations, retain, pct); err != nil {
						return Decision{}, err
					}
				}
			}
			checked.Add(1)
		}
		return subset.SelectNeighbors(view)
	})
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 60; round++ {
		check = round == 1 || round == 20 || round == 60
		if _, err := e.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := checked.Load(); got != 3*300 {
		t.Fatalf("checked %d matrices, want %d", got, 3*300)
	}
}

// TestSubsetSelectMatchesScanOnHardMatrices runs the differential check on
// matrices built to stress the ordered pass: few distinct values (ties on
// every limit and every score), all-zero columns, runs of censored blocks
// at least a tenth of the column long (θ is then half of InfDuration and the
// list short), negative offsets (a tamper hook may write them), and a
// neighbor that is first on every block, so that after it is chosen every
// limit is zero. Block counts sit on both sides of the sizes where the
// top-slots pass stops serving p = 0.9 (160/161) and p = 0 (16/17).
func TestSubsetSelectMatchesScanOnHardMatrices(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, blocks := range []int{1, 2, 10, 16, 17, 100, 160, 161, 400} {
		for trial := 0; trial < 40; trial++ {
			k := 2 + r.Intn(11)
			o := NewObservations(r.Perm(1000)[:k], blocks)
			distinct := []int{2, 4, 60, 1 << 20}[trial%4]
			for b := range o.Offsets {
				for i := range o.Offsets[b] {
					o.Offsets[b][i] = time.Duration(r.Intn(distinct)) * 211 * time.Microsecond
				}
			}
			if trial%2 == 0 { // censored runs, each a tenth of the column or more
				for i := 0; i < k; i += 1 + r.Intn(2) {
					run := (blocks + 9) / 10 * (1 + r.Intn(4))
					start := r.Intn(blocks)
					for b := start; b < min(blocks, start+run); b++ {
						o.Offsets[b][i] = stats.InfDuration
					}
				}
			}
			if trial%3 == 0 { // negative offsets
				for b := range o.Offsets {
					if i := r.Intn(k); o.Offsets[b][i] != stats.InfDuration {
						o.Offsets[b][i] = -o.Offsets[b][i] - time.Duration(r.Intn(3))
					}
				}
			}
			if trial%5 == 1 { // an all-zero column
				zero := r.Intn(k)
				for b := range o.Offsets {
					o.Offsets[b][zero] = 0
				}
			}
			if trial%5 == 2 { // a neighbor first on every block
				first := r.Intn(k)
				for b := range o.Offsets {
					o.Offsets[b][first] = slices.Min(o.Offsets[b]) - 1
				}
			}
			for _, pct := range differentialPercentiles {
				for retain := 1; retain < k; retain++ {
					if err := checkSubsetAgainstScan(o, retain, pct); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
		}
	}
}

// fuzzObservations decodes a fuzz input into an observation matrix, a retain
// count and a quantile: four header bytes (neighbors 2–12, retain, quantile,
// repeats), two for the block count (1–400), then one byte per offset,
// reused in a cycle when the input is short. An offset byte is censored
// (255), negative (240–254) or one of 60 values, so ties are the rule.
//
// A non-zero repeats byte r makes the matrix repeat rows, as a round whose
// blocks repeat a miner does: the first 1 + (r−1) mod blocks rows are
// distinct, every later row copies one of them, picked by its first offset
// byte, and the matrix carries the list of its distinct rows (descending
// when r is even) with their multiplicities. At 100 blocks, r = 75 leaves
// exactly three quarters of the rows distinct, the most SubsetSelect scores
// by the list; r = 76 leaves one row more.
func fuzzObservations(data []byte) (obs Observations, retain int, pct float64) {
	header := make([]byte, 6)
	copy(header, data)
	k := 2 + int(header[0])%11
	retain = 1 + int(header[1])%(k-1)
	pct = differentialPercentiles[int(header[2])%len(differentialPercentiles)]
	blocks := 1 + (int(header[3])<<8|int(header[4]))%400
	repeats := int(header[5])
	cells := []byte{0}
	if len(data) > len(header) {
		cells = data[len(header):]
	}
	neighbors := make([]int, k)
	for i := range neighbors {
		neighbors[i] = (i*7 + int(header[0])) % 97 // distinct, not in index order
	}
	obs = NewObservations(neighbors, blocks)
	for b := range obs.Offsets {
		for i := range obs.Offsets[b] {
			switch c := cells[(b*k+i)%len(cells)]; {
			case c == 255:
				obs.Offsets[b][i] = stats.InfDuration
			case c >= 240:
				obs.Offsets[b][i] = -time.Duration(c-239) * time.Millisecond
			default:
				obs.Offsets[b][i] = time.Duration(c/4) * 3 * time.Millisecond
			}
		}
	}
	if repeats == 0 {
		return obs, retain, pct
	}
	d := 1 + (repeats-1)%blocks
	weight := make([]int32, d)
	for b := range obs.Offsets {
		row := b
		if b >= d {
			row = int(cells[(b*k)%len(cells)]) % d
			copy(obs.Offsets[b], obs.Offsets[row])
		}
		weight[row]++
	}
	for row := range weight {
		obs.distinct = append(obs.distinct, int32(row))
	}
	obs.weight = weight
	if repeats%2 == 0 {
		slices.Reverse(obs.distinct)
		slices.Reverse(obs.weight)
	}
	return obs, retain, pct
}

// FuzzSubsetSelectMatchesReference lets the fuzzer shape the matrix, its
// repeated rows included, and holds SubsetSelect to scanning every column of
// the full matrix at every step; the seeds here and under testdata/fuzz run
// in every go test.
func FuzzSubsetSelectMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	seed := func(blocks int, repeats byte) {
		data := make([]byte, 6+blocks*8)
		r.Read(data)
		data[0], data[1], data[2] = 6, 5, 2 // 8 neighbors, retain 6, p = 0.9
		data[3], data[4] = byte((blocks-1)>>8), byte(blocks-1)
		data[5] = repeats
		f.Add(data)
	}
	for _, blocks := range []int{1, 16, 17, 100, 161} {
		seed(blocks, 0)
	}

	// Repeated rows: the three-quarter boundary at 100 and at 16 blocks
	// (75 and 12 distinct rows are scored by the list, 76 and 13 are not),
	// a pools-like round of 38 distinct rows, a few heavy rows whose weights
	// straddle the top-slots fill, and 161 blocks from 5 rows, whose
	// quantile is too deep for the slots.
	for _, rep := range []struct {
		blocks  int
		repeats byte
	}{{100, 75}, {100, 76}, {16, 12}, {16, 13}, {100, 38}, {100, 3}, {161, 5}, {400, 200}} {
		seed(rep.blocks, rep.repeats)
	}
	// And a spread of shapes, quantiles and repeat counts.
	for i := 0; i < 60; i++ {
		blocks := []int{10, 16, 40, 100, 161, 400}[i%6]
		data := make([]byte, 6+blocks*8)
		r.Read(data)
		data[3], data[4] = byte((blocks-1)>>8), byte(blocks-1)
		data[5] = byte(1 + r.Intn(min(blocks, 255)))
		f.Add(data)
	}
	f.Add([]byte{})
	// Observation windows whose 0.9-quantile reads two slots (2, 10 and 11
	// blocks) and the first that reads three (12).
	for _, blocks := range []int{2, 10, 11, 12} {
		seed(blocks, 0)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, retain, pct := fuzzObservations(data)
		if err := checkSubsetAgainstScan(obs, retain, pct); err != nil {
			t.Fatal(err)
		}
	})
}

// TestObservationsCloneKeepsDistinctRows checks that Clone copies the
// matrix and its distinct-row list into memory of its own, and that Reset
// drops the list.
func TestObservationsCloneKeepsDistinctRows(t *testing.T) {
	data := make([]byte, 6+100*8)
	rand.New(rand.NewSource(5)).Read(data)
	data[3], data[4], data[5] = 0, 99, 38
	obs, _, _ := fuzzObservations(data)
	c := obs.Clone()
	if !slices.Equal(c.Neighbors, obs.Neighbors) || !slices.Equal(c.distinct, obs.distinct) || !slices.Equal(c.weight, obs.weight) {
		t.Fatalf("clone %v/%v/%v, want %v/%v/%v", c.Neighbors, c.distinct, c.weight, obs.Neighbors, obs.distinct, obs.weight)
	}
	for b := range obs.Offsets {
		if !slices.Equal(c.Offsets[b], obs.Offsets[b]) {
			t.Fatalf("row %d: clone %v, want %v", b, c.Offsets[b], obs.Offsets[b])
		}
	}
	c.Offsets[0][0]++
	c.distinct[0]++
	c.weight[0]++
	if c.Offsets[0][0] == obs.Offsets[0][0] || c.distinct[0] == obs.distinct[0] || c.weight[0] == obs.weight[0] {
		t.Fatal("clone shares memory with the original")
	}
	c.Reset(c.Neighbors, 10)
	if c.distinct != nil || c.weight != nil {
		t.Fatal("Reset kept the distinct-row list")
	}
}
