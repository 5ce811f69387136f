package perigee

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/workload"
)

func TestRunWorkloadBasic(t *testing.T) {
	net, err := New(60, WithSeed(5), WithRoundBlocks(20))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := net.RunWorkload(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 60 {
		t.Fatalf("report covers %d nodes, want 60", rep.Nodes)
	}
	// 20 blocks × the default 2s interval = 40s per topology round.
	if rep.Rounds != 3 {
		t.Fatalf("got %d topology rounds, want 3", rep.Rounds)
	}
	if rep.BlocksMined == 0 {
		t.Fatal("no blocks mined in two minutes")
	}
	if rep.CanonicalBlocks+rep.StaleBlocks != rep.BlocksMined {
		t.Fatalf("accounting violated: %+v", rep)
	}
	total := 0
	for _, r := range rep.Revenue {
		total += r
	}
	if total != rep.CanonicalBlocks {
		t.Fatalf("revenue sums to %d, want %d canonical blocks", total, rep.CanonicalBlocks)
	}
	if net.Rounds() != rep.Rounds {
		t.Fatalf("network advanced %d rounds, report says %d", net.Rounds(), rep.Rounds)
	}
}

// Successive RunWorkload calls draw fresh arrival streams; equal seeds
// still reproduce the whole sequence.
func TestRunWorkloadSequenceDeterministic(t *testing.T) {
	run := func() []*WorkloadReport {
		net, err := New(60, WithSeed(9), WithRoundBlocks(20), WithBlockInterval(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		var reps []*WorkloadReport
		for i := 0; i < 2; i++ {
			rep, err := net.RunWorkload(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		return reps
	}
	a, b := run(), run()
	for i := range a {
		ja, _ := json.Marshal(a[i])
		jb, _ := json.Marshal(b[i])
		if !bytes.Equal(ja, jb) {
			t.Fatalf("call %d differs across identical networks:\n%s\n%s", i, ja, jb)
		}
	}
	j0, _ := json.Marshal(a[0])
	j1, _ := json.Marshal(a[1])
	if bytes.Equal(j0, j1) {
		t.Fatal("successive workload calls replayed the identical arrival stream")
	}
}

func TestRunWorkloadProcessesAndTraceReplay(t *testing.T) {
	net, err := New(60, WithSeed(3), WithRoundBlocks(20),
		WithWorkload(GammaArrivals(2)), WithBlockInterval(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunWorkload(time.Minute); err != nil {
		t.Fatal(err)
	}

	// Record a trace file, then replay it through two identically seeded
	// networks: byte-equal reports.
	power := make([]float64, 60)
	for i := range power {
		power[i] = 1.0 / 60
	}
	gen, err := workload.NewPoisson(rng.New(77), power, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := workload.Materialize(gen, time.Minute, 60)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tf.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	replay := func() []byte {
		net, err := New(60, WithSeed(3), WithRoundBlocks(20),
			WithBlockInterval(time.Second), WithTraceFile(path))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := net.RunWorkload(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if a, b := replay(), replay(); !bytes.Equal(a, b) {
		t.Fatalf("trace replay not byte-equal:\n%s\n%s", a, b)
	}
}

func TestRunWorkloadValidation(t *testing.T) {
	if _, err := New(60, WithWorkload(nil)); err == nil {
		t.Fatal("nil arrival process accepted")
	}
	if _, err := New(60, WithBlockInterval(0)); err == nil {
		t.Fatal("zero block interval accepted")
	}
	if _, err := New(60, WithTraceFile("")); err == nil {
		t.Fatal("empty trace path accepted")
	}
	net, err := New(60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.RunWorkload(0); err == nil {
		t.Fatal("zero duration accepted")
	}

	// A trace recorded for a different network size is rejected.
	power := []float64{0.5, 0.5}
	gen, err := workload.NewPoisson(rng.New(1), power, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := workload.Materialize(gen, 10*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.json")
	if err := tf.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	mismatched, err := New(60, WithTraceFile(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatched.RunWorkload(time.Minute); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	missing, err := New(60, WithTraceFile(filepath.Join(t.TempDir(), "absent.json")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := missing.RunWorkload(time.Minute); err == nil {
		t.Fatal("missing trace file accepted")
	}
}

// TestForksExampleNumbers pins the numbers examples/forks prints and the
// README quotes: the same 10-minute Poisson schedule on 200 nodes mines 616
// blocks under both policies, and Perigee-Subset loses 76 of them to
// forks where random rewiring loses 89.
func TestForksExampleNumbers(t *testing.T) {
	run := func(extra ...Option) *WorkloadReport {
		t.Helper()
		opts := append([]Option{WithSeed(42), WithRoundBlocks(30), WithBlockInterval(time.Second)}, extra...)
		net, err := New(200, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := net.RunWorkload(10 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	subset := run()
	random := run(WithSelector(RandomSelector(2)))
	if subset.BlocksMined != 616 || random.BlocksMined != 616 {
		t.Fatalf("mined %d (Subset) and %d (random), want 616 each", subset.BlocksMined, random.BlocksMined)
	}
	if subset.StaleBlocks != 76 || random.StaleBlocks != 89 {
		t.Fatalf("stale %d (Subset) vs %d (random), want 76 vs 89", subset.StaleBlocks, random.StaleBlocks)
	}
}
