package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d, want 5", got)
	}
}

func TestForEachIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			out := make([]int, n)
			err := ForEachIndexed(n, workers, func(worker, i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("index %d: got %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestForEachIndexedEmpty(t *testing.T) {
	called := false
	if err := ForEachIndexed(0, 4, func(worker, i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachIndexedWorkerIDsDense(t *testing.T) {
	const n, workers = 200, 4
	var seen [workers]atomic.Int64
	err := ForEachIndexed(n, workers, func(worker, i int) error {
		if worker < 0 || worker >= workers {
			return fmt.Errorf("worker ID %d out of range", worker)
		}
		seen[worker].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for w := range seen {
		total += seen[w].Load()
	}
	if total != n {
		t.Fatalf("fn ran %d times, want %d", total, n)
	}
}

func TestForEachIndexedReturnsSmallestIndexError(t *testing.T) {
	errA := errors.New("fail at 3")
	errB := errors.New("fail at 17")
	for _, workers := range []int{1, 4} {
		err := ForEachIndexed(32, workers, func(worker, i int) error {
			switch i {
			case 3:
				return errA
			case 17:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want the smallest-index error %v", workers, err, errA)
		}
	}
}

func TestForEachIndexedStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEachIndexed(1<<20, 4, func(worker, i int) error {
		ran.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran.Load() == 1<<20 {
		t.Fatal("error did not stop index claiming")
	}
}

func TestForEachIndexedDeterministicAcrossWorkerCounts(t *testing.T) {
	// The core determinism contract: per-index writes yield identical
	// results for any worker count.
	const n = 512
	run := func(workers int) []uint64 {
		out := make([]uint64, n)
		if err := ForEachIndexed(n, workers, func(worker, i int) error {
			h := uint64(i) * 0x9e3779b97f4a7c15
			h ^= h >> 29
			out[i] = h
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 3, 8, 64} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverges at index %d", workers, i)
			}
		}
	}
}

// squares is a fan-out state that lives on the heap, as the engine's do.
type squares struct{ out []int }

func (s *squares) fill(_, i int) error {
	s.out[i] = i * i
	return nil
}

// TestForEachAllocatesOnePerSpawnedWorker pins what a warm fan-out costs:
// the caller runs as worker 0 and the shared state comes from a pool, so a
// W-worker ForEach over a pointer state allocates one object per goroutine
// it spawns, W-1. It allocated 2W+1 when every worker was spawned and the
// state was allocated per call.
func TestForEachAllocatesOnePerSpawnedWorker(t *testing.T) {
	s := &squares{out: make([]int, 64)}
	for _, workers := range []int{2, 4} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := ForEach(len(s.out), workers, s, (*squares).fill); err != nil {
				t.Fatal(err)
			}
		})
		// A collection during the run empties the pool; its refill is one
		// more object now and then, never one per run.
		if allocs > float64(workers-1)+0.1 {
			t.Errorf("workers=%d: a fan-out allocates %v objects, want at most %d", workers, allocs, workers-1)
		}
	}
}

// TestForEachNilInterfaceState checks that an interface-typed state may be
// nil on the multi-worker path as on the serial one.
func TestForEachNilInterfaceState(t *testing.T) {
	var ran atomic.Int64
	err := ForEach(8, 2, error(nil), func(state error, _, _ int) error {
		if state != nil {
			return state
		}
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 8 {
		t.Fatalf("got error %v after %d calls, want nil after 8", err, ran.Load())
	}
}
