// Package parallel provides the deterministic fan-out primitive shared by
// the simulation stack (core.Engine round broadcasts, experiment trials and
// algorithm arms).
//
// The contract that makes worker-pool results reproducible is simple: work
// items are identified by a dense index, every item writes only into
// per-index (or per-worker, merged in worker order) storage, and no item
// draws from a shared random stream. Under that contract the output is
// bit-for-bit identical for any worker count, so Workers=1 and
// Workers=GOMAXPROCS produce the same figures.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: any value <= 0 means "use all
// available cores" (GOMAXPROCS); positive values are returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEachIndexed runs fn(worker, index) for every index in [0, n), fanning
// the indices out over min(Workers(workers), n) worker goroutines. The
// worker argument is a dense ID in [0, workerCount) that fn can use to
// address per-worker scratch (e.g. one netsim.Broadcaster per worker);
// every invocation with the same worker ID runs on the same goroutine.
//
// Indices are claimed in ascending order. If an fn call returns an error, no
// further indices are claimed (in-flight ones still complete) and the error
// with the smallest index is returned — the same error a sequential loop
// over [0, n) would have stopped at, regardless of worker count or
// scheduling. Callers must treat per-index results as invalid on error.
func ForEachIndexed(n, workers int, fn func(worker, index int) error) error {
	return ForEach(n, workers, fn, func(fn func(int, int) error, worker, index int) error { return fn(worker, index) })
}

// ForEach is ForEachIndexed for an fn that is handed its state instead of
// capturing it. A closure passed to ForEachIndexed escapes to the heap, one
// allocation per call; a method expression or top-level function whose
// state already lives on the heap makes a one-worker ForEach allocate
// nothing.
//
// The caller runs as worker 0 and spawns the other workers. The fan-out's
// shared state is pooled, so once the pool is warm a W-worker ForEach over a
// pointer-shaped state allocates W-1 objects, one per spawned goroutine.
func ForEach[S any](n, workers int, state S, fn func(state S, worker, index int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(state, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	st := fanOutPool.Get().(*fanOut)
	st.n, st.firstIdx = int64(n), n
	st.state, st.fn = state, fn
	st.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go spawned[S](st, w)
	}
	work[S](st, 0)
	st.wg.Wait()
	err := st.firstErr
	st.next.Store(0)
	st.failed.Store(false)
	st.firstErr, st.state, st.fn = nil, nil, nil
	fanOutPool.Put(st)
	return err
}

// fanOut is the shared state of one multi-worker ForEach, taken from
// fanOutPool: the next index to claim, the failure with the smallest index
// (not one error slot per index), and the call's state and fn, type-erased
// so that one pool serves every instantiation.
type fanOut struct {
	next     atomic.Int64
	failed   atomic.Bool
	wg       sync.WaitGroup
	mu       sync.Mutex
	n        int64
	firstIdx int
	firstErr error
	state    any
	fn       any
}

var fanOutPool = sync.Pool{New: func() any { return new(fanOut) }}

// spawned is work on a goroutine of its own.
func spawned[S any](st *fanOut, worker int) {
	defer st.wg.Done()
	work[S](st, worker)
}

// work claims indices for worker until none are left or an index fails.
func work[S any](st *fanOut, worker int) {
	state, _ := st.state.(S) // a nil interface-typed state asserts to nil
	fn := st.fn.(func(S, int, int) error)
	for !st.failed.Load() {
		i := st.next.Add(1) - 1
		if i >= st.n {
			return
		}
		if err := fn(state, worker, int(i)); err != nil {
			st.fail(int(i), err)
			return
		}
	}
}

// fail records index i's error if no smaller index has failed, and stops
// further claims.
func (st *fanOut) fail(i int, err error) {
	st.mu.Lock()
	if i < st.firstIdx {
		st.firstIdx, st.firstErr = i, err
	}
	st.mu.Unlock()
	st.failed.Store(true)
}
