package main

import (
	"time"
)

// The host this benchmark runs on changes speed under it: over one afternoon
// the same binary on the same seed took 300 ms and then 190 ms a round, CPU
// time included, while a SHA-256 loop timed alongside did not move. Every
// metric is reported as measured. Beside them a run times a fixed kernel of
// its own, a heap in L2 filled and drained like the simulator's delivery
// queue, before and after the workload, and prints the machine's speed
// against a fixed reference, so that someone comparing two sets of runs can
// see when they were taken in different regimes of the host.

// referenceKernel is about what one kernel pass takes on the box of
// baseline.json, whose runs read a speed of 1.12.
const referenceKernel = 2 * time.Millisecond

// kernel is the fixed work. It uses nothing of the repository, so no change
// to the program can move it.
type kernel struct {
	heap []uint64
}

func newKernel() *kernel { return &kernel{heap: make([]uint64, 0, 1<<14)} }

// pass fills a binary min-heap with the same 16384 keys every time and
// drains it.
func (k *kernel) pass() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	h := k.heap[:0]
	for len(h) < cap(h) {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	var sum uint64
	for len(h) > 0 {
		sum += h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < last && h[l] < h[m] {
				m = l
			}
			if r < last && h[r] < h[m] {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	return sum
}

// kernelPasses is how many passes each of the two readings of a run times:
// 50 ms against runs of 20 s and more.
const kernelPasses = 25

// timePasses appends the time of each of kernelPasses passes, in ns.
func (k *kernel) timePasses(samples []float64) []float64 {
	for i := 0; i < kernelPasses; i++ {
		start := time.Now()
		sink += int64(k.pass())
		samples = append(samples, float64(time.Since(start)))
	}
	return samples
}

// machineSpeed is the machine's speed over the timed passes against the
// reference: higher is faster.
func machineSpeed(samples []float64) float64 {
	return float64(referenceKernel) / quantile(samples, 0.5)
}
