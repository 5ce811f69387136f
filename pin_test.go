package perigee

import (
	"hash/fnv"
	"slices"
	"strconv"
	"testing"
	"time"
)

// TestNewSeededOutput pins what New builds from a fixed seed: the default
// network and one row per model axis, each after three rounds. p50 and p90
// are of the sorted BroadcastDelays(0.9); sum is an FNV-1a checksum of
// every node's OutNeighbors, so a change to any default, any stream name or
// the order streams are drawn in shows here.
func TestNewSeededOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded network runs")
	}
	rows := []struct {
		name     string
		opts     []Option
		p50, p90 time.Duration
		sum      uint64
	}{
		{"default", nil, 198777720, 273009212, 0x86a4d43ebe0e1cb1},
		{"pools-power", []Option{WithPower(PoolsPower(0.1, 0.9))}, 187957587, 261043322, 0xe1b6a70c1c423099},
		{"exponential-validation", []Option{WithValidation(ExponentialValidation(50 * time.Millisecond))}, 151323041, 219948791, 0xa3838abb325c8866},
		{"ucb", []Option{WithSelector(UCBSelector(0.9, 50*time.Millisecond)), WithRoundBlocks(5)}, 201349493, 287035889, 0x3a82d35effae3e58},
		{"observation-window", []Option{WithObservationWindow(10)}, 196208436, 267356533, 0x27bea2cfa0d140e3},
		{"adversary", []Option{WithAdversary(LatencyLiarAdversary(0.5, 100*time.Millisecond), 0.1)}, 200500257, 271054346, 0x6f764cb19ae8f477},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			net, err := New(100, append([]Option{WithSeed(11), WithWorkers(2)}, row.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Run(3); err != nil {
				t.Fatal(err)
			}
			ds, err := net.BroadcastDelays(0.9)
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(ds)
			p50, p90 := ds[len(ds)/2], ds[len(ds)*9/10]
			h := fnv.New64a()
			for v := 0; v < 100; v++ {
				for _, u := range net.OutNeighbors(v) {
					h.Write(strconv.AppendInt(nil, int64(u), 10))
					h.Write([]byte{','})
				}
				h.Write([]byte{';'})
			}
			sum := h.Sum64()
			if p50 != row.p50 || p90 != row.p90 || sum != row.sum {
				t.Errorf("p50 %d, p90 %d, sum %#x; want %d, %d, %#x", p50, p90, sum, row.p50, row.p90, row.sum)
			}
		})
	}
}
