package netsim

import (
	"slices"
	"testing"

	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// TestTableRowsMatchAdjacency drives a simulator built from a table's rows
// (NewRows, then ReconfigureRows) through Perigee-shaped rewires of that
// table and a pinned relay tree, in both latency modes: after every round
// its CSR, its edge delays and its broadcasts must equal those of a
// simulator New builds from the table's Undirected adjacency.
func TestTableRowsMatchAdjacency(t *testing.T) {
	const n = 120
	for _, mode := range []latency.Mode{latency.Precomputed, latency.Streaming} {
		fx := newCarryFixture(t, n, 21)
		fx.cfg.LatencyMode = mode
		rowsCfg := fx.cfg
		rowsCfg.Adj = nil
		sim, err := NewRows(rowsCfg, fx.tbl)
		if err != nil {
			t.Fatal(err)
		}
		bc := sim.NewBroadcaster()
		r := rng.New(22)
		for round := 0; round < 6; round++ {
			if round > 0 {
				perigeeRewire(t, fx.tbl, r)
				if err := sim.ReconfigureRows(fx.tbl); err != nil {
					t.Fatalf("mode %v round %d: %v", mode, round, err)
				}
			}
			if round == 3 {
				members := r.Perm(n)[:15]
				pinned, err := topology.RelayTree(members, 2)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range pinned {
					if err := fx.tbl.Pin(e[0], e[1]); err != nil {
						t.Fatal(err)
					}
				}
				if err := sim.ReconfigureRows(fx.tbl); err != nil {
					t.Fatal(err)
				}
			}
			cfg := fx.cfg
			cfg.Adj = fx.tbl.Undirected()
			fresh, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, pair := range map[string][2][]int32{
				"rowStart": {sim.rowStart, fresh.rowStart},
				"edgeDst":  {sim.edgeDst, fresh.edgeDst},
				"edgeSlot": {sim.edgeSlot, fresh.edgeSlot},
			} {
				if !slices.Equal(pair[0], pair[1]) {
					t.Fatalf("mode %v round %d: %s differs from New's", mode, round, name)
				}
			}
			if !slices.Equal(sim.edgeDelay, fresh.edgeDelay) {
				t.Fatalf("mode %v round %d: edge delays differ from New's", mode, round)
			}
			for _, src := range []int{0, n / 2, n - 1} {
				want, err := fresh.Broadcast(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := bc.Broadcast(src)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, snapshot(want), snapshot(got))
			}
		}
	}
}

// int32Rows is a Rows over literal rows, for malformed topologies a table
// never writes.
type int32Rows [][]int32

func (r int32Rows) N() int { return len(r) }

func (r int32Rows) UndirectedBound(lo, hi int) int {
	total := 0
	for _, row := range r[lo:hi] {
		total += len(row)
	}
	return total
}

func (r int32Rows) AppendUndirected(dst []int32, v int) []int32 { return append(dst, r[v]...) }

// TestRowsRejectMalformed: the row path validates what it copies. NewRows
// and ReconfigureRows both refuse a descending row, an out-of-range or
// negative neighbor, a self loop, a repeated neighbor and an asymmetric
// pair, and a simulator that refused one reconfigures onto good rows
// afterwards as if it had not.
func TestRowsRejectMalformed(t *testing.T) {
	good := int32Rows{{1, 2}, {0, 2}, {0, 1}}
	cfg := lineConfig(3, 0)
	cfg.Adj = nil
	for name, rows := range map[string]int32Rows{
		"descending":   {{2, 1}, {0}, {0}},
		"out of range": {{1, 3}, {0}, {}},
		"negative":     {{-1, 1}, {0}, {}},
		"self loop":    {{0, 1}, {0}, {}},
		"repeated":     {{1, 1}, {0, 0}, {}},
		"asymmetric":   {{1, 2}, {0}, {}},
	} {
		if _, err := NewRows(cfg, rows); err == nil {
			t.Errorf("%s: NewRows accepted %v", name, rows)
		}
		sim, err := NewRows(cfg, good)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.ReconfigureRows(rows); err == nil {
			t.Errorf("%s: ReconfigureRows accepted %v", name, rows)
		}
		if err := sim.ReconfigureRows(good); err != nil {
			t.Fatalf("%s: good rows refused after a rejected reconfiguration: %v", name, err)
		}
		fresh, err := NewRows(cfg, good)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Broadcast(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Broadcast(0)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, snapshot(want), snapshot(got))
	}
}
