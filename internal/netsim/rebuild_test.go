package netsim

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/topology"
)

// referenceCSR is the CSR a serial build writes for adj: the rows one after
// another, each edge's position in its neighbour's row found by search, and
// one Model.Delay call per directed edge.
type referenceCSR struct {
	rowStart, edgeDst, edgeSlot []int32
	edgeDelay                   []time.Duration
}

func newReferenceCSR(adj [][]int, m latency.Model) referenceCSR {
	var ref referenceCSR
	for v, row := range adj {
		ref.rowStart = append(ref.rowStart, int32(len(ref.edgeDst)))
		for _, w := range row {
			ref.edgeDst = append(ref.edgeDst, int32(w))
			k, _ := slices.BinarySearch(adj[w], v)
			ref.edgeSlot = append(ref.edgeSlot, int32(k))
			ref.edgeDelay = append(ref.edgeDelay, m.Delay(v, w))
		}
	}
	ref.rowStart = append(ref.rowStart, int32(len(ref.edgeDst)))
	return ref
}

// matches fails unless sim's CSR is ref, array for array.
func (ref referenceCSR) matches(t *testing.T, what string, sim *Simulator) {
	t.Helper()
	switch {
	case !slices.Equal(sim.rowStart, ref.rowStart):
		t.Fatalf("%s: rowStart differs from the serial reference", what)
	case !slices.Equal(sim.edgeDst, ref.edgeDst):
		t.Fatalf("%s: edgeDst differs from the serial reference", what)
	case !slices.Equal(sim.edgeSlot, ref.edgeSlot):
		t.Fatalf("%s: edgeSlot differs from the serial reference", what)
	case !slices.Equal(sim.edgeDelay, ref.edgeDelay):
		t.Fatalf("%s: edgeDelay differs from the serial reference", what)
	}
}

// rewireSome rewires a random share of tbl's nodes: each drops up to two
// outgoing links and dials up to two peers, mutual links and pins over
// existing links included, so that rows overcount their bound and the
// build's chunks leave gaps to close.
func rewireSome(t *testing.T, tbl *topology.Table, r *rng.RNG) {
	t.Helper()
	n := tbl.N()
	for v := 0; v < n; v++ {
		if r.IntN(3) != 0 {
			continue
		}
		outs := tbl.OutNeighbors(v)
		r.Shuffle(len(outs), func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
		for _, u := range outs[:min(2, len(outs))] {
			if err := tbl.Disconnect(v, u); err != nil {
				t.Fatal(err)
			}
		}
		for tries := 0; tries < 2; tries++ {
			u := r.IntN(n)
			if u == v || tbl.HasOut(v, u) || tbl.InFree(u) == 0 || tbl.OutDegree(v) >= 6 {
				continue
			}
			if err := tbl.Connect(v, u); err != nil {
				t.Fatal(err)
			}
		}
		if w := r.IntN(n); w != v && r.IntN(50) == 0 {
			if err := tbl.Pin(v, w); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzRebuildMatchesReference builds random symmetric tables of one to
// three rebuild chunks, then runs a series of rewires through simulators at
// Workers 1 and 4. After the first build and after every Reconfigure, both
// simulators' rowStart, edgeDst, edgeSlot and edgeDelay must equal a serial
// reference that calls Model.Delay once per directed edge: the chunked,
// fanned-out pass, its gap closing, its carried delays and its pair
// evaluation of new links change nothing. A ForgetDelays now and then makes
// the next build price every edge again. Odd seeds run a model whose
// directions differ, which takes the two-Delay path for new links.
func FuzzRebuildMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(3))
	f.Add(uint64(2), uint16(rebuildChunk), uint8(4))
	f.Add(uint64(3), uint16(3*rebuildChunk-20), uint8(2))
	f.Add(uint64(4), uint16(2*rebuildChunk), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, rounds uint8) {
		n := 8 + int(size)%(3*rebuildChunk-8)
		root := rng.New(seed)
		u, err := geo.SampleUniverse(n, root.Derive("universe"))
		if err != nil {
			t.Fatal(err)
		}
		geoModel, err := latency.NewGeographic(u, root.Derive("latency"))
		if err != nil {
			t.Fatal(err)
		}
		var model latency.Model = geoModel
		if seed%2 == 1 {
			model = directed{geoModel}
		}
		tbl, err := topology.Random(n, 4, 8, root.Derive("topology"))
		if err != nil {
			t.Fatal(err)
		}
		r := root.Derive("rewire")
		var sims []*Simulator
		for _, workers := range []int{1, 4} {
			sim, err := NewRows(Config{Latency: model, Forward: make([]time.Duration, n),
				LatencyMode: latency.Precomputed, Workers: workers}, tbl)
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, sim)
		}
		for round := 0; ; round++ {
			ref := newReferenceCSR(tbl.Undirected(), model)
			for i, sim := range sims {
				ref.matches(t, []string{"workers=1", "workers=4"}[i], sim)
			}
			if round == int(rounds%6) {
				return
			}
			rewireSome(t, tbl, r)
			forget := r.IntN(4) == 0
			for _, sim := range sims {
				if forget {
					sim.ForgetDelays()
				}
				if err := sim.ReconfigureRows(tbl); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// directed is a model whose two directions differ by a few nanoseconds, so
// that a delay written to the wrong direction of a link shows. It has no
// DelayPair: a build prices its new links with two Delay calls.
type directed struct{ base latency.Model }

func (d directed) N() int { return d.base.N() }

func (d directed) Delay(u, v int) time.Duration {
	if u == v {
		return 0
	}
	return d.base.Delay(u, v) + time.Duration(u%7)
}

// TestRebuildReportsFirstBadRow: with bad rows in two chunks, a fanned-out
// build returns the error of the earlier one, the error a serial pass stops
// at, at any worker count.
func TestRebuildReportsFirstBadRow(t *testing.T) {
	const n = 3 * rebuildChunk
	rows := make(int32Rows, n)
	for v := 0; v+1 < n; v += 2 {
		rows[v], rows[v+1] = []int32{int32(v + 1)}, []int32{int32(v)}
	}
	early, late := rebuildChunk+10, 2*rebuildChunk+10
	rows[late] = []int32{int32(late)}
	rows[early] = []int32{int32(n)}
	cfg := Config{Latency: latency.Constant{Nodes: n, D: time.Millisecond}, Forward: make([]time.Duration, n)}
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		_, err := NewRows(cfg, rows)
		if err == nil || !strings.Contains(err.Error(), "out-of-range neighbor") {
			t.Fatalf("workers=%d: got %v, want node %d's out-of-range neighbor", workers, err, early)
		}
	}
}

// TestRebuildRefusesRowsOverBound: a Rows whose bound undercounts a row is
// refused rather than written over the next chunk's staging range.
func TestRebuildRefusesRowsOverBound(t *testing.T) {
	rows := int32Rows{{1, 2}, {0, 2}, {0, 1}}
	cfg := lineConfig(3, 0)
	cfg.Adj = nil
	if _, err := NewRows(cfg, underBound{rows}); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("got %v, want a row overrunning the bound", err)
	}
}

// underBound reports one entry fewer than its rows hold.
type underBound struct{ int32Rows }

func (u underBound) UndirectedBound(lo, hi int) int { return u.int32Rows.UndirectedBound(lo, hi) - 1 }

// TestWarmReconfigureAllocatesOnlyItsFanOuts: once both buffer generations
// have grown, a ReconfigureRows of a five-chunk network at Workers 4
// allocates no more than its two fan-outs' spawned goroutines, three each.
func TestWarmReconfigureAllocatesOnlyItsFanOuts(t *testing.T) {
	const n, workers = 5 * rebuildChunk, 4
	root := rng.New(31)
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := latency.NewGeographic(u, root.Derive("latency"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(n, 8, 20, root.Derive("topology"))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewRows(Config{Latency: model, Forward: make([]time.Duration, n), Workers: workers}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	next := tbl.Clone()
	perigeeRewire(t, next, root.Derive("rewire"))
	tables := [2]*topology.Table{next, tbl}
	for _, tab := range tables {
		if err := sim.ReconfigureRows(tab); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		if err := sim.ReconfigureRows(tables[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if limit := float64(2 * (workers - 1)); allocs > limit {
		t.Fatalf("a warm ReconfigureRows allocates %v objects, want at most %v", allocs, limit)
	}
}
