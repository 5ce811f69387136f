package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/perigee-net/perigee/internal/chain"
	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/des"
	"github.com/perigee-net/perigee/internal/netsim"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/wire"
)

// The calls below are timed one layer at a time on the workload's own
// inputs, after the batches, on one goroutine. Results go to sink so the
// compiler cannot drop a call whose value is otherwise unused.
var sink int64

// perCall times reps calls of f and returns the mean in nanoseconds: the
// calls are far shorter than a clock reading, so they are timed as a group.
func perCall(reps int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(reps)
}

// medianCall times each of reps calls of f and returns the median in
// nanoseconds, for calls long enough to time singly.
func medianCall(reps int, f func(i int) error) (float64, error) {
	ns := make([]float64, reps)
	for i := range ns {
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(start))
	}
	return quantile(ns, 0.5), nil
}

// simLayerSizes bounds the per-layer passes of a sim workload: a broadcast
// at n=20000 takes 200 ms on the baseline box, at n=1000 2 ms.
type simLayerSizes struct {
	broadcasts int
	analytic   int
	calls      int // repetitions of the calls too short to time singly
}

// simLayers measures the simulator's layers below a round on the run's
// final topology: netsim's event broadcast and analytic pass, the delivery
// queue at the topology's edge count, the latency model, and Subset scoring
// at the workload's observation window.
func simLayers(o *outcome, seed uint64, spec simSpec, sizes simLayerSizes, m *simModels, own *ownSimulator) error {
	r := benchRand(seed, purposeLayers)
	n := spec.n

	bc := own.sim.NewBroadcaster()
	if _, err := bc.Broadcast(r.IntN(n)); err != nil { // grows the scratch buffers
		return err
	}
	sources := make([]int, sizes.broadcasts)
	uniformSources(r, sources, n)
	broadcastNS, err := medianCall(len(sources), func(i int) error {
		res, err := bc.Broadcast(sources[i])
		sink += int64(res.Arrival[0])
		return err
	})
	if err != nil {
		return err
	}
	// Allocations are counted over a loop of nothing but the call, and
	// rounded down as testing.AllocsPerRun does, so that a stray allocation
	// of the runtime's does not read as one of the broadcaster's.
	mallocs, _, err := allocsDuring(func() error {
		for _, src := range sources {
			if _, err := bc.Broadcast(src); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	allocs := float64(mallocs / uint64(len(sources)))
	o.set("netsim.broadcast_us", broadcastNS/1e3)
	o.set("netsim.broadcast_allocs", allocs)
	o.check(allocs == 0, "netsim.broadcast_allocs = %v, want 0", allocs)

	edges := 0
	for _, row := range own.adj {
		edges += len(row)
	}
	at := make([]time.Duration, edges)
	for i := range at {
		at[i] = time.Duration(r.Int64N(int64(time.Second)))
	}
	var q des.DeliveryQueue
	fillDrain := func(int) error {
		for i, t := range at {
			q.Push(des.Delivery{At: t, Node: int32(i), Slot: 0})
		}
		for q.Len() > 0 {
			sink += int64(q.PopMin().Node)
		}
		return nil
	}
	_ = fillDrain(0) // grows the heap's backing array
	queueNS, _ := medianCall(5, fillDrain)
	o.set("des.queue_ns_per_op", queueNS/float64(2*edges))

	pairs := 10 * sizes.calls
	us, vs := make([]int, pairs), make([]int, pairs)
	uniformSources(r, us, n)
	uniformSources(r, vs, n)
	o.set("latency.delay_ns", perCall(pairs, func(i int) { sink += int64(m.lat.Delay(us[i], vs[i])) }))
	jitter := rng.New(seed)
	o.set("rng.pair_jitter_ns", perCall(pairs, func(i int) { sink += int64(jitter.PairJitter(us[i], vs[i], 0.1) * 1e6) }))

	window := spec.window
	if window == 0 {
		window = core.DefaultParams(core.Subset).RoundBlocks
	}
	neighbors := make([]int, outDegree)
	for i := range neighbors {
		neighbors[i] = i
	}
	obs := core.NewObservations(neighbors, window)
	for b := range obs.Offsets {
		for i := range obs.Offsets[b] {
			obs.Offsets[b][i] = time.Duration(r.Int64N(int64(200 * time.Millisecond)))
		}
	}
	retain := outDegree - core.DefaultParams(core.Subset).Explore
	selectNS := perCall(sizes.calls, func(int) { sink += int64(len(core.SubsetSelect(obs, retain, powerShare))) })
	if spec.window == 10 {
		o.set("core.subset_select_w10_us", selectNS/1e3)
	} else {
		o.set("core.subset_select_us", selectNS/1e3)
		column := make([]time.Duration, window)
		for b := range column {
			column[b] = obs.Offsets[b][0]
		}
		o.set("stats.percentile_ns", perCall(10*sizes.calls, func(int) { sink += int64(stats.DurationPercentile(column, powerShare)) }))
	}

	arrivals := make([][]time.Duration, sizes.analytic)
	analyticNS, err := medianCall(len(arrivals), func(i int) error {
		var err error
		arrivals[i], err = own.sim.ArrivalAnalyticInto(nil, sources[i%len(sources)])
		return err
	})
	if err != nil {
		return err
	}
	o.set("netsim.arrival_analytic_us", analyticNS/1e3)
	fractionNS, err := medianCall(len(arrivals), func(i int) error {
		d, err := netsim.DelayToFraction(arrivals[i], m.power, powerShare)
		sink += int64(d)
		return err
	})
	if err != nil {
		return err
	}
	o.set("netsim.delay_to_fraction_us", fractionNS/1e3)
	return nil
}

// payloadTxs makes count transactions of size bytes from the benchmark's
// payload stream.
func payloadTxs(r *rand.Rand, count, size int) [][]byte {
	txs := make([][]byte, count)
	for i := range txs {
		txs[i] = make([]byte, size)
		for j := range txs[i] {
			txs[i][j] = byte(r.UintN(256))
		}
	}
	return txs
}

// chainLayers measures internal/chain on blocks carrying the workload's
// transactions.
func chainLayers(o *outcome, txs [][]byte, reps int) error {
	genesis := chain.NewGenesis("benchmark-layers")
	now := time.Unix(1700000000, 0)

	blocks := make([]*chain.Block, reps)
	prev := genesis
	o.set("chain.new_block_us", perCall(reps, func(i int) {
		blocks[i] = chain.NewBlock(prev, txs, now, uint64(i))
		prev = blocks[i]
	})/1e3)
	var checkErr error
	o.set("chain.check_block_us", perCall(reps, func(i int) {
		if err := chain.CheckBlock(blocks[i]); err != nil {
			checkErr = err
		}
	})/1e3)
	if checkErr != nil {
		return checkErr
	}
	o.set("chain.header_hash_ns", perCall(reps, func(i int) { sink += int64(blocks[i].Header.Hash()[0]) }))

	store, err := chain.NewStore(genesis)
	if err != nil {
		return err
	}
	var addErr error
	o.set("chain.store_add_us", perCall(reps, func(i int) {
		if _, err := store.AddAt(blocks[i], time.Duration(i)); err != nil {
			addErr = err
		}
	})/1e3)
	if addErr != nil {
		return addErr
	}

	encoded := make([][]byte, reps)
	var codecErr error
	o.set("chain.encode_us", perCall(reps, func(i int) {
		enc, err := blocks[i].Encode()
		if err != nil {
			codecErr = err
		}
		encoded[i] = enc
	})/1e3)
	o.set("chain.decode_us", perCall(reps, func(i int) {
		b, err := chain.DecodeBlock(encoded[i])
		if err != nil {
			codecErr = err
			return
		}
		sink += int64(b.Header.Height)
	})/1e3)
	return codecErr
}

// wireLayers measures internal/wire framing on a bytes.Buffer for the
// smallest message the relay sends (a one-hash INV), the workload's block
// and a 64 KB block. No workload relays 64 KB blocks yet; it is the
// reference for a change that trades per-message cost against per-byte cost.
func wireLayers(o *outcome, seed uint64, reps int) error {
	r := benchRand(seed, purposePayload)
	genesis := chain.NewGenesis("benchmark-layers")
	now := time.Unix(1700000000, 0)
	small := chain.NewBlock(genesis, payloadTxs(r, liveTxs, liveTxBytes), now, 1)
	large := chain.NewBlock(genesis, payloadTxs(r, 64, 1024), now, 2)

	cases := []struct {
		suffix string
		msg    wire.Message
		reps   int
	}{
		{"inv", &wire.Inv{Hashes: []chain.Hash{small.Header.Hash()}}, 4 * reps},
		{"block_1k", &wire.Block{Block: small}, 2 * reps},
		{"block_64k", &wire.Block{Block: large}, reps / 5},
	}
	for _, c := range cases {
		// Size the buffer first, so that encode times framing and not the
		// buffer's growth.
		var buf bytes.Buffer
		if err := wire.Write(&buf, c.msg); err != nil {
			return fmt.Errorf("wire.Write %s: %w", c.suffix, err)
		}
		frame := buf.Len()
		buf.Reset()
		buf.Grow(frame * c.reps)
		var err error
		encodeNS := perCall(c.reps, func(int) {
			if e := wire.Write(&buf, c.msg); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("wire.Write %s: %w", c.suffix, err)
		}
		decodeNS := perCall(c.reps, func(int) {
			m, e := wire.Read(&buf)
			if e != nil {
				err = e
				return
			}
			sink += int64(m.Type())
		})
		if err != nil {
			return fmt.Errorf("wire.Read %s: %w", c.suffix, err)
		}
		o.set("wire.encode_ns_"+c.suffix, encodeNS)
		o.set("wire.decode_ns_"+c.suffix, decodeNS)
	}

	var buf bytes.Buffer
	msg := &wire.Block{Block: small}
	roundtrip := func() error {
		if err := wire.Write(&buf, msg); err != nil {
			return err
		}
		_, err := wire.Read(&buf)
		return err
	}
	if err := roundtrip(); err != nil { // grows the buffer
		return err
	}
	mallocs, _, err := allocsDuring(func() error {
		for i := 0; i < reps; i++ {
			if err := roundtrip(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.set("wire.allocs_block_roundtrip", float64(mallocs/uint64(reps)))
	return nil
}
