package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/perigee-net/perigee/node"
)

// The block the live workload relays: about 1 KB on the wire.
const (
	liveTxs     = 4
	liveTxBytes = 256
)

// liveSizes sizes the live relay. The load is closed-loop: window blocks are
// in flight between the source's MineBlock and the sink, and the next is
// mined when one arrives.
type liveSizes struct {
	nodes       int
	window      int
	warmup      int // blocks relayed before measuring, part of set-up
	builds      int // set-ups timed
	batches     int
	batchBlocks int
	// Traced runs only.
	referenceBatches int // untraced batches before the traced ones
	serialBlocks     int // one block at a time down the line
	hopBlocks        int // one block at a time through a single node
	codecCalls       int // repetitions of the chain and wire calls
}

func liveLineSizes(cfg runConfig) liveSizes {
	if cfg.smoke {
		return liveSizes{nodes: 4, window: 16, warmup: 50, builds: 2, batches: 3, batchBlocks: 100,
			referenceBatches: 1, serialBlocks: 50, hopBlocks: 50, codecCalls: 100}
	}
	return liveSizes{nodes: 4, window: 16, warmup: 5000, builds: 3, batches: 100, batchBlocks: 1000,
		referenceBatches: 10, serialBlocks: 5000, hopBlocks: 2000, codecCalls: 5000}
}

// liveLine is nodes[0] → nodes[1] → … → sink over loopback TCP: no injected
// delay, no faults, no rounds, so the topology stays the line it was dialed
// as.
type liveLine struct {
	nodes   []*node.Node
	sink    *wireSink
	payload [][][]byte // transaction sets the source cycles through
	mined   int        // blocks mined so far; the chain has one block per height
}

// startLine starts the nodes, dials the line and attaches the sink, one
// span per call into the node package.
func startLine(rec *recorder, parent int, count int, seed uint64) (*liveLine, error) {
	l := &liveLine{}
	network := fmt.Sprintf("benchmark-%d", seed)
	for i := 0; i < count; i++ {
		id := rec.begin("node.New+Start", parent, -1)
		n, err := node.New(
			node.WithListen("127.0.0.1:0"),
			node.WithNetwork(network),
			node.WithSeed(seed<<8+uint64(i)+1))
		if err == nil {
			err = n.Start()
		}
		rec.end(id)
		if err != nil {
			l.stop()
			return nil, fmt.Errorf("starting node %d: %w", i, err)
		}
		l.nodes = append(l.nodes, n)
	}
	for i := 0; i+1 < count; i++ {
		id := rec.begin("node.Connect", parent, -1)
		err := l.nodes[i].Connect(l.nodes[i+1].Addr())
		rec.end(id)
		if err != nil {
			l.stop()
			return nil, fmt.Errorf("connecting node %d to %d: %w", i, i+1, err)
		}
	}
	sink, err := dialSink(l.nodes[count-1].Addr(), seed<<8)
	if err != nil {
		l.stop()
		return nil, err
	}
	l.sink = sink

	r := benchRand(seed, purposePayload)
	for i := 0; i < 16; i++ {
		l.payload = append(l.payload, payloadTxs(r, liveTxs, liveTxBytes))
	}
	return l, nil
}

// stop closes the sink and stops every node, waiting for their goroutines.
func (l *liveLine) stop() {
	if l.sink != nil {
		l.sink.close()
	}
	for _, n := range l.nodes {
		n.Stop()
	}
}

// relayed is one closed-loop phase: its batches, and per block the time
// from the source's MineBlock call to the validated block at the sink.
type relayed struct {
	batchRun
	relay []time.Duration
}

// relay mines batches × batchBlocks blocks at the source with window in
// flight and receives them at the sink. One goroutine generates and the
// caller's reads the sink, so load comes from two threads and two
// connections' worth of work. A block's completion is the blocking socket
// read returning it; nothing polls. rec traces the phase's layer calls.
func (l *liveLine) relay(rec *recorder, batches, batchBlocks, window int) (relayed, error) {
	total := batches * batchBlocks
	base := uint64(l.mined)
	if l.sink.height != base {
		return relayed{}, fmt.Errorf("sink is at height %d, the source at %d", l.sink.height, base)
	}
	minedAt := make([]atomic.Int64, total)  // ns since t0, written by the generator before MineBlock
	inFlight := make(chan struct{}, window) // a token per block between MineBlock and the sink
	stop := make(chan struct{})
	generated := make(chan error, 1)
	source := l.nodes[0]
	l.sink.rec = rec

	out := relayed{batchRun: batchRun{wall: make([]time.Duration, 0, batches)}, relay: make([]time.Duration, 0, total)}
	before := readUsage()
	t0 := time.Now()
	go func() {
		for k := 0; k < total; k++ {
			select {
			case inFlight <- struct{}{}:
			case <-stop:
				generated <- nil
				return
			}
			batch := k / batchBlocks
			minedAt[k].Store(int64(time.Since(t0)))
			id := rec.begin("node.MineBlock", noSpan, batch)
			_, err := source.MineBlock(l.payload[k%len(l.payload)])
			rec.end(id)
			if err != nil {
				// Nothing more will arrive: closing the connection ends the
				// sink's blocking read.
				l.sink.close()
				generated <- fmt.Errorf("mining block %d: %w", base+uint64(k)+1, err)
				return
			}
		}
		generated <- nil
	}()

	var err error
	batchStart := t0
receive:
	for b := 0; b < batches; b++ {
		id := rec.begin("batch", noSpan, b)
		for i := 0; i < batchBlocks; i++ {
			block, at, e := l.sink.next(b)
			if e != nil {
				err = e
				rec.end(id)
				break receive
			}
			k := block.Header.Height - base - 1
			out.relay = append(out.relay, at.Sub(t0)-time.Duration(minedAt[k].Load()))
			<-inFlight
			out.blocks++
		}
		rec.end(id)
		now := time.Now()
		out.wall = append(out.wall, now.Sub(batchStart))
		batchStart = now
	}
	close(stop)
	// A mining error is the cause of the read error it provoked.
	if genErr := <-generated; genErr != nil {
		err = genErr
	}
	out.used = usageDelta(before, readUsage())
	l.mined += out.blocks
	l.sink.rec = nil
	return out, err
}

// setRelayEndToEnd reports an untraced measured phase.
func (r relayed) setRelayEndToEnd(o *outcome) {
	r.setEndToEnd(o)
	o.set("propagation_ms_p50", quantile(millis(r.relay), 0.5))
	o.note("relay_us p50=%s p90=%s p99=%s (host time, %d samples)",
		formatValue(quantile(micros(r.relay), 0.5)), formatValue(quantile(micros(r.relay), 0.9)),
		formatValue(quantile(micros(r.relay), 0.99)), len(r.relay))
}

// checkLine is the output check every live phase ends with: each node holds
// every block, and none shed a peer or failed a dial on the way.
func (l *liveLine) checkLine(o *outcome) {
	drops, dialFailures := 0, 0
	for i, n := range l.nodes {
		o.check(n.Height() == uint64(l.mined), "node %d is at height %d after %d blocks", i, n.Height(), l.mined)
		res := n.Resilience()
		drops += res.SlowConsumerDrops
		dialFailures += res.DialFailures
	}
	o.set("p2p.send_queue_drops", float64(drops))
	o.set("p2p.dial_failures", float64(dialFailures))
	o.check(drops == 0, "p2p.send_queue_drops = %d, want 0", drops)
	o.check(dialFailures == 0, "p2p.dial_failures = %d, want 0", dialFailures)
}

// runLiveLine is the live TCP path: every block crosses chain, wire and p2p
// four times and the simulator never.
func runLiveLine(cfg runConfig, o *outcome) error {
	size := liveLineSizes(cfg)
	if cfg.rec != nil {
		return tracedLiveLine(cfg, o, size)
	}
	// Set-up is timed several times, as the simulators' is. The lines before
	// the last are stopped outside the timed part.
	var line *liveLine
	defer func() {
		if line != nil {
			line.stop()
		}
	}()
	setups := make([]float64, 0, size.builds)
	for i := 0; i < size.builds; i++ {
		if line != nil {
			line.stop()
			line = nil
		}
		start := time.Now()
		l, err := startLine(nil, noSpan, size.nodes, cfg.seed)
		if err != nil {
			return err
		}
		line = l
		if _, err := line.relay(nil, 1, size.warmup, size.window); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.set("setup_s", quantile(setups, 0.5))

	measured, err := line.relay(nil, size.batches, size.batchBlocks, size.window)
	o.attempted = size.batches * size.batchBlocks
	o.failed = o.attempted - measured.blocks
	if err != nil {
		o.check(false, "%v", err)
		return nil // reported as failed blocks, with the metrics so far
	}
	measured.setRelayEndToEnd(o)
	line.checkLine(o)
	return nil
}

func tracedLiveLine(cfg runConfig, o *outcome, size liveSizes) error {
	rec := cfg.rec
	// The codec layers first, on a small heap: once the line has relayed its
	// blocks the four stores hold a gigabyte and every allocation pays for it.
	if err := chainLayers(o, payloadTxs(benchRand(cfg.seed, purposePayload), liveTxs, liveTxBytes), size.codecCalls); err != nil {
		return err
	}
	if err := wireLayers(o, cfg.seed, size.codecCalls); err != nil {
		return err
	}
	setup := rec.begin("setup", noSpan, -1)
	line, err := startLine(rec, setup, size.nodes, cfg.seed)
	if err != nil {
		return err
	}
	defer line.stop()
	if _, err := line.relay(nil, 1, size.warmup, size.window); err != nil {
		return err
	}
	rec.end(setup)
	o.set("p2p.start_ms", medianSpanMS(rec, "node.New+Start"))
	o.set("p2p.connect_us", medianSpanMS(rec, "node.Connect")*1e3)

	// bench.trace_overhead_pct: untraced batches on the warm line, then the
	// traced ones.
	reference, err := line.relay(nil, size.referenceBatches, size.batchBlocks, size.window)
	if err != nil {
		return err
	}
	messagesBefore := line.sink.messages
	traced, err := line.relay(rec, size.batches, size.batchBlocks, size.window)
	o.attempted = size.batches * size.batchBlocks
	o.failed = o.attempted - traced.blocks
	if err != nil {
		o.check(false, "%v", err)
		return nil
	}
	o.set("p2p.msgs_per_block", float64(line.sink.messages-messagesBefore)/float64(traced.blocks))
	o.set("p2p.mine_block_us", quantile(micros(rec.durations("node.MineBlock")), 0.5))
	o.set("relay_us_p50", quantile(micros(traced.relay), 0.5))
	o.set("relay_us_p90", quantile(micros(traced.relay), 0.9))
	o.set("bench.relay_us_p99", quantile(micros(traced.relay), 0.99))
	o.set("bench.batch_ms_p90", quantile(millis(traced.wall), 0.9))
	o.set("alloc_kb_per_block", traced.allocKBPerBlock())
	o.set("bench.trace_overhead_pct",
		(reference.blocksPerSecond()-traced.blocksPerSecond())/reference.blocksPerSecond()*100)
	o.note("traced run: nodes=%d batches=%d blocks=%d window=%d", size.nodes, size.batches, traced.blocks, size.window)

	// One block at a time down the same line: wake-up latency, not
	// throughput, and for context only.
	serial, err := line.relay(nil, 1, size.serialBlocks, 1)
	if err != nil {
		return err
	}
	o.set("p2p.relay_serial_us_p50", quantile(micros(serial.relay), 0.5))
	line.checkLine(o)

	// One hop: a single node between source and sink.
	hop, err := startLine(nil, noSpan, 1, cfg.seed+1)
	if err != nil {
		return err
	}
	defer hop.stop()
	one, err := hop.relay(nil, 1, size.hopBlocks, 1)
	if err != nil {
		return err
	}
	o.set("p2p.hop_us_p50", quantile(micros(one.relay), 0.5))
	return nil
}
