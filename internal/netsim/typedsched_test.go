package netsim

import (
	"container/heap"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/perigee-net/perigee/internal/geo"
	"github.com/perigee-net/perigee/internal/latency"
	"github.com/perigee-net/perigee/internal/rng"
	"github.com/perigee-net/perigee/internal/stats"
	"github.com/perigee-net/perigee/internal/topology"
)

// closureScheduler is the discrete-event engine the reference runs on: a
// virtual clock plus a binary heap of closures, where two events scheduled
// for the same instant fire in the order they were scheduled. The zero
// value is ready to use, starting at virtual time zero.
type closureScheduler struct {
	now    time.Duration
	queue  eventHeap
	nextID uint64
}

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// At schedules fn to run at virtual time t, which must not be in the past.
func (s *closureScheduler) At(t time.Duration, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("schedule at %v before now %v", t, s.now))
	}
	heap.Push(&s.queue, event{at: t, seq: s.nextID, fn: fn})
	s.nextID++
}

// Run fires events until none remain, advancing the clock to each one's
// timestamp as it fires.
func (s *closureScheduler) Run() {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(event)
		s.now = e.at
		e.fn()
	}
}

func TestClosureSchedulerTieBreakIsFIFO(t *testing.T) {
	var s closureScheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie broken out of FIFO order: %v", order)
		}
	}
}

func TestClosureSchedulerEventsCanScheduleEvents(t *testing.T) {
	var s closureScheduler
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			s.At(s.now+1, chain)
		}
	}
	s.At(0, chain)
	s.Run()
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if s.now != 99 {
		t.Fatalf("clock = %v, want 99", s.now)
	}
}

// Property: for any multiset of schedule times, execution order is the
// sorted order, with FIFO among equal times.
func TestClosureSchedulerOrderProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		var s closureScheduler
		type stamp struct {
			at  time.Duration
			seq int
		}
		var fired []stamp
		for i, v := range raw {
			at := time.Duration(v)
			i := i
			s.At(at, func() { fired = append(fired, stamp{at, i}) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// refBroadcast is the reference the label-setting pass is held to: an
// event-per-directed-edge simulation of the network model on
// closureScheduler, straight off Config (slice adjacency, per-hop
// Latency.Delay calls, binary-search reverse index, no CSR). It orders all
// deliveries where Broadcaster orders only first arrivals; the property
// tests assert the two agree bit-for-bit.
type refBroadcast struct {
	cfg      Config
	rev      [][]int
	sched    closureScheduler
	arrival  []time.Duration
	edgeArrv [][]time.Duration
}

func newRefBroadcast(t *testing.T, cfg Config) *refBroadcast {
	t.Helper()
	n := len(cfg.Adj)
	r := &refBroadcast{cfg: cfg, rev: make([][]int, n), arrival: make([]time.Duration, n)}
	for u := 0; u < n; u++ {
		r.rev[u] = make([]int, len(cfg.Adj[u]))
		for j, v := range cfg.Adj[u] {
			k := sort.SearchInts(cfg.Adj[v], u)
			if k >= len(cfg.Adj[v]) || cfg.Adj[v][k] != u {
				t.Fatalf("reference: adjacency not symmetric at (%d, %d)", u, v)
			}
			r.rev[u][j] = k
		}
	}
	r.edgeArrv = make([][]time.Duration, n)
	for v := 0; v < n; v++ {
		r.edgeArrv[v] = make([]time.Duration, len(cfg.Adj[v]))
	}
	return r
}

func (r *refBroadcast) broadcast(source int) ([]time.Duration, [][]time.Duration) {
	for v := range r.arrival {
		r.arrival[v] = stats.InfDuration
		for i := range r.edgeArrv[v] {
			r.edgeArrv[v][i] = stats.InfDuration
		}
	}
	r.sched = closureScheduler{queue: r.sched.queue[:0]}
	r.arrival[source] = 0
	r.forward(source, 0)
	r.sched.Run()
	return r.arrival, r.edgeArrv
}

func (r *refBroadcast) forward(v int, at time.Duration) {
	var interval time.Duration
	if r.cfg.SendInterval != nil {
		interval = r.cfg.SendInterval[v]
	}
	for j, w := range r.cfg.Adj[v] {
		depart := at + time.Duration(j)*interval
		deliverAt := depart + r.cfg.Latency.Delay(v, w)
		w, slot := w, r.rev[v][j]
		r.sched.At(deliverAt, func() { r.deliver(w, slot) })
	}
}

func (r *refBroadcast) deliver(w, slot int) {
	now := r.sched.now
	if r.edgeArrv[w][slot] > now {
		r.edgeArrv[w][slot] = now
	}
	if r.arrival[w] == stats.InfDuration {
		r.arrival[w] = now
		if r.cfg.Silent == nil || !r.cfg.Silent[w] {
			depart := now + r.cfg.Forward[w]
			if r.cfg.RelayDelay != nil {
				depart += r.cfg.RelayDelay[w] // read live, like the simulator
			}
			r.forward(w, depart)
		}
	}
}

// matchReference fails unless got equals the reference's Arrival vector and
// every EdgeArrival row exactly.
func matchReference(t *testing.T, ref *refBroadcast, got Result) {
	t.Helper()
	wantArr, wantEdge := ref.broadcast(got.Source)
	for v := range wantArr {
		if got.Arrival[v] != wantArr[v] {
			t.Fatalf("src %d: arrival[%d] = %v, reference %v", got.Source, v, got.Arrival[v], wantArr[v])
		}
		if len(got.EdgeArrival[v]) != len(wantEdge[v]) {
			t.Fatalf("src %d: edgeArrival[%d] has %d slots, reference %d",
				got.Source, v, len(got.EdgeArrival[v]), len(wantEdge[v]))
		}
		for i := range wantEdge[v] {
			if got.EdgeArrival[v][i] != wantEdge[v][i] {
				t.Fatalf("src %d: edgeArrival[%d][%d] = %v, reference %v",
					got.Source, v, i, got.EdgeArrival[v][i], wantEdge[v][i])
			}
		}
	}
}

// caseOpts selects the features of one sampled property-test network.
type caseOpts struct {
	serialized bool         // random per-node SendInterval
	silent     bool         // random silent set, node 0 (a tested source) included
	relay      bool         // random per-node RelayDelay
	ties       bool         // constant link delay and coarse forward delays: equal-time arrivals everywhere
	island     int          // extra nodes in a ring of their own, unreachable from the rest
	mode       latency.Mode // edge-delay evaluation (Auto resolves to precomputed at these sizes)
}

// randomCase samples one property-test network: random size/degree and
// random heterogeneous forward delays, plus whatever opts asks for.
func randomCase(t *testing.T, seed uint64, opts caseOpts) Config {
	t.Helper()
	root := rng.New(seed)
	core := 20 + int(root.IntN(60))
	n := core + opts.island
	deg := 2 + int(root.IntN(4))
	u, err := geo.SampleUniverse(n, root.Derive("universe"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := latency.NewGeographic(u, root.Derive("lat"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := topology.Random(core, deg, 3*deg, root.Derive("topo"))
	if err != nil {
		t.Fatal(err)
	}
	adj := tbl.Undirected()
	for i := 0; i < opts.island; i++ {
		row := []int{core + (i+opts.island-1)%opts.island, core + (i+1)%opts.island}
		sort.Ints(row)
		adj = append(adj, row)
	}
	cfg := Config{
		Adj:         adj,
		Latency:     model,
		Forward:     make([]time.Duration, n),
		LatencyMode: opts.mode,
	}
	for i := range cfg.Forward {
		cfg.Forward[i] = time.Duration(root.IntN(80)) * time.Millisecond
	}
	if opts.ties {
		// Links cost 0 or 10 ms flat and validation 0, 10 or 20 ms, so many
		// deliveries share a timestamp and whole neighborhoods tie at 0.
		cfg.Latency = latency.Constant{Nodes: n, D: time.Duration(seed%2) * 10 * time.Millisecond}
		for i := range cfg.Forward {
			cfg.Forward[i] = time.Duration(root.IntN(3)) * 10 * time.Millisecond
		}
	}
	if opts.serialized {
		cfg.SendInterval = make([]time.Duration, n)
		for i := range cfg.SendInterval {
			cfg.SendInterval[i] = time.Duration(root.IntN(20)) * time.Millisecond
		}
	}
	if opts.silent {
		cfg.Silent = make([]bool, n)
		for i := range cfg.Silent {
			cfg.Silent[i] = i == 0 || root.Float64() < 0.2
		}
	}
	if opts.relay {
		cfg.RelayDelay = make([]time.Duration, n)
		for i := range cfg.RelayDelay {
			cfg.RelayDelay[i] = time.Duration(root.IntN(4)) * 25 * time.Millisecond
		}
	}
	return cfg
}

// TestBroadcastMatchesClosureScheduler is the property test of the
// label-setting pass: on randomized topologies — serialized uploads, silent
// sources and relays, withholding delays, zero-delay ties, an unreachable
// component, streaming and precomputed latency — Broadcast must produce
// exactly the Arrival and EdgeArrival matrices of the event-per-edge
// reference on closureScheduler.
func TestBroadcastMatchesClosureScheduler(t *testing.T) {
	modes := []struct {
		name string
		opts caseOpts
	}{
		{"plain", caseOpts{}},
		{"serialized", caseOpts{serialized: true}},
		{"silent", caseOpts{silent: true}},
		{"serialized-silent", caseOpts{serialized: true, silent: true}},
		{"relay", caseOpts{relay: true}},
		{"ties", caseOpts{ties: true}},
		{"ties-serialized-silent", caseOpts{ties: true, serialized: true, silent: true}},
		{"island", caseOpts{island: 5}},
		{"streaming", caseOpts{mode: latency.Streaming}},
		{"streaming-everything", caseOpts{mode: latency.Streaming, serialized: true, silent: true, relay: true, island: 3}},
		{"precomputed-everything", caseOpts{mode: latency.Precomputed, serialized: true, silent: true, relay: true, island: 3}},
	}
	for seed := uint64(0); seed < 12; seed++ {
		for _, mode := range modes {
			t.Run(fmt.Sprintf("seed%d-%s", seed, mode.name), func(t *testing.T) {
				cfg := randomCase(t, seed*7919+1, mode.opts)
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want := mode.opts.mode == latency.Streaming; sim.Streaming() != want {
					t.Fatalf("simulator streaming = %v, want %v", sim.Streaming(), want)
				}
				ref := newRefBroadcast(t, cfg)
				n := len(cfg.Adj)
				for _, src := range []int{0, (n - mode.opts.island) / 2, n - 1} {
					got, err := sim.Broadcast(src)
					if err != nil {
						t.Fatal(err)
					}
					matchReference(t, ref, got)
					reached := 0
					for _, a := range got.Arrival {
						if a != stats.InfDuration {
							reached++
						}
					}
					// The island and the rest never hear one another; their
					// rows must stay censored, not merely match.
					if island := mode.opts.island; island > 0 && cfg.Silent == nil {
						want := n - island
						if src >= want {
							want = island
						}
						if reached != want {
							t.Fatalf("src %d reached %d nodes, want %d", src, reached, want)
						}
					}
				}
			})
		}
	}
}

// TestBroadcasterTracksLiveConfig drives one Broadcaster through the two
// things that may change under it between broadcasts — RelayDelay entries
// mutated in place (an adversary switching behavior mid-run) and a
// Reconfigure to a new topology — and holds every broadcast to the
// reference built from the configuration current at that moment.
func TestBroadcasterTracksLiveConfig(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		cfg := randomCase(t, seed*104729+5, caseOpts{relay: true, serialized: seed%2 == 1, silent: seed%3 == 2})
		n := len(cfg.Adj)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bc := sim.NewBroadcaster()
		ref := newRefBroadcast(t, cfg)
		check := func(what string) {
			t.Helper()
			for _, src := range []int{0, n / 2, n - 1} {
				got, err := bc.Broadcast(src)
				if err != nil {
					t.Fatalf("seed %d, %s: %v", seed, what, err)
				}
				matchReference(t, ref, got)
			}
		}
		check("initial")

		before, err := bc.Broadcast(n / 2)
		if err != nil {
			t.Fatal(err)
		}
		before = snapshot(before)
		for i := range cfg.RelayDelay { // shared with the simulator and the reference
			cfg.RelayDelay[i] = time.Duration((i*7+int(seed))%5) * 40 * time.Millisecond
		}
		check("after RelayDelay mutation")
		after, err := bc.Broadcast(n / 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(before.Arrival, after.Arrival) {
			t.Fatalf("seed %d: RelayDelay mutation changed no arrival; the slice is not read live", seed)
		}

		tbl, err := topology.Random(n, 3, 9, rng.New(seed+900))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Adj = tbl.Undirected()
		if err := sim.Reconfigure(cfg.Adj); err != nil {
			t.Fatal(err)
		}
		ref = newRefBroadcast(t, cfg)
		check("after Reconfigure")
	}
}

// countingModel counts Delay evaluations of the model it wraps.
type countingModel struct {
	latency.Model
	calls int
}

func (m *countingModel) Delay(u, v int) time.Duration {
	m.calls++
	return m.Model.Delay(u, v)
}

// TestStreamingEvaluatesEachEdgeOnce pins the cost contract of streaming
// mode, where one Model.Delay is two hashes: a broadcast evaluates δ exactly
// once per directed edge leaving a node that relays — the source and every
// reached non-silent node — and never for the rest.
func TestStreamingEvaluatesEachEdgeOnce(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		cfg := randomCase(t, seed*31+3, caseOpts{mode: latency.Streaming, silent: seed%2 == 1, serialized: seed%3 == 0, island: 4})
		model := &countingModel{Model: cfg.Latency}
		cfg.Latency = model
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if model.calls != 0 {
			t.Fatalf("building a streaming simulator evaluated %d delays", model.calls)
		}
		n := len(cfg.Adj)
		for _, src := range []int{0, n / 3, n - 1} {
			model.calls = 0
			res, err := sim.Broadcast(src)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for v, a := range res.Arrival {
				if a != stats.InfDuration && (v == src || cfg.Silent == nil || !cfg.Silent[v]) {
					want += len(cfg.Adj[v])
				}
			}
			if model.calls != want {
				t.Fatalf("seed %d src %d: broadcast evaluated %d delays, want %d (one per relayed directed edge)",
					seed, src, model.calls, want)
			}
			model.calls = 0
			if _, err := sim.ArrivalAnalytic(src); err != nil {
				t.Fatal(err)
			}
			if model.calls != want {
				t.Fatalf("seed %d src %d: arrival-only pass evaluated %d delays, want %d", seed, src, model.calls, want)
			}
		}
	}
}

// TestReconfigureMatchesFresh proves in-place CSR reconfiguration is
// equivalent to building a fresh simulator, and that existing Broadcasters
// resynchronize across the topology change.
func TestReconfigureMatchesFresh(t *testing.T) {
	cfgA := randomCase(t, 42, caseOpts{})
	n := len(cfgA.Adj)
	sim, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	bc := sim.NewBroadcaster()
	if _, err := bc.Broadcast(0); err != nil {
		t.Fatal(err)
	}

	// A different topology over the same universe and tables.
	root := rng.New(43)
	tbl, err := topology.Random(n, 4, 12, root)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfgA
	cfgB.Adj = tbl.Undirected()
	if err := sim.Reconfigure(cfgB.Adj); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, n - 1} {
		got, err := bc.Broadcast(src) // pre-reconfigure Broadcaster, reused
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Broadcast(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if got.Arrival[v] != want.Arrival[v] {
				t.Fatalf("src %d: arrival[%d] = %v, fresh %v", src, v, got.Arrival[v], want.Arrival[v])
			}
			for i := range want.EdgeArrival[v] {
				if got.EdgeArrival[v][i] != want.EdgeArrival[v][i] {
					t.Fatalf("src %d: edge[%d][%d] mismatch", src, v, i)
				}
			}
		}
		gotAn, err := sim.ArrivalAnalytic(src)
		if err != nil {
			t.Fatal(err)
		}
		wantAn, err := fresh.ArrivalAnalytic(src)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if gotAn[v] != wantAn[v] {
				t.Fatalf("src %d: analytic[%d] = %v, fresh %v", src, v, gotAn[v], wantAn[v])
			}
		}
	}
}

// TestPrevalidatedRejectsAsymmetry proves New and Reconfigure detect an
// asymmetric adjacency, whose rows each pass the per-row checks, through
// the reverse-index sweep rather than silently corrupting the reverse
// index.
func TestPrevalidatedRejectsAsymmetry(t *testing.T) {
	asym := [][]int{{1, 2}, {0}, {}}
	cfg := Config{
		Adj:     asym,
		Latency: latency.Constant{Nodes: 3, D: time.Millisecond},
		Forward: make([]time.Duration, 3),
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted an asymmetric adjacency")
	}
	cfg.Adj = [][]int{{1}, {0}, {}}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Reconfigure(asym); err == nil {
		t.Fatal("Reconfigure accepted an asymmetric adjacency")
	}
}

// TestReconfigureRejectsResize pins the contract that the node count is
// fixed at construction (the latency/forward tables stay valid).
func TestReconfigureRejectsResize(t *testing.T) {
	cfg := lineConfig(4, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Reconfigure([][]int{{1}, {0}}); err == nil {
		t.Fatal("Reconfigure accepted a different node count")
	}
}
