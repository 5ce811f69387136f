// Package faults provides deterministic, seeded fault injection for live
// Perigee connections: a Plan decides — purely from its seed and the
// connection's identity — which dials fail, which established connections
// are reset, stalled, throttled, or lossy, and when. The same plan with
// the same seed issues bit-for-bit identical verdicts on every run, so a
// chaos experiment is replayable.
//
// A Plan is pluggable the same way an adversary.Strategy is: the built-in
// Mixed and DialFailures constructors cover the standard chaos mix, and a
// custom plan is any type implementing the three-method interface using
// only basic types. Plans are consulted by the live node at two points:
// before every dial (Dial) and right after every completed handshake
// (Conn). A verdict is applied at the consulting node's end of the
// connection by Wrap, which honors read deadlines so the node's idle
// timeout machinery still fires on a stalled connection.
package faults

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/rng"
)

// Kind enumerates the injectable connection faults.
type Kind int

// The fault kinds.
const (
	// None leaves the connection untouched.
	None Kind = iota
	// DialFail makes the dial error before any connection exists.
	DialFail
	// Reset severs the connection after Verdict.After successful socket
	// reads or writes: subsequent operations fail like a peer's RST.
	Reset
	// Stall black-holes the connection after Verdict.After operations:
	// reads block until their deadline (or the close), writes pretend to
	// succeed while the bytes vanish — a hung remote, no FIN.
	Stall
	// SlowReader throttles every socket read (one fill of the connection's
	// read buffer, however many frames it brings) by Verdict.Throttle — the
	// slow-loris consumer that backpressure must shed.
	SlowReader
	// Drop discards every Verdict.DropNth outbound message silently; the
	// connection itself stays healthy. Applied at message granularity by
	// the node's send path, not by Wrap.
	Drop
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case DialFail:
		return "dial-fail"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case SlowReader:
		return "slow-reader"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Verdict is one connection's fate under a plan. The zero value is "no
// fault".
type Verdict struct {
	// Kind is the injected fault.
	Kind Kind
	// After is the number of successful connection operations before a
	// Reset or Stall fires. An operation is one socket read or write, which
	// on a live connection is a burst — every frame the writer had queued,
	// or as much as the reader's buffer took in — not half a frame.
	After int
	// Throttle is the delay of a SlowReader before each socket read, that
	// is, per fill of the reader's buffer.
	Throttle time.Duration
	// DropNth makes the send path discard every DropNth-th message
	// (Kind Drop).
	DropNth int
}

// Faulty reports whether the verdict injects anything.
func (v Verdict) Faulty() bool { return v.Kind != None }

// String renders the verdict for logs.
func (v Verdict) String() string {
	switch v.Kind {
	case Reset, Stall:
		return fmt.Sprintf("%s(after=%d)", v.Kind, v.After)
	case SlowReader:
		return fmt.Sprintf("%s(throttle=%v)", v.Kind, v.Throttle)
	case Drop:
		return fmt.Sprintf("%s(nth=%d)", v.Kind, v.DropNth)
	default:
		return v.Kind.String()
	}
}

// Plan decides connection fates deterministically. Implementations must
// be pure functions of their configuration and the arguments: the live
// node may consult a plan from several goroutines, and a replay with the
// same seed must see identical verdicts.
type Plan interface {
	// Name identifies the plan.
	Name() string
	// Brief is a one-line description.
	Brief() string
	// Dial returns the verdict for node's attempt-th dial of addr
	// (attempts count from 0 per (node, addr) pair). Only None and
	// DialFail are meaningful here.
	Dial(node uint64, addr string, attempt int) Verdict
	// Conn returns the verdict governing the attempt-th established
	// connection between node and remote (attempts count from 0 per
	// (node, remote) pair), applied at node's end.
	Conn(node, remote uint64, attempt int) Verdict
}

// mixed is the standard chaos plan: a seeded fraction of dials fail and a
// seeded fraction of established connections draw a uniform fault from
// {Reset, Stall, SlowReader, Drop}.
type mixed struct {
	seed      uint64
	dialFrac  float64
	connFrac  float64
	dialsOnly bool
}

// Mixed returns the standard chaos plan: fraction of dials fail outright
// and fraction of established connections are faulted with a kind drawn
// uniformly from {Reset, Stall, SlowReader, Drop}, all derived
// deterministically from seed. Fractions outside [0, 1] are clamped.
func Mixed(seed uint64, fraction float64) Plan {
	return &mixed{seed: seed, dialFrac: clamp01(fraction), connFrac: clamp01(fraction)}
}

// DialFailures returns a plan that only fails dials, at the given rate —
// the minimal plan for exercising backoff and failure budgets.
func DialFailures(seed uint64, fraction float64) Plan {
	return &mixed{seed: seed, dialFrac: clamp01(fraction), dialsOnly: true}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func (m *mixed) Name() string {
	if m.dialsOnly {
		return "dial-failures"
	}
	return "mixed"
}

func (m *mixed) Brief() string {
	if m.dialsOnly {
		return fmt.Sprintf("%.0f%% of dials fail", 100*m.dialFrac)
	}
	return fmt.Sprintf("%.0f%% of dials fail; %.0f%% of connections reset/stall/throttle/drop", 100*m.dialFrac, 100*m.connFrac)
}

// stream derives the deterministic stream for one decision point. The
// derivation is stateless — it depends only on the plan seed and the
// identifying key, never on the order decisions are requested in, so
// concurrent consultation and replays agree.
func (m *mixed) stream(key string, index int) *rng.RNG {
	return rng.New(m.seed).Derive("faults").Derive(key).DeriveIndexed("attempt", index)
}

func (m *mixed) Dial(node uint64, addr string, attempt int) Verdict {
	r := m.stream(fmt.Sprintf("dial|%016x|%s", node, addr), attempt)
	if r.Float64() < m.dialFrac {
		return Verdict{Kind: DialFail}
	}
	return Verdict{}
}

func (m *mixed) Conn(node, remote uint64, attempt int) Verdict {
	if m.dialsOnly {
		return Verdict{}
	}
	r := m.stream(fmt.Sprintf("conn|%016x|%016x", node, remote), attempt)
	if r.Float64() >= m.connFrac {
		return Verdict{}
	}
	switch r.IntN(4) {
	case 0:
		return Verdict{Kind: Reset, After: 4 + r.IntN(28)}
	case 1:
		return Verdict{Kind: Stall, After: 4 + r.IntN(28)}
	case 2:
		return Verdict{Kind: SlowReader, Throttle: time.Duration(5+r.IntN(45)) * time.Millisecond}
	default:
		return Verdict{Kind: Drop, DropNth: 2 + r.IntN(5)}
	}
}

// ErrInjectedDial is the error returned for a plan-failed dial.
var ErrInjectedDial = fmt.Errorf("faults: injected dial failure")

// ErrInjectedReset is the error surfaced by a Reset fault's operations.
var ErrInjectedReset = fmt.Errorf("faults: injected connection reset")

// Wrap applies a verdict to a live connection. None and Drop return conn
// unchanged (Drop is a message-level fault the send path applies); Reset,
// Stall, and SlowReader return a wrapper implementing the fault.
func Wrap(conn net.Conn, v Verdict) net.Conn {
	switch v.Kind {
	case Reset, Stall, SlowReader:
		return &faultConn{Conn: conn, verdict: v, closed: make(chan struct{})}
	default:
		return conn
	}
}

// faultConn implements Reset, Stall, and SlowReader over an inner
// connection. Stalled reads honor the read deadline set through
// SetReadDeadline/SetDeadline so the node's idle-timeout probe still
// fires; stalled writes succeed and vanish, like bytes into a dead TCP
// window.
type faultConn struct {
	net.Conn
	verdict Verdict

	mu           sync.Mutex
	ops          int
	tripped      bool
	readDeadline time.Time

	closeOnce sync.Once
	closed    chan struct{}
}

// trip advances the operation count and reports whether the fault has
// fired.
func (f *faultConn) trip() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tripped {
		return true
	}
	if f.ops >= f.verdict.After && (f.verdict.Kind == Reset || f.verdict.Kind == Stall) {
		f.tripped = true
		return true
	}
	f.ops++
	return false
}

func (f *faultConn) Read(b []byte) (int, error) {
	if f.verdict.Kind == SlowReader && f.verdict.Throttle > 0 {
		timer := time.NewTimer(f.verdict.Throttle)
		select {
		case <-timer.C:
		case <-f.closed:
			timer.Stop()
			return 0, net.ErrClosed
		}
	}
	if f.trip() {
		switch f.verdict.Kind {
		case Reset:
			f.Close()
			return 0, ErrInjectedReset
		case Stall:
			return 0, f.stall()
		}
	}
	return f.Conn.Read(b)
}

func (f *faultConn) Write(b []byte) (int, error) {
	if f.trip() {
		switch f.verdict.Kind {
		case Reset:
			f.Close()
			return 0, ErrInjectedReset
		case Stall:
			// The bytes vanish into the dead window; the writer sees
			// success, exactly like an unacked TCP send.
			return len(b), nil
		}
	}
	return f.Conn.Write(b)
}

// stall blocks until the connection closes or the read deadline passes,
// then returns the corresponding error — the observable behavior of a
// peer that went silent without closing.
func (f *faultConn) stall() error {
	for {
		f.mu.Lock()
		deadline := f.readDeadline
		f.mu.Unlock()
		var timer *time.Timer
		var expire <-chan time.Time
		if !deadline.IsZero() {
			wait := time.Until(deadline)
			if wait <= 0 {
				return os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(wait)
			expire = timer.C
		}
		select {
		case <-f.closed:
			if timer != nil {
				timer.Stop()
			}
			return net.ErrClosed
		case <-expire:
			// Re-check: the deadline may have been extended meanwhile.
		case <-time.After(50 * time.Millisecond):
			if timer != nil {
				timer.Stop()
			}
			// Poll for deadline updates made after we sampled it.
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

func (f *faultConn) SetReadDeadline(t time.Time) error {
	f.mu.Lock()
	f.readDeadline = t
	f.mu.Unlock()
	return f.Conn.SetReadDeadline(t)
}

func (f *faultConn) SetDeadline(t time.Time) error {
	f.mu.Lock()
	f.readDeadline = t
	f.mu.Unlock()
	return f.Conn.SetDeadline(t)
}

func (f *faultConn) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.Conn.Close()
}

// Recorder wraps a plan and logs every verdict it issues, for replay
// equality checks in chaos tests. Safe for concurrent use.
type Recorder struct {
	inner Plan

	mu  sync.Mutex
	log []string
}

// NewRecorder returns a recording wrapper around plan.
func NewRecorder(plan Plan) *Recorder { return &Recorder{inner: plan} }

// Name implements Plan.
func (r *Recorder) Name() string { return r.inner.Name() }

// Brief implements Plan.
func (r *Recorder) Brief() string { return r.inner.Brief() }

// Dial implements Plan, recording the verdict.
func (r *Recorder) Dial(node uint64, addr string, attempt int) Verdict {
	v := r.inner.Dial(node, addr, attempt)
	r.record(fmt.Sprintf("dial|%016x|%s|%d|%s", node, addr, attempt, v))
	return v
}

// Conn implements Plan, recording the verdict.
func (r *Recorder) Conn(node, remote uint64, attempt int) Verdict {
	v := r.inner.Conn(node, remote, attempt)
	r.record(fmt.Sprintf("conn|%016x|%016x|%d|%s", node, remote, attempt, v))
	return v
}

func (r *Recorder) record(line string) {
	r.mu.Lock()
	r.log = append(r.log, line)
	r.mu.Unlock()
}

// Log returns a copy of the recorded verdict lines in issue order.
func (r *Recorder) Log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.log...)
}
