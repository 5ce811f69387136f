package perigee

import "github.com/perigee-net/perigee/internal/faults"

// FaultPlan is a pluggable, deterministic fault-injection policy for the
// live node (see the internal/faults package documentation for the full
// model). A plan decides — purely from its seed and a connection's
// identity — which dials fail and which established connections are
// reset, stalled, throttled, or lossy; the same plan with the same seed
// issues bit-for-bit identical verdicts on every run, making a chaos
// experiment replayable. Install one with node.WithFaults or
// cmd/perigee-cluster's -faults flag.
//
// A custom plan is any type implementing the interface's three methods
// using only basic types plus the aliases below:
//
//	type mondays struct{}
//
//	func (mondays) Name() string  { return "mondays" }
//	func (mondays) Brief() string { return "every third dial fails" }
//	func (mondays) Dial(node uint64, addr string, attempt int) perigee.FaultVerdict {
//	    if attempt%3 == 2 {
//	        return perigee.FaultVerdict{Kind: perigee.FaultDialFail}
//	    }
//	    return perigee.FaultVerdict{}
//	}
//	func (mondays) Conn(node, remote uint64, attempt int) perigee.FaultVerdict {
//	    return perigee.FaultVerdict{}
//	}
type FaultPlan = faults.Plan

// FaultVerdict is one connection's fate under a plan; the zero value is
// "no fault".
type FaultVerdict = faults.Verdict

// FaultKind enumerates the injectable connection faults.
type FaultKind = faults.Kind

// The fault kinds a verdict may carry.
const (
	// FaultNone leaves the connection untouched.
	FaultNone = faults.None
	// FaultDialFail makes the dial error before any connection exists.
	FaultDialFail = faults.DialFail
	// FaultReset severs the connection after Verdict.After operations
	// (socket reads and writes: bursts of frames, not single messages).
	FaultReset = faults.Reset
	// FaultStall black-holes the connection: reads hang, writes vanish.
	FaultStall = faults.Stall
	// FaultSlowReader throttles every socket read — one fill of the
	// connection's read buffer — by Verdict.Throttle.
	FaultSlowReader = faults.SlowReader
	// FaultDrop silently discards every Verdict.DropNth outbound message.
	FaultDrop = faults.Drop
)

// MixedFaults returns the standard chaos plan: fraction (clamped to
// [0, 1]) of dials fail outright, and the same fraction of established
// connections draw a uniform fault — reset, stall, slow-loris read, or
// message drops.
func MixedFaults(seed uint64, fraction float64) FaultPlan {
	return faults.Mixed(seed, fraction)
}

// DialFaults returns a plan that only fails dials, leaving established
// connections untouched — backoff and redial behavior in isolation.
func DialFaults(seed uint64, fraction float64) FaultPlan {
	return faults.DialFailures(seed, fraction)
}

// FaultRecorder wraps a plan and logs every verdict it issues, in
// consultation order — the primitive for asserting that two runs of one
// plan were identical.
type FaultRecorder = faults.Recorder

// RecordFaults wraps plan with a verdict recorder.
func RecordFaults(plan FaultPlan) *FaultRecorder { return faults.NewRecorder(plan) }
