package perigee

import (
	"fmt"
	"io"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/trace"
)

// TraceLevel selects how much of each round's neighbor-selection decision
// is recorded; see the constants and WithTraceLevel.
type TraceLevel = core.TraceLevel

// The decision-trace detail levels.
const (
	// TraceOff (the default) records nothing; the decision path stays
	// allocation-free.
	TraceOff = core.TraceOff
	// TraceDecisions records every keep/drop/dial decision with the
	// decision-time neighbor scores.
	TraceDecisions = core.TraceDecisions
	// TraceInputs additionally records the decision's inputs: the full
	// per-neighbor observation rows and censoring counts.
	TraceInputs = core.TraceInputs
)

// TraceRecord is one recorded decision or counterfactual evaluation; see
// the internal/trace package docs for the NDJSON field semantics.
type TraceRecord = trace.Record

// TraceSummary aggregates counterfactual regret per round for one
// selector; render it with its Render method.
type TraceSummary = trace.Summary

// WithTraceLevel enables decision tracing: every per-node keep/drop/dial
// decision is recorded and available from Network.Trace after the run.
// Default TraceOff, which keeps the broadcast and decision paths
// allocation-free.
func WithTraceLevel(l TraceLevel) Option {
	return func(s *settings) error {
		if !l.Valid() {
			return fmt.Errorf("perigee: unknown trace level %d", int(l))
		}
		s.traceLevel = l
		return nil
	}
}

// WithCounterfactualK additionally evaluates, for each traced decision, the
// top-k dropped alternatives counterfactually: the next round measures what
// the rejected neighbor's one-hop relay would have delivered, and the trace
// reports the per-decision regret (worst kept score minus the alternative's
// counterfactual score). Requires WithTraceLevel; k must be non-negative.
// Default 0 (no counterfactuals).
func WithCounterfactualK(k int) Option {
	return func(s *settings) error {
		if k < 0 {
			return fmt.Errorf("perigee: counterfactual k %d must be non-negative", k)
		}
		s.counterfactualK = k
		return nil
	}
}

// Trace returns the decision-trace records recorded so far, in the
// deterministic emission order (counterfactuals of round R precede the
// decisions of round R+1, nodes ascending). Nil when tracing is off.
func (n *Network) Trace() []TraceRecord {
	if n.traceCollector == nil {
		return nil
	}
	return n.traceCollector.Records()
}

// TraceSummary aggregates the recorded counterfactual regret per round.
// Nil when tracing is off.
func (n *Network) TraceSummary() *TraceSummary {
	if n.traceCollector == nil {
		return nil
	}
	return trace.Summarize(n.traceCollector.Selector, n.traceCollector.Records())
}

// WriteTrace streams the recorded trace as NDJSON, one record per line —
// the same format cmd/perigee-serve streams over HTTP. An untraced network
// writes nothing.
func (n *Network) WriteTrace(w io.Writer) error {
	if n.traceCollector == nil {
		return nil
	}
	return trace.WriteNDJSON(w, n.traceCollector.Records())
}
