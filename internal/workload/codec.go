package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// TraceVersion is the trace-file format version this package reads and
// writes.
const TraceVersion = 1

// TraceArrival is one recorded block-production event. Times are integer
// nanoseconds so the codec round-trips exactly — a replayed trace is
// bit-for-bit the trace that was recorded, with no float formatting drift.
type TraceArrival struct {
	AtNS  int64 `json:"at_ns"`
	Miner int   `json:"miner"`
}

// TraceFile is the on-disk arrival-trace format: a version tag, the node
// count the miner indices refer to, and the events in nondecreasing time
// order.
type TraceFile struct {
	Version  int            `json:"version"`
	Nodes    int            `json:"nodes"`
	Arrivals []TraceArrival `json:"arrivals"`
}

// Validate checks the structural invariants every consumer assumes:
// a known version, a positive node count, non-negative nondecreasing
// timestamps, and miner indices inside [0, Nodes).
func (tf *TraceFile) Validate() error {
	if tf.Version != TraceVersion {
		return fmt.Errorf("workload: trace version %d, want %d", tf.Version, TraceVersion)
	}
	if tf.Nodes <= 0 {
		return fmt.Errorf("workload: trace node count %d must be positive", tf.Nodes)
	}
	var prev int64
	for i, a := range tf.Arrivals {
		if a.AtNS < 0 {
			return fmt.Errorf("workload: trace arrival %d at negative time %dns", i, a.AtNS)
		}
		if a.AtNS < prev {
			return fmt.Errorf("workload: trace arrival %d at %dns precedes arrival %d at %dns", i, a.AtNS, i-1, prev)
		}
		if a.Miner < 0 || a.Miner >= tf.Nodes {
			return fmt.Errorf("workload: trace arrival %d miner %d outside [0, %d)", i, a.Miner, tf.Nodes)
		}
		prev = a.AtNS
	}
	return nil
}

// DecodeTrace parses and validates a JSON trace.
func DecodeTrace(data []byte) (*TraceFile, error) {
	var tf TraceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("workload: parsing trace: %w", err)
	}
	if err := tf.Validate(); err != nil {
		return nil, err
	}
	return &tf, nil
}

// Encode renders the trace as indented JSON. Encoding is deterministic:
// field order is fixed by the struct and timestamps are integers, so
// decode∘encode is the identity on canonical files.
func (tf *TraceFile) Encode() ([]byte, error) {
	if err := tf.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadTraceFile loads and validates a trace from disk.
func ReadTraceFile(path string) (*TraceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	return DecodeTrace(data)
}

// WriteTraceFile validates and writes a trace to disk.
func (tf *TraceFile) WriteTraceFile(path string) error {
	data, err := tf.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Trace returns a replay Trace over the recorded events. Each call starts
// a fresh replay from the first event.
func (tf *TraceFile) Trace() Trace {
	return &replayTrace{arrivals: tf.Arrivals}
}

type replayTrace struct {
	arrivals []TraceArrival
	next     int
}

func (t *replayTrace) Next() (Arrival, bool) {
	if t.next >= len(t.arrivals) {
		return Arrival{}, false
	}
	a := t.arrivals[t.next]
	t.next++
	return Arrival{At: time.Duration(a.AtNS), Miner: a.Miner}, true
}
