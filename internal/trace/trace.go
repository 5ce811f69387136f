// Package trace turns the engine's decision-tracing hooks
// (core.TraceSink) into durable, analyzable records: a Collector that
// buffers every keep/drop/dial decision and counterfactual evaluation as
// JSON-serializable Records, an NDJSON codec for streaming them, and a
// regret summarizer (Summarize/Merge/Render) that slices per-decision
// counterfactual regret by round and selector.
//
// Records use milliseconds for every duration and encode censored
// observations (stats.InfDuration in the engine) as JSON null, so streams
// are consumable without Go-specific sentinels. The engine emits records
// in a deterministic order at any Workers/Shards count, and the Collector
// preserves it — two runs of the same configuration produce byte-identical
// NDJSON streams.
package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/stats"
)

// Record kinds.
const (
	KindDecision       = "decision"
	KindCounterfactual = "counterfactual"
)

// Ms is a duration in milliseconds that marshals censored values
// (+Inf/NaN) as JSON null and unmarshals null back to +Inf.
type Ms float64

// Censored reports whether m encodes a censored observation.
func (m Ms) Censored() bool { return math.IsInf(float64(m), 0) || math.IsNaN(float64(m)) }

// MarshalJSON implements json.Marshaler.
func (m Ms) MarshalJSON() ([]byte, error) {
	if m.Censored() {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, float64(m), 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Ms) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*m = Ms(math.Inf(1))
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*m = Ms(f)
	return nil
}

// durMs converts an engine duration to milliseconds, mapping the censored
// sentinel to +Inf (and thus JSON null).
func durMs(d time.Duration) Ms {
	if d == stats.InfDuration {
		return Ms(math.Inf(1))
	}
	return Ms(float64(d) / float64(time.Millisecond))
}

// Record is one trace event in its serializable form. Kind selects which
// field groups are populated.
type Record struct {
	Kind     string `json:"kind"`
	Selector string `json:"selector,omitempty"`
	Trial    int    `json:"trial"`
	Round    int    `json:"round"`
	Node     int    `json:"node"`

	// Decision fields (Kind == KindDecision). Kept and Dropped hold
	// neighbor node IDs (not indices); Neighbors, ScoresMs,
	// CensoredBlocks, and OffsetsMs appear only at the inputs trace level.
	Kept           []int  `json:"kept,omitempty"`
	Dropped        []int  `json:"dropped,omitempty"`
	Dial           int    `json:"dial,omitempty"`
	Neighbors      []int  `json:"neighbors,omitempty"`
	ScoresMs       []Ms   `json:"scores_ms,omitempty"`
	CensoredBlocks []int  `json:"censored_blocks,omitempty"`
	OffsetsMs      [][]Ms `json:"offsets_ms,omitempty"`

	// Counterfactual fields (Kind == KindCounterfactual): how the Rank-th
	// best rejected alternative (Peer) of the decision at Round would have
	// scored over the following round's blocks, versus the worst score the
	// node's actual neighbors produced. RegretMs > 0 marks a regrettable
	// drop; Censored marks an incomparable pair (either side null).
	Peer             int  `json:"peer,omitempty"`
	Rank             int  `json:"rank,omitempty"`
	DecisionScoreMs  Ms   `json:"decision_score_ms,omitempty"`
	CounterfactualMs Ms   `json:"counterfactual_ms,omitempty"`
	WorstKeptMs      Ms   `json:"worst_kept_ms,omitempty"`
	RegretMs         Ms   `json:"regret_ms,omitempty"`
	Censored         bool `json:"censored,omitempty"`
}

// Collector implements core.TraceSink: it converts the engine's
// scratch-aliasing trace structs into standalone Records, buffers them in
// emission order, and optionally streams each one to OnRecord as it
// arrives. A Collector serves one engine run; it is not safe for
// concurrent use (the engine's sink calls are sequential by contract).
type Collector struct {
	// Selector labels every record (e.g. "Perigee-Subset").
	Selector string
	// Trial labels every record with the run's trial index.
	Trial int
	// OnRecord, when non-nil, is invoked synchronously with each record
	// after it is buffered — the streaming hook the experiment service
	// uses to forward records while a job runs.
	OnRecord func(Record)

	recs []Record
}

// Records returns the buffered records in emission order. The slice is
// owned by the Collector.
func (c *Collector) Records() []Record { return c.recs }

// TraceDecision implements core.TraceSink.
func (c *Collector) TraceDecision(dt core.DecisionTrace) {
	rec := Record{
		Kind:     KindDecision,
		Selector: c.Selector,
		Trial:    c.Trial,
		Round:    dt.Round,
		Node:     dt.Node,
		Kept:     neighborIDs(dt.Neighbors, dt.Keep),
		Dropped:  neighborIDs(dt.Neighbors, dt.Drop),
		Dial:     dt.Dial,
	}
	if dt.Scores != nil {
		rec.Neighbors = append([]int(nil), dt.Neighbors...)
		rec.ScoresMs = make([]Ms, len(dt.Scores))
		for i, s := range dt.Scores {
			rec.ScoresMs[i] = durMs(s)
		}
		rec.CensoredBlocks = append([]int(nil), dt.Censored...)
		rec.OffsetsMs = make([][]Ms, len(dt.Offsets))
		for b, row := range dt.Offsets {
			ms := make([]Ms, len(row))
			for i, d := range row {
				ms[i] = durMs(d)
			}
			rec.OffsetsMs[b] = ms
		}
	}
	c.add(rec)
}

// TraceCounterfactual implements core.TraceSink.
func (c *Collector) TraceCounterfactual(ct core.CounterfactualTrace) {
	rec := Record{
		Kind:             KindCounterfactual,
		Selector:         c.Selector,
		Trial:            c.Trial,
		Round:            ct.Round,
		Node:             ct.Node,
		Peer:             ct.Peer,
		Rank:             ct.Rank,
		DecisionScoreMs:  durMs(ct.DecisionScore),
		CounterfactualMs: durMs(ct.Score),
		WorstKeptMs:      durMs(ct.WorstKept),
		Censored:         ct.Censored,
	}
	if ct.Censored {
		rec.RegretMs = Ms(math.Inf(1))
	} else {
		rec.RegretMs = durMs(ct.Regret)
	}
	c.add(rec)
}

func (c *Collector) add(rec Record) {
	c.recs = append(c.recs, rec)
	if c.OnRecord != nil {
		c.OnRecord(rec)
	}
}

// neighborIDs maps decision indices to neighbor node IDs.
func neighborIDs(neighbors, idx []int) []int {
	if len(idx) == 0 {
		return nil
	}
	ids := make([]int, len(idx))
	for k, i := range idx {
		ids[k] = neighbors[i]
	}
	return ids
}

// WriteNDJSON writes one compact JSON document per record, newline
// separated. Given equal records it produces byte-identical output — the
// determinism tests compare these streams directly.
func WriteNDJSON(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNDJSON parses a stream written by WriteNDJSON.
func ReadNDJSON(r io.Reader) ([]Record, error) {
	var recs []Record
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
