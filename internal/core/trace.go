package core

import (
	"fmt"
	"sort"
	"time"

	"github.com/perigee-net/perigee/internal/stats"
)

// TraceLevel selects how much of the engine's decision loop is recorded.
type TraceLevel int

const (
	// TraceOff disables decision tracing; the engine's hot path carries a
	// single branch and allocates nothing for it.
	TraceOff TraceLevel = iota
	// TraceDecisions records every keep/drop/dial decision (neighbor IDs,
	// kept/dropped indices, dial budget) without the scoring inputs.
	TraceDecisions
	// TraceInputs additionally records the inputs the decision was made
	// from: per-neighbor percentile scores, censored-block counts, and the
	// full per-block offset matrix.
	TraceInputs
)

// Valid reports whether l is a defined level.
func (l TraceLevel) Valid() bool { return l >= TraceOff && l <= TraceInputs }

// String returns the level's CLI/HTTP spelling.
func (l TraceLevel) String() string {
	switch l {
	case TraceOff:
		return "off"
	case TraceDecisions:
		return "decisions"
	case TraceInputs:
		return "inputs"
	default:
		return fmt.Sprintf("TraceLevel(%d)", int(l))
	}
}

// DecisionTrace is the engine-level record of one node's neighbor update:
// the decision the selector returned plus (at TraceInputs) the observations
// it was computed from. All slices alias engine scratch and are valid only
// for the duration of the TraceSink call — sinks that retain a record must
// copy what they keep.
type DecisionTrace struct {
	// Round is the 1-based round the decision was made in.
	Round int
	// Node is the deciding node.
	Node int
	// Neighbors are the node IDs of the outgoing neighbors under review
	// (the round's observation snapshot).
	Neighbors []int
	// Keep and Drop index into Neighbors (the selector's Decision verbatim).
	Keep []int
	Drop []int
	// Dial is the extra dial budget beyond refilling dropped slots.
	Dial int

	// The fields below are populated only at TraceInputs level.

	// Scores are the engine-percentile offset scores per neighbor
	// (stats.InfDuration = fully censored). They are computed by the
	// tracer with VanillaScoresInto at the engine's configured percentile
	// regardless of the active selector, so traces from different
	// selectors are comparable on one scale.
	Scores []time.Duration
	// Censored counts each neighbor's censored (never-delivered) blocks.
	Censored []int
	// Offsets is the per-block offset matrix the selector saw
	// (Offsets[b][i] for block b, neighbor i), after any tampering.
	Offsets [][]time.Duration
}

// CounterfactualTrace reports how one rejected alternative of a traced
// decision would have scored: "had node v kept peer u at round R, u's
// observed offset score over round R+1's blocks would have been Score."
// The hypothetical delivery path is the one-hop relay u→v (u's actual
// arrival + u's validation and relay delays + the u–v link), normalized
// against v's actual earliest announcement of each block; upload
// serialization (SendInterval) is ignored in the hypothetical, making the
// score an optimistic lower bound under bandwidth contention.
type CounterfactualTrace struct {
	// Round is the 1-based round the alternative was rejected in; the
	// evaluation uses the following round's broadcasts.
	Round int
	// Node is the deciding node, Peer the dropped neighbor.
	Node int
	Peer int
	// Rank is the alternative's 0-based position among the decision's
	// evaluated alternatives (best decision-time score first).
	Rank int
	// DecisionScore is the peer's engine-percentile score at decision
	// time (what the drop was based on).
	DecisionScore time.Duration
	// Score is the counterfactual next-round score
	// (stats.InfDuration = censored: the peer never heard the blocks, or
	// no block was broadcast).
	Score time.Duration
	// WorstKept is the worst finite score among the node's actual
	// neighbors over the same next-round blocks
	// (stats.InfDuration = censored: no neighbor produced a finite score).
	WorstKept time.Duration
	// Regret is WorstKept − Score when both are finite: positive means the
	// dropped peer would have outscored the node's worst actual neighbor —
	// a regrettable drop. Zero when Censored.
	Regret time.Duration
	// Censored reports that either side of the comparison was censored;
	// Regret is meaningless then.
	Censored bool
}

// TraceSink receives the engine's trace records. The engine calls it
// sequentially, in ascending node order within a round (counterfactuals of
// round R before decisions of round R+1), at any Workers count — so a sink
// needs no locking and sees a deterministic stream.
type TraceSink interface {
	// TraceDecision receives one node's decision record. Slices alias
	// engine scratch; copy to retain.
	TraceDecision(DecisionTrace)
	// TraceCounterfactual receives one evaluated alternative.
	TraceCounterfactual(CounterfactualTrace)
}

// TraceConfig enables decision tracing on an Engine.
type TraceConfig struct {
	// Level selects what is recorded; TraceOff disables tracing.
	Level TraceLevel
	// CounterfactualK, when positive, re-scores up to K of each decision's
	// rejected alternatives (the dropped neighbors with the best
	// decision-time scores) against the following round's broadcasts and
	// emits a CounterfactualTrace per alternative. Requires Level ≥
	// TraceDecisions.
	CounterfactualK int
	// Sink receives the records; required when Level > TraceOff.
	Sink TraceSink
}

func (c TraceConfig) validate() error {
	if !c.Level.Valid() {
		return fmt.Errorf("core: invalid trace level %d", int(c.Level))
	}
	if c.CounterfactualK < 0 {
		return fmt.Errorf("core: counterfactual k %d must be non-negative", c.CounterfactualK)
	}
	if c.Level != TraceOff && c.Sink == nil {
		return fmt.Errorf("core: trace level %v requires a sink", c.Level)
	}
	if c.CounterfactualK > 0 && c.Level == TraceOff {
		return fmt.Errorf("core: counterfactual evaluation requires tracing enabled (level ≥ decisions)")
	}
	return nil
}

// tracing reports whether the engine records decisions this run.
func (e *Engine) tracing() bool { return e.trace.Level > TraceOff && e.trace.Sink != nil }

// cfQuery is one scheduled counterfactual: while round `round`+1
// broadcasts, the engine measures what node would have observed from peer.
type cfQuery struct {
	node, peer  int
	round, rank int
	score       time.Duration // peer's decision-time score
}

// prepareCounterfactuals resets the pending queries' offset rows to
// "never delivered" for a round carrying `window` observed blocks. Called
// when a round is prepared; a no-op (one branch) when nothing is pending.
func (e *Engine) prepareCounterfactuals(window int) {
	rs := &e.scratch
	np := len(rs.cfPending)
	if np == 0 {
		return
	}
	for len(rs.cfOffsets) < np {
		rs.cfOffsets = append(rs.cfOffsets, nil)
	}
	for q := 0; q < np; q++ {
		row := grow(&rs.cfOffsets[q], window)
		for i := range row {
			row[i] = stats.InfDuration
		}
	}
}

// harvestCounterfactuals folds one block's arrival vector into the pending
// queries' offset rows as block b: the hypothetical one-hop delivery
// peer→node, normalized like the round's harvest against the earlier of the
// node's actual earliest announcement (its first arrival, or echo when it
// mined the block src) and the hypothetical delivery itself. Each (query,
// block) cell is written by exactly one call, so concurrent calls for
// distinct b never race — the rows are deterministic at any Workers count.
func (e *Engine) harvestCounterfactuals(arrival []time.Duration, src int, echo time.Duration, b int) {
	rs := &e.scratch
	for q := range rs.cfPending {
		query := &rs.cfPending[q]
		p := query.peer
		tp, c := arrival[p], rs.in.cost[p]
		if tp == stats.InfDuration || c == stats.InfDuration {
			continue // peer never heard the block, or never relays: censored
		}
		hyp := tp + c + e.lat.Delay(p, query.node)
		first := arrival[query.node]
		if query.node == src {
			first = echo
		}
		rs.cfOffsets[q][b] = hyp - min(hyp, first)
	}
}

// queueCounterfactuals schedules up to k of the decision's dropped
// neighbors — best decision-time score first, neighbor ID as tiebreak —
// for evaluation against the next round's broadcasts.
func (e *Engine) queueCounterfactuals(v, round int, obs Observations, drop []int, scores []time.Duration, k int) {
	rs := &e.scratch
	if cap(rs.cfRank) < len(drop) {
		rs.cfRank = make([]int, len(drop))
	}
	idx := rs.cfRank[:len(drop)]
	copy(idx, drop)
	srt := rankSorterPool.Get().(*rankSorter)
	srt.idx, srt.scores, srt.neighbors = idx, scores, obs.Neighbors
	sort.Sort(srt)
	srt.idx, srt.scores, srt.neighbors = nil, nil, nil
	rankSorterPool.Put(srt)
	if k > len(idx) {
		k = len(idx)
	}
	for rank := 0; rank < k; rank++ {
		i := idx[rank]
		rs.cfPending = append(rs.cfPending, cfQuery{
			node:  v,
			peer:  obs.Neighbors[i],
			round: round,
			rank:  rank,
			score: scores[i],
		})
	}
}

// emitDecisions streams every node's decision to the sink (ascending node
// order) and schedules counterfactual queries for the dropped
// alternatives. Runs sequentially after the parallel decide phase, before
// any table mutation, so the recorded observations are exactly what the
// selectors consumed.
func (e *Engine) emitDecisions(obs []Observations, decisions []Decision) {
	rs := &e.scratch
	n := e.table.N()
	round := e.round + 1 // the in-flight round's 1-based index
	k := e.trace.CounterfactualK
	for v := 0; v < n; v++ {
		if e.frozen != nil && e.frozen[v] {
			continue
		}
		d := decisions[v]
		var scores []time.Duration
		if e.trace.Level >= TraceInputs || (k > 0 && len(d.Drop) > 0) {
			scores = grow(&rs.traceScores, len(obs[v].Neighbors))
			VanillaScoresInto(scores, obs[v], e.params.Percentile)
		}
		rec := DecisionTrace{
			Round:     round,
			Node:      v,
			Neighbors: obs[v].Neighbors,
			Keep:      d.Keep,
			Drop:      d.Drop,
			Dial:      d.Dial,
		}
		if e.trace.Level >= TraceInputs {
			rec.Scores = scores
			rec.Censored = censoredCounts(&rs.traceCensored, obs[v])
			rec.Offsets = obs[v].Offsets
		}
		e.trace.Sink.TraceDecision(rec)
		if k > 0 && len(d.Drop) > 0 {
			e.queueCounterfactuals(v, round, obs[v], d.Drop, scores, k)
		}
	}
}

// emitCounterfactuals evaluates and streams the previous round's pending
// queries against this round's harvested hypothetical offsets, then clears
// the queue. Runs sequentially (ascending decision node, then rank) from
// finishRound, before the selector update.
func (e *Engine) emitCounterfactuals(obs []Observations) {
	rs := &e.scratch
	lastNode := -1
	var worst time.Duration
	for q := range rs.cfPending {
		query := rs.cfPending[q]
		if query.node != lastNode {
			worst = e.worstNeighborScore(obs[query.node])
			lastNode = query.node
		}
		score := stats.DurationPercentile(rs.cfOffsets[q], e.params.Percentile)
		rec := CounterfactualTrace{
			Round:         query.round,
			Node:          query.node,
			Peer:          query.peer,
			Rank:          query.rank,
			DecisionScore: query.score,
			Score:         score,
			WorstKept:     worst,
		}
		if score == stats.InfDuration || worst == stats.InfDuration {
			rec.Censored = true
		} else {
			rec.Regret = worst - score
		}
		e.trace.Sink.TraceCounterfactual(rec)
	}
	rs.cfPending = rs.cfPending[:0]
}

// worstNeighborScore is the largest finite engine-percentile score among
// the node's current neighbors this round, or stats.InfDuration when no
// neighbor produced one (fully censored round, or no neighbors).
func (e *Engine) worstNeighborScore(obs Observations) time.Duration {
	rs := &e.scratch
	if len(obs.Neighbors) == 0 {
		return stats.InfDuration
	}
	scores := grow(&rs.traceScores, len(obs.Neighbors))
	VanillaScoresInto(scores, obs, e.params.Percentile)
	worst := stats.InfDuration
	for _, s := range scores {
		if s == stats.InfDuration {
			continue
		}
		if worst == stats.InfDuration || s > worst {
			worst = s
		}
	}
	return worst
}

// censoredCounts writes each neighbor's censored-block count into the
// reusable buffer.
func censoredCounts(buf *[]int, obs Observations) []int {
	n := len(obs.Neighbors)
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	counts := (*buf)[:n]
	*buf = counts
	for i := range counts {
		counts[i] = 0
	}
	for b := range obs.Offsets {
		row := obs.Offsets[b]
		for i := range counts {
			if row[i] == stats.InfDuration {
				counts[i]++
			}
		}
	}
	return counts
}
