package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// jsonFloat encodes non-finite values (censored observations) as null so
// results marshal cleanly to JSON.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func jsonFloats(xs []float64) []jsonFloat {
	out := make([]jsonFloat, len(xs))
	for i, x := range xs {
		out[i] = jsonFloat(x)
	}
	return out
}

// MarshalJSON emits the series with censored (infinite) values as null,
// since JSON has no representation for Inf.
func (s Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Label string      `json:"label"`
		Mean  []jsonFloat `json:"mean"`
		Std   []jsonFloat `json:"std"`
	}{Label: s.Label, Mean: jsonFloats(s.Mean), Std: jsonFloats(s.Std)})
}

// Scenario is one registered, runnable experiment: the paper's figures and
// theorems, the §6 extension studies, the ablation sweeps, and any
// user-registered scenario all share this shape. The registry is the single
// dispatch surface used by the perigee facade, cmd/perigee-sim, and the
// examples.
type Scenario struct {
	// ID identifies the scenario ("figure3a", "churn", ...).
	ID string
	// Brief is a one-line description shown by listings.
	Brief string
	// Run executes the scenario at the given scale.
	Run func(Options) (*Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = builtinScenarios()
)

func builtinScenarios() map[string]Scenario {
	reg := make(map[string]Scenario)
	add := func(id, brief string, run func(Options) (*Result, error)) {
		reg[id] = Scenario{ID: id, Brief: brief, Run: run}
	}
	add("figure1", "path stretch on the unit square: random vs geometric", Figure1)
	add("figure3a", "delay to 90% hash power, uniform power, all algorithms", Figure3a)
	add("figure3b", "delay to 90% hash power, exponential power", Figure3b)
	add("figure4a", "validation-delay sweep 0.1x-10x", Figure4a)
	add("figure4b", "mining pools: 10% of nodes hold 90% power", Figure4b)
	add("figure4c", "fast relay tree embedded in the network", Figure4c)
	add("figure5", "edge-latency histograms of converged graphs", Figure5)
	add("theorem1", "random-graph stretch grows with n", Theorem1)
	add("theorem2", "geometric-graph stretch is constant in n", Theorem2)

	// Extensions beyond the paper's published evaluation (§6 topics).
	add("freeride", "incentives: free-riding nodes get punished", Freeride)
	add("churn", "membership churn: 5% of nodes replaced per round", Churn)
	add("bandwidth", "upload bandwidth heterogeneity (serialized sends)", Bandwidth)
	add("eclipse", "neighborhood capture by fast adversaries vs exploration", Eclipse)
	add("convergence", "per-round 90%/50% coverage delay trajectories (§5.2)", Convergence)
	add("scale", "large-n convergence: observation windows, landmarks, streaming latency from 1M nodes", Scale)
	add("forks", "continuous-time workload: fork rate, stale blocks, revenue skew", Forks)

	// Pluggable adversary strategies (internal/adversary), one scenario
	// each: honest-node λ for Subset/Vanilla/Random under attack vs clean.
	for _, s := range adversaryScenarios() {
		reg[s.ID] = s
	}

	for _, ab := range Ablations() {
		add(ab.ID, ab.Title, func(opt Options) (*Result, error) { return RunAblation(opt, ab) })
	}
	return reg
}

// Register adds a scenario to the registry. It fails on an empty ID, a nil
// runner, or an ID collision (the built-in scenarios cannot be replaced).
func Register(s Scenario) error {
	if s.ID == "" {
		return fmt.Errorf("experiments: scenario ID must be non-empty")
	}
	if s.Run == nil {
		return fmt.Errorf("experiments: scenario %q has nil runner", s.ID)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, exists := registry[s.ID]; exists {
		return fmt.Errorf("experiments: scenario %q already registered", s.ID)
	}
	registry[s.ID] = s
	return nil
}

// Scenarios returns every registered scenario, sorted by ID.
func Scenarios() []Scenario {
	registryMu.RLock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	registryMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func lookup(id string) (Scenario, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[id]
	return s, ok
}

// IDs lists the available scenario identifiers, sorted.
func IDs() []string {
	scs := Scenarios()
	out := make([]string, len(scs))
	for i, s := range scs {
		out[i] = s.ID
	}
	return out
}

// Describe returns a one-line description of a scenario ID.
func Describe(id string) (string, error) {
	s, ok := lookup(id)
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return s.Brief, nil
}

// Run dispatches a scenario by ID.
func Run(id string, opt Options) (*Result, error) {
	s, ok := lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return s.Run(opt)
}

// RenderRanks are the fractional node ranks at which tables are printed,
// mirroring the paper's error-bar positions (100th..900th node of 1000).
var RenderRanks = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Render formats the result as a text report: one row per rank, one column
// per algorithm, mean±std, followed by notes and histograms.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	fmt.Fprintf(&b, "(nodes=%d trials=%d rounds=%d seed=%d)\n",
		r.Options.Nodes, r.Options.Trials, r.Options.Rounds, r.Options.Seed)
	if len(r.Series) > 0 {
		b.WriteString(r.renderTable())
	}
	if r.Histograms != nil {
		for _, label := range sortedHistogramLabels(r) {
			fmt.Fprintf(&b, "\n-- %s edge-latency histogram (ms) --\n", label)
			b.WriteString(r.Histograms[label].Render(40))
		}
	}
	if len(r.Workloads) > 0 {
		fmt.Fprintf(&b, "\n%-20s %12s %12s %12s\n", "workload", "stale rate", "fork rate", "rev. skew")
		for _, w := range r.Workloads {
			fmt.Fprintf(&b, "%-20s %12.4f %12.4f %12.4f\n",
				w.Label, w.MeanStaleRate, w.MeanForkRate, w.MeanRevenueSkew)
		}
	}
	for _, s := range r.Regret {
		b.WriteString("\n")
		b.WriteString(s.Render())
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

func (r *Result) renderTable() string {
	var b strings.Builder
	// Header.
	fmt.Fprintf(&b, "%-8s", "rank")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %20s", s.Label)
	}
	b.WriteString("\n")
	n := 0
	if len(r.Series) > 0 {
		n = len(r.Series[0].Mean)
	}
	for _, frac := range RenderRanks {
		idx := int(frac * float64(n))
		if idx >= n {
			idx = n - 1
		}
		if idx < 0 {
			continue
		}
		fmt.Fprintf(&b, "%-8d", idx)
		for _, s := range r.Series {
			if idx >= len(s.Mean) {
				fmt.Fprintf(&b, " %20s", "-")
				continue
			}
			fmt.Fprintf(&b, " %20s", formatCell(s.Mean[idx], s.Std[idx]))
		}
		b.WriteString("\n")
	}
	// Median row.
	fmt.Fprintf(&b, "%-8s", "median")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %20s", formatCell(s.Median(), 0))
	}
	b.WriteString("\n")
	return b.String()
}

func formatCell(mean, std float64) string {
	if math.IsInf(mean, 1) {
		return "inf"
	}
	if std > 0 {
		return fmt.Sprintf("%.1f±%.1f", mean, std)
	}
	return fmt.Sprintf("%.1f", mean)
}

func sortedHistogramLabels(r *Result) []string {
	labels := make([]string, 0, len(r.Histograms))
	for label := range r.Histograms {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	return labels
}
