package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// noSpan is the parent of a root span, and what begin returns on a nil
// recorder.
const noSpan = -1

// span is one timed call the benchmark made into a layer. Start and End are
// nanoseconds since the recorder was created.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index of the span that caused this one, noSpan for a root
	Batch  int // batch the call belonged to, -1 outside the batches
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until dump. A nil *recorder is tracing
// off: begin and end do nothing, so workload code carries one set of calls
// for both runs. The generator and the sink of the live workload record from
// two goroutines, hence the lock.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent, batch int) int {
	if r == nil {
		return noSpan
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Batch: batch})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// durations returns the length of every span of the given name, in
// recording order.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Overlapping children (parallel parts) are
// counted once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// coverage returns, for every span of the given name, the share of its
// duration its children account for.
func coverage(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name != name || s.End == s.Start {
			continue
		}
		out = append(out, 1-float64(self[i])/float64(s.End-s.Start))
	}
	return out
}

// traceFile is the on-disk form: names are interned and each span is one
// [name, start_ns, end_ns, parent, batch] row, so a 300k-span live trace
// stays around 10 MB.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][5]int64 `json:"spans"`
}

// dump writes the spans to path, creating its directory.
func (r *recorder) dump(path, workload string, seed uint64) error {
	tf := traceFile{
		Workload: workload,
		Seed:     seed,
		Columns:  []string{"name", "start_ns", "end_ns", "parent", "batch"},
		Spans:    make([][5]int64, len(r.spans)),
	}
	index := map[string]int64{}
	for i, s := range r.spans {
		id, ok := index[s.Name]
		if !ok {
			id = int64(len(tf.Names))
			index[s.Name] = id
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans[i] = [5]int64{id, s.Start, s.End, int64(s.Parent), int64(s.Batch)}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
