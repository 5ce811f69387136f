package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSpanNestingAndSelfTime(t *testing.T) {
	// A round of 100 with children covering [10,30] and [50,90], the second
	// with a grandchild; a sibling root outside it.
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: noSpan, Batch: 0},
		{Name: "prepare", Start: 10, End: 30, Parent: 0, Batch: 0},
		{Name: "broadcast", Start: 50, End: 90, Parent: 0, Batch: 0},
		{Name: "worker", Start: 55, End: 70, Parent: 2, Batch: 0},
		{Name: "other", Start: 100, End: 140, Parent: noSpan, Batch: 1},
	}
	want := []time.Duration{40, 20, 25, 15, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	if got := coverage(spans, "round"); len(got) != 1 || got[0] != 0.6 {
		t.Errorf("coverage of round = %v, want [0.6]", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two workers running side by side under one parent, and a child that
	// outlives it: covered time is the union clipped to the parent.
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: noSpan},
		{Name: "w1", Start: 10, End: 60, Parent: 0},
		{Name: "w2", Start: 40, End: 80, Parent: 0},
		{Name: "late", Start: 90, End: 130, Parent: 0},
	}
	if got := selfTimes(spans)[0]; got != 20 {
		t.Errorf("parent self time = %d, want 20 (100 - [10,80] - [90,100])", got)
	}
}

func TestRecorderRecordsParentsAndDumps(t *testing.T) {
	rec := newRecorder()
	batch := rec.begin("batch", noSpan, 3)
	call := rec.begin("layer.Call", batch, 3)
	rec.end(call)
	rec.end(batch)
	if len(rec.spans) != 2 || rec.spans[call].Parent != batch || rec.spans[call].Batch != 3 {
		t.Fatalf("spans = %+v", rec.spans)
	}
	if outer, inner := rec.spans[batch], rec.spans[call]; inner.Start < outer.Start || inner.End > outer.End {
		t.Errorf("child [%d,%d] not inside parent [%d,%d]", inner.Start, inner.End, outer.Start, outer.End)
	}
	if got := rec.durations("layer.Call"); len(got) != 1 {
		t.Errorf("durations = %v", got)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := rec.dump(path, "w", 7); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "w" || tf.Seed != 7 || len(tf.Spans) != 2 || len(tf.Names) != 2 {
		t.Errorf("trace file = %+v", tf)
	}
	if row := tf.Spans[call]; tf.Names[row[0]] != "layer.Call" || row[3] != int64(batch) || row[4] != 3 {
		t.Errorf("row = %v", row)
	}
}

func TestNilRecorderIsTracingOff(t *testing.T) {
	var rec *recorder
	id := rec.begin("x", noSpan, 0)
	rec.end(id)
	if id != noSpan || rec.durations("x") != nil {
		t.Errorf("nil recorder recorded something")
	}
}
