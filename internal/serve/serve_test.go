package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http/httptest"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/experiments"
)

// patch builds a request's option overrides from Go values.
func patch(kv map[string]any) map[string]json.RawMessage {
	out := make(map[string]json.RawMessage, len(kv))
	for k, v := range kv {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		out[k] = raw
	}
	return out
}

// tinyPatch shrinks a scenario to unit-test scale.
func tinyPatch(seed uint64) map[string]json.RawMessage {
	return patch(map[string]any{
		"nodes":              40,
		"trials":             1,
		"rounds":             2,
		"round_blocks":       10,
		"fraction":           0.9,
		"seed":               seed,
		"mean_validation_ms": 50,
	})
}

func submit(t *testing.T, ts *httptest.Server, req SubmitRequest) (JobView, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return view, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if view.Status == StatusDone || view.Status == StatusFailed {
			return view
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

// TestServeEndToEnd covers the advertised loop: health, scenario listing,
// submission, completion, an identical resubmission answered from cache,
// and an NDJSON event stream that matches a direct harness run.
func TestServeEndToEnd(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}

	resp, err = http.Get(ts.URL + "/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []struct{ ID, Brief string }
	if err := json.NewDecoder(resp.Body).Decode(&scenarios); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, sc := range scenarios {
		if sc.ID == "figure1" {
			found = true
		}
	}
	if !found {
		t.Fatal("GET /scenarios does not list figure1")
	}

	req := SubmitRequest{Scenario: "figure3a", Quick: true, Options: tinyPatch(5)}
	view, code := submit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("first submission returned %d, want 202", code)
	}
	if view.CacheHit {
		t.Fatal("first submission claims a cache hit")
	}
	done := waitDone(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	if done.Result == nil {
		t.Fatal("finished job view has no result")
	}

	again, code := submit(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("resubmission returned %d, want 200", code)
	}
	if !again.CacheHit || again.ID != view.ID {
		t.Fatalf("resubmission not served from cache: hit=%v id=%s want %s", again.CacheHit, again.ID, view.ID)
	}

	// The streamed round events must match a direct harness run of the same
	// resolved options, arm by arm.
	resp, err = http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	streamed := map[string]int{}
	lastKind := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "round" {
			streamed[ev.Arm]++
		}
		lastKind = ev.Kind
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastKind != "status" {
		t.Errorf("stream ended with %q, want terminal status event", lastKind)
	}

	opt, err := req.resolveOptions()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	direct := map[string]int{}
	opt.RoundObserver = func(arm string, trial int, ev core.RoundEvent) {
		mu.Lock()
		direct[arm]++
		mu.Unlock()
	}
	if _, err := experiments.Run("figure3a", opt); err != nil {
		t.Fatal(err)
	}
	if len(direct) == 0 {
		t.Fatal("direct run emitted no round events")
	}
	for arm, n := range direct {
		if streamed[arm] != n {
			t.Errorf("arm %s: streamed %d round events, direct run emitted %d", arm, streamed[arm], n)
		}
	}

	if _, code := submit(t, ts, SubmitRequest{Scenario: "no-such-scenario"}); code != http.StatusBadRequest {
		t.Errorf("unknown scenario returned %d, want 400", code)
	}
}

// TestServeTracedJob submits a traced run and checks the stream carries
// trace events and the cached result carries regret summaries.
func TestServeTracedJob(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	traced := tinyPatch(9)
	traced["trace_level"] = json.RawMessage(`"decisions"`)
	traced["counterfactual_k"] = json.RawMessage(`2`)
	view, code := submit(t, ts, SubmitRequest{Scenario: "figure3a", Quick: true, Options: traced})
	if code != http.StatusAccepted {
		t.Fatalf("submission returned %d", code)
	}
	done := waitDone(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	if len(done.Result.Regret) == 0 {
		t.Fatal("traced job result has no regret summaries")
	}

	resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	traces := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Kind == "trace" {
			if ev.Trace == nil {
				t.Fatal("trace event without record")
			}
			traces++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if traces == 0 {
		t.Error("traced job streamed no trace events")
	}
}

// blockingScenario registers a scenario whose runs block until released,
// so queue states can be pinned down deterministically.
type blockingScenario struct {
	id      string
	started chan struct{} // one tick per run entering
	release chan struct{} // closed to let all runs finish
}

func newBlockingScenario(t *testing.T) *blockingScenario {
	b := &blockingScenario{
		id:      fmt.Sprintf("serve-test-block-%d", time.Now().UnixNano()),
		started: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	err := experiments.Register(experiments.Scenario{
		ID:    b.id,
		Brief: "test scenario that blocks until released",
		Run: func(opt experiments.Options) (*experiments.Result, error) {
			b.started <- struct{}{}
			<-b.release
			return &experiments.Result{ID: b.id}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueueFullAndShutdown pins the bounded-queue and graceful-shutdown
// behaviour: with one worker busy and the queue at capacity, the next
// distinct submission gets 503; Shutdown drains the queued job; submissions
// after Shutdown are refused.
func TestQueueFullAndShutdown(t *testing.T) {
	b := newBlockingScenario(t)
	s := New(Config{QueueSize: 1, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job := func(seed uint64) SubmitRequest {
		return SubmitRequest{Scenario: b.id, Quick: true, Options: tinyPatch(seed)}
	}
	first, code := submit(t, ts, job(1))
	if code != http.StatusAccepted {
		t.Fatalf("first submission returned %d", code)
	}
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the first job")
	}
	if _, code := submit(t, ts, job(2)); code != http.StatusAccepted {
		t.Fatalf("second submission returned %d, want 202 (queued)", code)
	}
	if _, code := submit(t, ts, job(3)); code != http.StatusServiceUnavailable {
		t.Fatalf("third submission returned %d, want 503 (queue full)", code)
	}
	// A duplicate of a queued job is still a cache hit, not a new slot.
	if dup, code := submit(t, ts, job(2)); code != http.StatusOK || !dup.CacheHit {
		t.Fatalf("duplicate of queued job: code=%d hit=%v", code, dup.CacheHit)
	}

	close(b.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if done := waitDone(t, ts, first.ID); done.Status != StatusDone {
		t.Fatalf("first job finished %s", done.Status)
	}
	if _, _, err := s.Submit(job(4)); err != ErrShuttingDown {
		t.Fatalf("submission after shutdown returned %v, want ErrShuttingDown", err)
	}

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 2 {
		t.Fatalf("GET /jobs listed %d jobs, want 2", len(views))
	}
}

// TestEventsFollowLiveJob streams a running job's events and checks the
// follow loop delivers the terminal status once the job is released.
func TestEventsFollowLiveJob(t *testing.T) {
	b := newBlockingScenario(t)
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view, code := submit(t, ts, SubmitRequest{Scenario: b.id, Quick: true, Options: tinyPatch(1)})
	if code != http.StatusAccepted {
		t.Fatalf("submission returned %d", code)
	}
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/jobs/" + view.ID + "/events")
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		last := ""
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Kind == "status" {
				last = ev.Status
			}
		}
		got <- last
	}()

	time.Sleep(100 * time.Millisecond) // let the follower attach mid-run
	close(b.release)
	select {
	case status := <-got:
		if status != StatusDone {
			t.Fatalf("follower saw terminal status %q, want done", status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never saw the terminal status")
	}
}

// TestOptionsPatchValidation: unknown keys, bad enum spellings and
// invalid combinations are rejected before a job is created, both through
// Submit and over HTTP.
func TestOptionsPatchValidation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body, want string
	}{
		{`{"validation": "gaussian"}`, `"validation"`},
		{`{"trace_level": "verbose"}`, `"trace_level"`},
		{`{"latency_mode": "psychic"}`, `"latency_mode"`},
		{`{"counterfactual_k": 3}`, "requires trace level"},
		{`{"nodez": 40}`, `unknown option "nodez"`},
		{`{"trace_file": "/etc/passwd"}`, `unknown option "trace_file"`},
		{`{"mean_validation": 50}`, `unknown option "mean_validation"`},
		{`{"nodes": 5}`, "Nodes"},
	} {
		var req SubmitRequest
		body := `{"scenario": "figure1", "options": ` + tc.body + `}`
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Submit(%s) = %v, want an error naming %s", tc.body, err, tc.want)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s returned %d, want 400", tc.body, resp.StatusCode)
		}
	}
	// Unknown keys beside "options" are refused as well.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"scenario": "figure1", "fast": true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown top-level key returned %d, want 400", resp.StatusCode)
	}
}
