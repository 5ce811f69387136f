// Package serve exposes the experiment registry as a long-lived HTTP/JSON
// service: clients submit any registered scenario with option overrides,
// jobs flow through a bounded queue into a worker pool that reuses the
// experiments harness' parallel stack, and results are cached on the
// canonical configuration hash (Scenario ID + Options.Hash()) so an
// identical resubmission is answered from cache instead of recomputed.
//
// While a job runs, its RoundEvents and decision-trace records are
// recorded as NDJSON events; GET /jobs/{id}/events replays the log and
// then follows the live stream until the job completes, so a client can
// watch an experiment converge round by round.
//
// Endpoints:
//
//	GET  /healthz          liveness + queue depth
//	GET  /scenarios        the scenario registry (ID + one-line brief)
//	POST /jobs             submit {"scenario": ..., "quick": ..., "options": {...}}
//	GET  /jobs             all jobs, newest last
//	GET  /jobs/{id}        one job's status and (when done) its result
//	GET  /jobs/{id}/events NDJSON event stream (replay + live follow)
//
// The package is stdlib-only; cmd/perigee-serve wires it to a listener
// with graceful shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/perigee-net/perigee/internal/core"
	"github.com/perigee-net/perigee/internal/experiments"
	"github.com/perigee-net/perigee/internal/trace"
)

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Errors the HTTP layer maps to status codes; Submit returns them so
// embedders without HTTP can react too.
var (
	ErrQueueFull    = errors.New("serve: job queue full")
	ErrShuttingDown = errors.New("serve: server is shutting down")
)

// Config sizes the service.
type Config struct {
	// QueueSize bounds the number of jobs waiting to run; submissions
	// beyond it fail fast with ErrQueueFull (HTTP 503). Zero means 16.
	QueueSize int
	// Workers is the number of jobs run concurrently. Each job already
	// fans its trials and arms over the experiments worker pool, so one
	// job worker saturates a machine; more trade per-job latency for
	// throughput. Zero means 1.
	Workers int
	// MaxEvents caps each job's recorded event log; past it the log ends
	// with one truncation marker event and further events are dropped
	// (the job itself keeps running). Zero means 200000.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 200000
	}
	return c
}

// Server is the experiment service: registry dispatch, job queue, worker
// pool, and result cache.
type Server struct {
	cfg   Config
	queue chan *Job
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool
	seq    int
	jobs   map[string]*Job // by job ID
	byKey  map[string]*Job // result cache: canonical key → job
	order  []*Job          // submission order, for listings
}

// New builds a server and starts its worker pool. Call Shutdown to stop.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		queue: make(chan *Job, cfg.QueueSize),
		jobs:  make(map[string]*Job),
		byKey: make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Shutdown stops accepting submissions, lets the workers drain the queued
// and running jobs, and returns when they are done or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return errors.New("serve: shutdown deadline exceeded with jobs still running")
	}
}

// Job is one submitted experiment run.
type Job struct {
	ID       string
	Scenario string
	Key      string
	Options  experiments.Options

	maxEvents int
	done      chan struct{}

	mu        sync.Mutex
	status    string
	result    *experiments.Result
	errMsg    string
	events    [][]byte
	truncated bool
	created   time.Time
	finished  time.Time
}

// Event is one NDJSON line of a job's stream: a completed engine round, a
// decision-trace record, or a terminal status marker.
type Event struct {
	Kind  string `json:"kind"` // "round", "trace", "status", "truncated"
	Arm   string `json:"arm,omitempty"`
	Trial int    `json:"trial"`

	// Round fields (Kind "round"): the core.RoundEvent, flattened.
	Round        int      `json:"round,omitempty"`
	Blocks       int      `json:"blocks,omitempty"`
	Dropped      int      `json:"dropped,omitempty"`
	Added        int      `json:"added,omitempty"`
	Unfilled     int      `json:"unfilled,omitempty"`
	DroppedEdges [][2]int `json:"dropped_edges,omitempty"`
	AddedEdges   [][2]int `json:"added_edges,omitempty"`

	// Trace field (Kind "trace").
	Trace *trace.Record `json:"trace,omitempty"`

	// Status fields (Kind "status").
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
}

// JobView is a job's JSON surface.
type JobView struct {
	ID       string              `json:"id"`
	Scenario string              `json:"scenario"`
	Key      string              `json:"key"`
	Status   string              `json:"status"`
	CacheHit bool                `json:"cache_hit"`
	Events   int                 `json:"events"`
	Error    string              `json:"error,omitempty"`
	Result   *experiments.Result `json:"result,omitempty"`
}

func (j *Job) view(cacheHit, withResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		Scenario: j.Scenario,
		Key:      j.Key,
		Status:   j.status,
		CacheHit: cacheHit,
		Events:   len(j.events),
		Error:    j.errMsg,
	}
	if withResult && j.status == StatusDone {
		v.Result = j.result
	}
	return v
}

// appendEvent marshals and records one event line; callers may race (the
// experiments harness runs (trial, arm) jobs concurrently), the log is the
// serialization point.
func (j *Job) appendEvent(ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		return // events are best-effort telemetry; the result is authoritative
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.truncated {
		return
	}
	if len(j.events) >= j.maxEvents {
		j.truncated = true
		marker, _ := json.Marshal(Event{Kind: "truncated"})
		j.events = append(j.events, marker)
		return
	}
	j.events = append(j.events, line)
}

// eventsFrom returns the recorded lines starting at offset, plus whether
// the job has reached a terminal state.
func (j *Job) eventsFrom(offset int) ([][]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal := j.status == StatusDone || j.status == StatusFailed
	if offset >= len(j.events) {
		return nil, terminal
	}
	return j.events[offset:], terminal
}

func (j *Job) setStatus(status string) {
	j.mu.Lock()
	j.status = status
	j.mu.Unlock()
}

// Submit resolves, validates, and enqueues a run. When an identical
// configuration (same scenario, same canonical options hash) was already
// submitted and did not fail, the existing job is returned with cacheHit
// true — queued and running jobs are shared, not just finished ones.
func (s *Server) Submit(req SubmitRequest) (*Job, bool, error) {
	if _, err := experiments.Describe(req.Scenario); err != nil {
		return nil, false, err
	}
	opt, err := req.resolveOptions()
	if err != nil {
		return nil, false, err
	}
	if err := experiments.Validate(opt); err != nil {
		return nil, false, err
	}
	key := req.Scenario + ":" + opt.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.byKey[key]; ok {
		prior.mu.Lock()
		failed := prior.status == StatusFailed
		prior.mu.Unlock()
		if !failed {
			return prior, true, nil
		}
		delete(s.byKey, key) // failed runs may be resubmitted
	}
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("j%03d-%s", s.seq, key[len(req.Scenario)+1:][:8]),
		Scenario:  req.Scenario,
		Key:       key,
		Options:   opt,
		maxEvents: s.cfg.MaxEvents,
		status:    StatusQueued,
		done:      make(chan struct{}),
		created:   time.Now(),
	}
	select {
	case s.queue <- job:
	default:
		return nil, false, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.byKey[key] = job
	s.order = append(s.order, job)
	return job, false, nil
}

// JobByID returns a submitted job.
func (s *Server) JobByID(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.run(job)
	}
}

// run executes one job on the experiments harness, wiring the streaming
// observers into the job's event log.
func (s *Server) run(job *Job) {
	job.setStatus(StatusRunning)
	opt := job.Options
	opt.RoundObserver = func(arm string, trial int, ev core.RoundEvent) {
		job.appendEvent(Event{
			Kind: "round", Arm: arm, Trial: trial,
			Round: ev.Report.Round, Blocks: ev.Report.Blocks,
			Dropped: ev.Report.Dropped, Added: ev.Report.Added,
			Unfilled:     ev.Report.Unfilled,
			DroppedEdges: ev.Dropped, AddedEdges: ev.Added,
		})
	}
	if opt.TraceLevel > 0 {
		opt.TraceObserver = func(rec trace.Record) {
			job.appendEvent(Event{Kind: "trace", Arm: rec.Selector, Trial: rec.Trial, Trace: &rec})
		}
	}
	res, err := s.runScenario(job, opt)

	status, errMsg := StatusDone, ""
	if err != nil {
		status, errMsg = StatusFailed, err.Error()
	}
	// The terminal event goes into the log before the status is published:
	// a follower that sees a terminal status stops after draining the log,
	// so the log must already hold its last line.
	job.appendEvent(Event{Kind: "status", Status: status, Error: errMsg})
	job.mu.Lock()
	job.finished = time.Now()
	job.status, job.errMsg = status, errMsg
	if err == nil {
		job.result = res
	}
	job.mu.Unlock()
	close(job.done)
}

// runScenario isolates one harness execution: a panicking scenario fails
// its own job instead of killing the worker, and the job is evicted from
// the result cache immediately so a resubmission retries it.
func (s *Server) runScenario(job *Job, opt experiments.Options) (res *experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: scenario panicked: %v", r)
			s.mu.Lock()
			if s.byKey[job.Key] == job {
				delete(s.byKey, job.Key)
			}
			s.mu.Unlock()
		}
	}()
	return experiments.Run(job.Scenario, opt)
}
