// Package service is the long-running scheduling daemon over the
// DLS-BL-NCP machinery: the path from a one-shot reproduction to the
// ROADMAP's heavy-traffic north star. A Server owns named processor
// pools, each a persistent session (internal/session) whose reputation
// state, bid cache and warm Ed25519 keyring survive between jobs, and
// runs submitted jobs through a bounded worker pool.
//
// Concurrency model:
//
//   - every pool has ONE runner goroutine consuming the pool's FIFO, so
//     jobs against the same pool serialize — the reputation state and the
//     ban bookkeeping evolve exactly as a sequential session.Run would
//     evolve them, and per-job payments are bit-identical to a direct
//     protocol.Run with the same seed;
//   - runners for DISTINCT pools execute concurrently, bounded by a
//     server-wide worker semaphore (Config.Workers);
//   - admission is backpressured: when the queued-job count would exceed
//     Config.QueueDepth the submission is rejected whole with
//     ErrQueueFull (HTTP 429), never partially admitted;
//   - Close drains: queued and in-flight jobs finish, new submissions are
//     refused with ErrClosed (HTTP 503), and Close returns only when
//     every runner has exited.
//
// The warm keyring is the service's main economy of scale: Ed25519 key
// generation dominates a cold protocol run, so a pool pays it once per
// identity on its first round and never again (see sig.Keyring).
package service

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dlsbl/internal/obs"
)

// Errors the admission path reports; the HTTP layer maps them to status
// codes (404, 429, 503).
var (
	ErrUnknownPool = errors.New("service: unknown pool")
	ErrQueueFull   = errors.New("service: job queue full")
	ErrClosed      = errors.New("service: server is shutting down")
)

// Config sizes the server.
type Config struct {
	// Workers bounds the number of protocol runs executing at once across
	// all pools. Zero selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-started jobs
	// across all pools; admissions beyond it fail with ErrQueueFull.
	// Zero selects 256.
	QueueDepth int
	// Logger receives the server's structured event log (pool lifecycle,
	// admissions, rejections, per-job completions, drain). Nil discards —
	// the library default stays silent; dls-serve passes its slog root.
	Logger *slog.Logger
}

// Server is the scheduling service.
type Server struct {
	workers    int
	queueDepth int
	sem        chan struct{} // worker slots
	metrics    *metrics
	log        *slog.Logger

	mu     sync.Mutex
	pools  map[string]*Pool
	closed bool

	queued  atomic.Int64 // jobs admitted and not yet picked up by a runner
	runners sync.WaitGroup

	// testHookBeforeRun, when set, runs on the pool runner after a task
	// leaves the queue and before it takes a worker slot. Tests use it to
	// hold a runner in a deterministic spot.
	testHookBeforeRun func(p *Pool, t *Task)
	// testHookDuringRun, when set, runs on the pool runner inside the
	// worker-slot section, after the running-jobs gauge is raised and
	// before the round executes. Tests use it to pin cross-pool
	// concurrency deterministically (rounds are now fast enough that two
	// runners rarely overlap by accident on a small box).
	testHookDuringRun func(p *Pool, t *Task)
	// testHookInStep, when set, runs on the pool runner where the round
	// starts, holding no lock the round does not hold. Tests use it to
	// keep a round running while they probe admission and snapshots.
	testHookInStep func(p *Pool, t *Task)
}

// New creates a server. Pools are added with CreatePool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		sem:        make(chan struct{}, cfg.Workers),
		metrics:    newMetrics(),
		log:        cfg.Logger,
		pools:      make(map[string]*Pool),
	}
}

// CreatePool registers a new named pool and starts its runner. The pool
// begins with a clean reputation record and a cold keyring; its first
// round warms the ring.
func (s *Server) CreatePool(spec PoolSpec) (*Pool, error) {
	p, err := newPool(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.pools[p.spec.Name]; dup {
		return nil, fmt.Errorf("service: pool %q already exists", p.spec.Name)
	}
	s.pools[p.spec.Name] = p
	s.runners.Add(1)
	go s.runPool(p)
	s.log.Info("pool created",
		"pool", p.spec.Name, "network", p.network.String(),
		"policy", p.policy.String(), "m", len(p.sess.TrueW))
	return p, nil
}

// Pool looks a pool up by name.
func (s *Server) Pool(name string) (*Pool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pools[name]
	return p, ok
}

// reserve claims n queue slots, all or nothing.
func (s *Server) reserve(n int) bool {
	for {
		cur := s.queued.Load()
		if cur+int64(n) > int64(s.queueDepth) {
			return false
		}
		if s.queued.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

// Submit admits jobs against a pool in FIFO order and returns one Task
// per job; results arrive on each Task as its round completes. The whole
// batch is admitted or none of it: a submission that would overflow the
// queue fails with ErrQueueFull and leaves the queue untouched. Artifact
// names ("timeline", "transcript", "verdicts") select per-job artifacts
// embedded in the results.
func (s *Server) Submit(pool string, jobs []JobSpec, artifacts []string) ([]*Task, error) {
	if len(jobs) == 0 {
		return nil, errors.New("service: empty job list")
	}
	arts, err := parseArtifacts(artifacts)
	if err != nil {
		return nil, err
	}
	// Behavior names are resolved at admission so a typo fails the whole
	// submission up front, not job k of n mid-stream.
	for i, spec := range jobs {
		if _, err := spec.toJob(); err != nil {
			return nil, fmt.Errorf("service: job %d: %w", i, err)
		}
	}
	p, ok := s.Pool(pool)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPool, pool)
	}
	if !s.reserve(len(jobs)) {
		s.metrics.rejected(len(jobs))
		s.log.Warn("submission rejected",
			"pool", pool, "jobs", len(jobs),
			"queued", s.queued.Load(), "depth", s.queueDepth)
		return nil, fmt.Errorf("%w: %d queued, depth %d", ErrQueueFull, s.queued.Load(), s.queueDepth)
	}
	now := time.Now()
	tasks := make([]*Task, len(jobs))
	for i, spec := range jobs {
		tasks[i] = &Task{
			spec:      spec,
			artifacts: arts,
			index:     i,
			enqueued:  now,
			done:      make(chan struct{}),
		}
	}
	p.qmu.Lock()
	if p.closing {
		p.qmu.Unlock()
		s.queued.Add(int64(-len(jobs)))
		return nil, ErrClosed
	}
	p.fifo = append(p.fifo, tasks...)
	p.cond.Broadcast()
	p.qmu.Unlock()
	s.metrics.submitted(len(jobs))
	s.log.Info("jobs submitted", "pool", pool, "jobs", len(jobs))
	return tasks, nil
}

// runPool is a pool's runner: it consumes the pool FIFO one task at a
// time (per-pool serialization), taking a server-wide worker slot for the
// duration of each protocol run (cross-pool bound), and closes each
// task's Done as soon as its round settles. It exits once the server is
// closing and the FIFO has drained.
func (s *Server) runPool(p *Pool) {
	defer s.runners.Done()
	for {
		p.qmu.Lock()
		for len(p.fifo) == 0 && !p.closing {
			p.cond.Wait()
		}
		if len(p.fifo) == 0 {
			p.qmu.Unlock()
			return
		}
		t := p.fifo[0]
		p.fifo = p.fifo[1:]
		p.qmu.Unlock()
		s.queued.Add(-1)
		if h := s.testHookBeforeRun; h != nil {
			h(p, t)
		}
		s.sem <- struct{}{}
		s.metrics.runStarted()
		if h := s.testHookDuringRun; h != nil {
			h(p, t)
		}
		s.runTask(p, t)
		s.metrics.runFinished()
		<-s.sem
		close(t.done)
	}
}

// runTask plays one round against the pool and fills the task's result.
// Every round runs under the pool's resident tracer (phase quantiles,
// event counters); a "trace" artifact additionally composes in a
// per-job recorder whose records ride back in the result.
func (s *Server) runTask(p *Pool, t *Task) {
	started := time.Now()
	res := JobResult{Event: "result", Pool: p.spec.Name, Job: t.index, Round: -1}
	job, err := t.spec.toJob()
	if err == nil {
		var rec *obs.Recorder
		job.Tracer = obs.Multi(p.obs, p.sentinel)
		if t.artifacts[ArtifactTrace] {
			rec = obs.NewRecorder()
			job.Tracer = obs.Multi(p.obs, p.sentinel, rec)
		}
		res.Round = p.state.Round
		if h := s.testHookInStep; h != nil {
			h(p, t)
		}
		out, stepErr := p.sess.Step(p.state, job)
		st := p.publish()
		err = stepErr
		if out != nil {
			res.fill(out, t.artifacts)
			res.Banned = st.banned
		}
		if rec != nil {
			res.Trace = rec.Records()
		}
	}
	if err != nil {
		res.Error = err.Error()
	}
	res.QueueMS = float64(started.Sub(t.enqueued)) / float64(time.Millisecond)
	res.RunMS = float64(time.Since(started)) / float64(time.Millisecond)
	t.res = res
	s.metrics.finished(res)
	if res.Error != "" {
		s.log.Error("job failed",
			"pool", p.spec.Name, "job", t.index, "round", res.Round,
			"run_ms", res.RunMS, "error", res.Error)
	} else {
		s.log.Info("job finished",
			"pool", p.spec.Name, "job", t.index, "round", res.Round,
			"completed", res.Completed, "queue_ms", res.QueueMS,
			"run_ms", res.RunMS)
	}
}

// Queued returns the number of admitted jobs not yet picked up.
func (s *Server) Queued() int { return int(s.queued.Load()) }

// sentinelViolations collects the latched economic-invariant breaches
// across pools, keyed by pool name. Empty means every sentinel is clear
// and /healthz reports 200.
func (s *Server) sentinelViolations() map[string][]string {
	s.mu.Lock()
	pools := make([]*Pool, 0, len(s.pools))
	for _, p := range s.pools {
		pools = append(pools, p)
	}
	s.mu.Unlock()
	out := make(map[string][]string)
	for _, p := range pools {
		if v := p.sentinel.Violations(); len(v) > 0 {
			out[p.Name()] = v
		}
	}
	return out
}

// Close drains the service: new submissions are refused, every queued and
// in-flight job still completes (their Tasks resolve), and Close returns
// once all pool runners have exited. It is idempotent and safe to call
// concurrently.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	pools := make([]*Pool, 0, len(s.pools))
	for _, p := range s.pools {
		pools = append(pools, p)
	}
	s.mu.Unlock()
	s.log.Info("server draining", "pools", len(pools), "queued", s.queued.Load())
	for _, p := range pools {
		p.qmu.Lock()
		p.closing = true
		p.cond.Broadcast()
		p.qmu.Unlock()
	}
	s.runners.Wait()
	s.log.Info("server closed")
}
