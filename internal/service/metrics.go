package service

import (
	"sort"
	"sync"

	"dlsbl/internal/obs"
	"dlsbl/internal/stats"
)

// ring is a fixed-capacity sample reservoir for latency quantiles: it
// keeps the most recent ringCap observations, which is what a service
// dashboard wants (current tail behavior, not all-time history).
const ringCap = 4096

type ring struct {
	buf  []float64
	next int
	full bool
}

func (r *ring) add(x float64) {
	if r.buf == nil {
		r.buf = make([]float64, 0, ringCap)
	}
	if !r.full && len(r.buf) < ringCap {
		r.buf = append(r.buf, x)
		return
	}
	r.full = true
	r.buf[r.next] = x
	r.next = (r.next + 1) % ringCap
}

func (r *ring) samples() []float64 {
	return append([]float64(nil), r.buf...)
}

// metrics aggregates the service counters and latency reservoirs. The
// counters are cumulative since server start; the latency quantiles are
// over the most recent ringCap jobs.
type metrics struct {
	mu sync.Mutex

	jobsSubmitted int64
	jobsCompleted int64 // result delivered, no error
	jobsFailed    int64 // result delivered with an error
	jobsRejected  int64 // refused for backpressure
	jobPanics     int64 // rounds that panicked (each also a failed job)

	running     int
	peakRunning int

	rounds          int64 // protocol rounds played (completed or terminated)
	evictions       int64
	finedProcessors int64
	retransmits     int64

	queueWaitMS ring
	runMS       ring
}

func newMetrics() *metrics { return &metrics{} }

func (m *metrics) submitted(n int) {
	m.mu.Lock()
	m.jobsSubmitted += int64(n)
	m.mu.Unlock()
}

func (m *metrics) rejected(n int) {
	m.mu.Lock()
	m.jobsRejected += int64(n)
	m.mu.Unlock()
}

func (m *metrics) panicked() {
	m.mu.Lock()
	m.jobPanics++
	m.mu.Unlock()
}

func (m *metrics) runStarted() {
	m.mu.Lock()
	m.running++
	if m.running > m.peakRunning {
		m.peakRunning = m.running
	}
	m.mu.Unlock()
}

func (m *metrics) runFinished() {
	m.mu.Lock()
	m.running--
	m.mu.Unlock()
}

// finished folds one job result into the counters.
func (m *metrics) finished(res JobResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if res.Error == "" {
		m.jobsCompleted++
	} else {
		m.jobsFailed++
	}
	// A round was played iff the protocol produced an outcome — Bids is
	// set on every outcome, completed or terminated, but absent when the
	// run failed outright.
	if res.Error == "" || len(res.Bids) > 0 {
		m.rounds++
	}
	m.evictions += int64(len(res.Evictions))
	for _, f := range res.Fines {
		if f > 0 {
			m.finedProcessors++
		}
	}
	if res.Fault != nil {
		m.retransmits += int64(res.Fault.Retransmits)
	}
	m.queueWaitMS.add(res.QueueMS)
	m.runMS.add(res.RunMS)
}

// LatencySummary reports distribution statistics over the most recent
// jobs (up to 4096), in milliseconds, computed with internal/stats.
type LatencySummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

func summarize(xs []float64) LatencySummary {
	s := stats.Summarize(xs)
	if s.N == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		N:    s.N,
		Mean: s.Mean,
		Min:  s.Min,
		Max:  s.Max,
		P50:  stats.Quantile(xs, 0.50),
		P90:  stats.Quantile(xs, 0.90),
		P99:  stats.Quantile(xs, 0.99),
	}
}

// MetricsSnapshot is the GET /metrics body.
type MetricsSnapshot struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Rejected  int64 `json:"rejected"`
		Panics    int64 `json:"panics"` // rounds that panicked; each job also counts as failed
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
		PeakRun   int   `json:"peak_running"`
	} `json:"jobs"`
	Protocol struct {
		Rounds          int64 `json:"rounds"`
		Evictions       int64 `json:"evictions"`
		FinedProcessors int64 `json:"fined_processors"`
		Retransmits     int64 `json:"retransmits"`
	} `json:"protocol"`
	LatencyMS struct {
		QueueWait LatencySummary `json:"queue_wait"`
		Run       LatencySummary `json:"run"`
	} `json:"latency_ms"`
	// Multiload aggregates the amortized-bidding savings server-wide:
	// across every pool, the bus traffic the reused bids avoided
	// (DeliveriesSaved is the Θ(m²) term) and the rebids the profile
	// changes forced.
	Multiload struct {
		Rebids          int `json:"rebids"`
		MessagesSaved   int `json:"messages_saved"`
		DeliveriesSaved int `json:"deliveries_saved"`
		UnitsSaved      int `json:"units_saved"`
	} `json:"multiload"`
	// Build identifies the running binary (module version, VCS revision).
	Build obs.BuildInfo  `json:"build"`
	Pools []PoolSnapshot `json:"pools"`
}

// Metrics returns a consistent snapshot of the counters, latency
// quantiles and per-pool state.
func (s *Server) Metrics() MetricsSnapshot {
	var snap MetricsSnapshot
	m := s.metrics
	m.mu.Lock()
	snap.Jobs.Submitted = m.jobsSubmitted
	snap.Jobs.Completed = m.jobsCompleted
	snap.Jobs.Failed = m.jobsFailed
	snap.Jobs.Rejected = m.jobsRejected
	snap.Jobs.Panics = m.jobPanics
	snap.Jobs.Running = m.running
	snap.Jobs.PeakRun = m.peakRunning
	snap.Protocol.Rounds = m.rounds
	snap.Protocol.Evictions = m.evictions
	snap.Protocol.FinedProcessors = m.finedProcessors
	snap.Protocol.Retransmits = m.retransmits
	wait := m.queueWaitMS.samples()
	run := m.runMS.samples()
	m.mu.Unlock()
	snap.Jobs.Queued = s.Queued()
	snap.LatencyMS.QueueWait = summarize(wait)
	snap.LatencyMS.Run = summarize(run)

	s.mu.Lock()
	pools := make([]*Pool, 0, len(s.pools))
	for _, p := range s.pools {
		pools = append(pools, p)
	}
	s.mu.Unlock()
	sort.Slice(pools, func(i, j int) bool { return pools[i].spec.Name < pools[j].spec.Name })
	for _, p := range pools {
		ps := p.Snapshot()
		snap.Multiload.Rebids += ps.Rebids
		snap.Multiload.MessagesSaved += ps.MessagesSaved
		snap.Multiload.DeliveriesSaved += ps.DeliveriesSaved
		snap.Multiload.UnitsSaved += ps.UnitsSaved
		snap.Pools = append(snap.Pools, ps)
	}
	snap.Build = obs.Build()
	return snap
}
