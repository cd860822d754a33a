package service

import (
	"fmt"
	"time"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/session"
)

// JobSpec is one DLS-BL-NCP job submission — the JSON element of a
// POST /v1/jobs batch. Zero values select the protocol defaults, so
// {"z":0.2,"seed":1} is a complete honest job.
type JobSpec struct {
	// Z is the per-unit communication time of this job's bus session.
	Z float64 `json:"z"`
	// Seed drives key generation (cold pools only) and the synthetic
	// dataset.
	Seed int64 `json:"seed"`
	// NBlocks and BlockSize set the dataset granularity (0 = defaults).
	NBlocks   int `json:"nblocks,omitempty"`
	BlockSize int `json:"blocksize,omitempty"`
	// Behaviors names each processor's strategy for this round (see
	// agent.Catalog; "" or a short list defaults to honest).
	Behaviors []string `json:"behaviors,omitempty"`
	// Faults, when present, runs the round over an unreliable bus;
	// Retry bounds the retransmission machinery.
	Faults *bus.FaultPlan        `json:"faults,omitempty"`
	Retry  *protocol.RetryPolicy `json:"retry,omitempty"`
	// Installments pipelines this job: > 1 serves the load in that many
	// installment sub-rounds, overlapping communication with computation
	// (requires a Multiload pool). InstallmentPolicy is "equal" (default)
	// or "geometric".
	Installments      int    `json:"installments,omitempty"`
	InstallmentPolicy string `json:"installment_policy,omitempty"`
}

// toJob resolves the spec into a session job, rejecting unknown behavior
// names.
func (spec JobSpec) toJob() (session.Job, error) {
	job := session.Job{
		Z:         spec.Z,
		Seed:      spec.Seed,
		NBlocks:   spec.NBlocks,
		BlockSize: spec.BlockSize,
		Faults:    spec.Faults,
	}
	if spec.Retry != nil {
		job.Retry = *spec.Retry
	}
	if spec.Installments < 0 {
		return session.Job{}, fmt.Errorf("installments must be >= 0, got %d", spec.Installments)
	}
	job.Installments = spec.Installments
	if spec.InstallmentPolicy != "" {
		p, err := dlt.ParseRoundPolicy(spec.InstallmentPolicy)
		if err != nil {
			return session.Job{}, err
		}
		job.InstallmentPolicy = p
	}
	for _, name := range spec.Behaviors {
		b, ok := agent.ByName(name)
		if !ok {
			return session.Job{}, fmt.Errorf("unknown behavior %q", name)
		}
		job.Behaviors = append(job.Behaviors, b)
	}
	return job, nil
}

// Artifact names accepted in a submission's "artifacts" list.
const (
	ArtifactTimeline   = "timeline"
	ArtifactTranscript = "transcript"
	ArtifactVerdicts   = "verdicts"
	// ArtifactTrace embeds the round's span/event records (obs.Record
	// stream) in each result: the same data dls-sim -trace renders as a
	// Chrome trace, per job over HTTP.
	ArtifactTrace = "trace"
)

func parseArtifacts(names []string) (map[string]bool, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make(map[string]bool, len(names))
	for _, n := range names {
		switch n {
		case ArtifactTimeline, ArtifactTranscript, ArtifactVerdicts, ArtifactTrace:
			out[n] = true
		default:
			return nil, fmt.Errorf("service: unknown artifact %q (timeline, transcript, verdicts or trace)", n)
		}
	}
	return out, nil
}

// Task is one admitted job. The submitter holds it and waits for the
// result; the pool runner fills it and closes Done.
type Task struct {
	spec      JobSpec
	artifacts map[string]bool
	index     int
	enqueued  time.Time
	done      chan struct{}
	res       JobResult
}

// Done is closed when the job's result is available.
func (t *Task) Done() <-chan struct{} { return t.done }

// Wait blocks until the job finishes and returns its result.
func (t *Task) Wait() JobResult {
	<-t.done
	return t.res
}

// Result returns the job's result; it is valid once Done is closed.
func (t *Task) Result() JobResult { return t.res }

// JobResult is the NDJSON record streamed back per job. Round is the
// pool-local round index the job played as (-1 when it failed before
// playing); Error carries a protocol- or session-level failure, in which
// case the economic fields are absent.
type JobResult struct {
	Event string `json:"event"` // always "result"
	Pool  string `json:"pool"`
	Job   int    `json:"job"` // index within the submission
	Round int    `json:"round"`
	Error string `json:"error,omitempty"`

	Completed     bool    `json:"completed"`
	TerminatedIn  string  `json:"terminated_in,omitempty"`
	FineMagnitude float64 `json:"fine_magnitude,omitempty"`
	// BidReused marks a round served from the pool's cached bid set
	// (Multiload pools); BidSpliced marks a round that re-bid only the one
	// changed member and spliced it into the cache; RoundID is the round's
	// session-salted identifier.
	BidReused  bool   `json:"bid_reused,omitempty"`
	BidSpliced bool   `json:"bid_spliced,omitempty"`
	RoundID    string `json:"round_id,omitempty"`

	Bids      []float64 `json:"bids,omitempty"`
	Alloc     []float64 `json:"alloc,omitempty"`
	Payments  []float64 `json:"payments,omitempty"`
	Fines     []float64 `json:"fines,omitempty"`
	Utilities []float64 `json:"utilities,omitempty"`
	UserCost  float64   `json:"user_cost,omitempty"`
	Makespan  float64   `json:"makespan,omitempty"`

	// Installments is the number of sub-rounds a pipelined job was served
	// in (0 for whole-load jobs).
	Installments int `json:"installments,omitempty"`
	// BatchSpeedup was a retired runner's virtual-time packing model
	// figure; the service no longer packs jobs into a shared bus
	// schedule (pipeline.Pack remains as an analysis function).
	//
	// Deprecated: always zero. It stays only because the layered
	// benchmark in bench/ still reads it.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`

	// Banned is the pool's ban list AFTER this round settled.
	Banned    []string                 `json:"banned,omitempty"`
	Evictions []protocol.EvictionEvent `json:"evictions,omitempty"`
	// Fault counts what the reliable-transport layer did; present only
	// when the job ran under a fault plan.
	Fault *protocol.FaultStats `json:"fault,omitempty"`

	// QueueMS is the time the job waited for its pool's runner; RunMS is
	// the round's execution time.
	QueueMS float64 `json:"queue_ms"`
	RunMS   float64 `json:"run_ms"`

	// Optional artifacts, selected per submission. Trace is the round's
	// span/event record stream (see internal/obs); feed it to
	// obs.ChromeTrace for a chrome://tracing view.
	Timeline   *dlt.Timeline        `json:"timeline,omitempty"`
	Transcript []referee.AuditEntry `json:"transcript,omitempty"`
	Verdicts   []referee.Verdict    `json:"verdicts,omitempty"`
	Trace      []obs.Record         `json:"trace,omitempty"`
}

// fill copies the protocol outcome into the result.
func (r *JobResult) fill(out *protocol.Outcome, artifacts map[string]bool) {
	r.Completed = out.Completed
	r.TerminatedIn = out.TerminatedIn
	r.FineMagnitude = out.FineMagnitude
	r.BidReused = out.BidReused
	r.BidSpliced = out.BidSpliced
	r.RoundID = out.RoundID
	r.Bids = out.Bids
	r.Alloc = out.Alloc
	r.Payments = out.Payments
	r.Fines = out.Fines
	r.Utilities = out.Utilities
	r.UserCost = out.UserCost
	r.Makespan = out.Makespan
	r.Installments = len(out.Installments)
	r.Evictions = out.Evictions
	if out.Fault != (protocol.FaultStats{}) || len(out.Evictions) > 0 {
		f := out.Fault
		r.Fault = &f
	}
	if artifacts[ArtifactTimeline] && out.Completed {
		tl := out.Timeline
		r.Timeline = &tl
	}
	if artifacts[ArtifactTranscript] {
		r.Transcript = out.Transcript
	}
	if artifacts[ArtifactVerdicts] {
		r.Verdicts = out.Verdicts
	}
}
