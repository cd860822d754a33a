package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/service"
)

// m is the pool size of every workload.
const m = 16

// instance is the seeded input every workload of one invocation shares.
type instance struct {
	seed int64
	dlt.Instance
}

func newInstance(seed int64) instance {
	return instance{seed: seed, Instance: dlt.DefaultRandomInstance(rand.New(rand.NewSource(seed)), dlt.NCPFE, m)}
}

// A target is one set-up instance of a workload: the system under test
// plus the client state that drives it.
type target interface {
	// do runs the ops with indices [i, i+batch) as one request and returns
	// one checked sample per op.
	do(i int, traced bool) []sample
	// counters reads the layer counters the target exposes without
	// tracing (pool traffic, memo hits, netbus datagrams).
	counters() (counters, error)
	// close releases the target; HTTP targets first require /healthz to
	// answer 200, i.e. every economic-invariant sentinel is clear.
	close() error
}

// sample is one op as the client saw it.
type sample struct {
	start time.Time
	lat   time.Duration
	err   error // nil when the op completed and passed its check
	// queueMS and runMS split the latency before the phase breakdown: on
	// HTTP the server's JobResult.QueueMS and RunMS; on the library
	// workloads the time from the call to the round's first trace record
	// and from its first to its last record (traced runs only).
	queueMS, runMS float64
	// recs is the op's trace (traced runs only) and recsAt the wall time
	// its timestamp zero corresponds to.
	recs   []obs.Record
	recsAt time.Time
	// installments and speedup are the pipelined job's sub-round count
	// and its JobResult.BatchSpeedup model figure.
	installments int
	speedup      float64
}

// counters are monotonic layer counters read around a traced window.
type counters struct {
	messages, deliveries               int // bus traffic
	memoHits                           int64
	datagrams, resends, decodeFailures int // netbus driver socket
}

func (c counters) sub(o counters) counters {
	return counters{
		messages:       c.messages - o.messages,
		deliveries:     c.deliveries - o.deliveries,
		memoHits:       c.memoHits - o.memoHits,
		datagrams:      c.datagrams - o.datagrams,
		resends:        c.resends - o.resends,
		decodeFailures: c.decodeFailures - o.decodeFailures,
	}
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop callers; batch the ops one
	// request carries; period the op-index cycle of the mix — every
	// measured window ends on a whole cycle, so per-op ratios repeat.
	clients, batch, period int
	// prepare computes what the checks compare against, outside any
	// timed window; setup builds a fresh target up to its first result.
	prepare func(in instance) (*reference, error)
	setup   func(in instance, ref *reference) (target, error)
}

var workloads = []*workload{
	{
		name:    "reuse-http",
		why:     "the service steady state: 2 clients POST 1-job submissions to one multiload pool, so the bid cache and verify memo absorb bidding",
		clients: 2, batch: 1, period: 1,
		prepare: plainReference,
		setup: func(in instance, ref *reference) (target, error) {
			return setupHTTP(in, service.PoolSpec{Multiload: true}, reuseJobs(in), checkReuse(ref))
		},
	},
	{
		name:    "churn-http",
		why:     "the same pool with lossy links on 1 job in 4 and a P3 overbid and a P4 payment cheat on 1 in 8, so splices, retries and convictions run beside reuse",
		clients: 2, batch: 1, period: 8,
		prepare: plainReference,
		setup: func(in instance, ref *reference) (target, error) {
			return setupHTTP(in, service.PoolSpec{Multiload: true}, churnJobs(in), checkChurn(ref))
		},
	},
	{
		name:    "pipelined-http",
		why:     "a pipeline_depth 4 pool fed 4-job batches of 4-installment loads: the only path through pipeline.RunLoad, installments and batch packing",
		clients: 2, batch: 4, period: 4,
		prepare: plainReference,
		setup: func(in instance, ref *reference) (target, error) {
			return setupHTTP(in, service.PoolSpec{Multiload: true, PipelineDepth: 4}, pipelinedJobs(in), checkPipelined)
		},
	},
	{
		name:    "cold-round",
		why:     "protocol.Run with zero-value defaults (fresh keys, JSON codec, no memo) from 1 caller: full bidding, so sig and bus dominate",
		clients: 1, batch: 1, period: 1,
		prepare: plainReference,
		setup:   setupCold,
	},
	{
		name:    "netbus-round",
		why:     "protocol.RunRound over 2 in-process netbus nodes on loopback UDP from 1 driver: the only control plane that crosses sockets",
		clients: 1, batch: 1, period: 1,
		prepare: netReference,
		setup:   setupNet,
	},
}

// reuseJobs submits one honest job per op.
func reuseJobs(in instance) func(i int) []service.JobSpec {
	return func(i int) []service.JobSpec {
		return []service.JobSpec{{Z: in.Z, Seed: in.seed + int64(i)}}
	}
}

// Churn mix: job i runs over a lossy bus when i%4 == 1, with P3
// overbidding when i%8 == 3 (a bid-profile change the pool splices in,
// and out again on the next honest job) and P4 cheating on its payment
// vector when i%8 == 5 (a conviction).
func churnFaulty(i int) bool      { return i%4 == 1 }
func churnOverbid(i int) bool     { return i%8 == 3 }
func churnCheat(i int) bool       { return i%8 == 5 }
func churnHonestClean(i int) bool { return !churnFaulty(i) && !churnOverbid(i) && !churnCheat(i) }

func churnJobs(in instance) func(i int) []service.JobSpec {
	return func(i int) []service.JobSpec {
		spec := service.JobSpec{Z: in.Z, Seed: in.seed + int64(i)}
		switch {
		case churnOverbid(i):
			spec.Behaviors = []string{"", "", agent.OverBid.Name}
		case churnCheat(i):
			spec.Behaviors = []string{"", "", "", agent.PaymentCheat.Name}
		}
		if churnFaulty(i) {
			spec.Faults = &bus.FaultPlan{Seed: in.seed + int64(i), Drop: 0.05, Duplicate: 0.02, Reorder: 0.02}
		}
		return []service.JobSpec{spec}
	}
}

// pipelinedJobs submits 4 loads of 4 installments per request.
func pipelinedJobs(in instance) func(i int) []service.JobSpec {
	return func(i int) []service.JobSpec {
		specs := make([]service.JobSpec, 4)
		for k := range specs {
			specs[k] = service.JobSpec{Z: in.Z, Seed: in.seed + int64(i+k), Installments: 4}
		}
		return specs
	}
}

func checkReuse(ref *reference) func(int, *service.JobResult) error {
	return func(i int, res *service.JobResult) error {
		if err := completed(res); err != nil {
			return err
		}
		if err := noFines(res.Fines, -1); err != nil {
			return err
		}
		return samePayments(res.Payments, ref.out.Payments)
	}
}

func checkChurn(ref *reference) func(int, *service.JobResult) error {
	return func(i int, res *service.JobResult) error {
		if res.Error != "" {
			return fmt.Errorf("job failed: %s", res.Error)
		}
		if churnCheat(i) {
			if len(res.Fines) != m || !(res.Fines[3] > 0) {
				return fmt.Errorf("payment cheat by P4 not fined (fines %v)", res.Fines)
			}
			return noFines(res.Fines, 3)
		}
		if err := completed(res); err != nil {
			return err
		}
		if err := noFines(res.Fines, -1); err != nil {
			return err
		}
		if churnHonestClean(i) {
			return samePayments(res.Payments, ref.out.Payments)
		}
		return nil
	}
}

func checkPipelined(i int, res *service.JobResult) error {
	if err := completed(res); err != nil {
		return err
	}
	if res.Installments != 4 {
		return fmt.Errorf("load served in %d installments, want 4", res.Installments)
	}
	return noFines(res.Fines, -1)
}

func completed(res *service.JobResult) error {
	if res.Error != "" {
		return fmt.Errorf("job failed: %s", res.Error)
	}
	if !res.Completed {
		return fmt.Errorf("round terminated in %s", res.TerminatedIn)
	}
	return nil
}

// noFines requires every fine to be zero except at index except.
func noFines(fines []float64, except int) error {
	for i, f := range fines {
		if f != 0 && i != except {
			return fmt.Errorf("P%d fined %v", i+1, f)
		}
	}
	return nil
}

// samePayments requires bit-identical payment vectors.
func samePayments(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d payments, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("payment of P%d is %v, reference %v", i+1, got[i], want[i])
		}
	}
	return nil
}

// live is a set-up workload being measured.
type live struct {
	w *workload
	t target
	// next is the next op index; between windows it is a multiple of the
	// workload's period.
	next int
}

// start computes the workload's reference, runs n fresh set-ups and
// keeps the last one live. Each set-up is timed on the wall clock and on
// the vt clock.
func start(w *workload, in instance, n int) (*live, *result, error) {
	ref, err := w.prepare(in)
	if err != nil {
		return nil, nil, fmt.Errorf("reference run: %w", err)
	}
	r := &result{w: w}
	var t target
	var spans [][2]time.Time
	sampler := startRef()
	for k := 0; k < n; k++ {
		if t != nil {
			if err := t.close(); err != nil {
				sampler.finish()
				return nil, nil, fmt.Errorf("closing set-up %d: %w", k, err)
			}
		}
		// Each set-up starts from a collected heap, so a collection owed
		// to earlier garbage does not land in one set-up's time.
		runtime.GC()
		begin := time.Now()
		if t, err = w.setup(in, ref); err != nil {
			sampler.finish()
			return nil, nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		spans = append(spans, [2]time.Time{begin, time.Now()})
	}
	clock := sampler.finish()
	for _, s := range spans {
		r.setupWallS = append(r.setupWallS, s[1].Sub(s[0]).Seconds())
		r.setupVT = append(r.setupVT, clock.v(s[1])-clock.v(s[0]))
	}
	r.addClock(clock)
	return &live{w: w, t: t}, r, nil
}
