package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

func randomBatch(rng *rand.Rand, m, d int) []Job {
	jobs := make([]Job, d)
	for j := range jobs {
		w := make([]float64, m)
		for i := range w {
			w[i] = 1 + rng.Float64()
		}
		in := dlt.Instance{Network: dlt.NCPFE, Z: 0.1, W: w}
		a, err := dlt.PipelinedAllocation(in)
		if err != nil {
			panic(err)
		}
		jobs[j] = Job{
			Exec:   w,
			Alloc:  a,
			Rounds: 1 + rng.Intn(4),
			Policy: dlt.RoundPolicy(rng.Intn(2)),
		}
	}
	return jobs
}

// TestPackProperties: over random batches, the packed plan keeps the
// one-port bus exclusive, keeps each processor's computations
// non-overlapping and installment-ordered within a job, conserves every
// job's work, and never finishes later than the serial FIFO baseline.
func TestPackProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(12)
		d := 1 + rng.Intn(6)
		jobs := randomBatch(rng, m, d)
		z := 0.1
		plan, err := Pack(dlt.NCPFE, z, jobs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// One-port bus: comm spans in emission order never overlap.
		prevEnd := 0.0
		for _, s := range plan.Spans {
			if !s.BusOwner {
				continue
			}
			if s.Start < prevEnd-1e-9 {
				t.Fatalf("trial %d: bus spans overlap at %v < %v", trial, s.Start, prevEnd)
			}
			prevEnd = s.End
			if want := z * s.Frac; math.Abs((s.End-s.Start)-want) > 1e-9 {
				t.Errorf("trial %d: comm span duration %v, want z·frac=%v", trial, s.End-s.Start, want)
			}
		}

		// Per-processor computations never overlap; per (job, proc) the
		// installment chunks appear in round order.
		procEnd := make([]float64, m)
		lastRound := make(map[[2]int]int)
		work := make([]float64, d)
		for _, s := range plan.Spans {
			if s.Kind != dlt.Comp {
				continue
			}
			if s.Start < procEnd[s.Proc]-1e-9 {
				t.Fatalf("trial %d: P%d computations overlap", trial, s.Proc+1)
			}
			procEnd[s.Proc] = s.End
			key := [2]int{s.Job, s.Proc}
			if r, ok := lastRound[key]; ok && s.Round <= r {
				t.Fatalf("trial %d: job %d P%d installments out of order", trial, s.Job, s.Proc+1)
			}
			lastRound[key] = s.Round
			work[s.Job] += s.Frac
			if s.End > plan.Finish[s.Job]+1e-12 {
				t.Fatalf("trial %d: span ends after its job's finish", trial)
			}
		}
		for j, wk := range work {
			if math.Abs(wk-plan.Jobs[j].Size) > 1e-9 {
				t.Errorf("trial %d: job %d computes %v of its load", trial, j, wk)
			}
		}

		// Packing can only help against running the same per-job
		// multi-round schedules back to back. (The FIFOTotal baseline is
		// a different animal — the FIFO runner's single-round optimum —
		// and a shallow batch under the throughput-balanced allocation
		// may legitimately lose to it; the deep-batch win is
		// TestPackOverlapsJobs's job.)
		serial := 0.0
		for j, job := range plan.Jobs {
			in := dlt.Instance{Network: dlt.NCPFE, Z: z, W: job.Exec}
			ms, err := dlt.MultiRoundMakespanWithSpeeds(in, job.Alloc, job.Rounds, job.Policy, job.Exec)
			if err != nil {
				t.Fatalf("trial %d job %d: %v", trial, j, err)
			}
			serial += ms * job.Size
		}
		if plan.Makespan > serial*(1+1e-9) {
			t.Errorf("trial %d: packed makespan %v exceeds serial same-schedule total %v", trial, plan.Makespan, serial)
		}
		if s := plan.Speedup(); !(s > 0) || math.IsInf(s, 0) {
			t.Errorf("trial %d: speedup %v not positive finite", trial, s)
		}

		// Determinism: packing is pure placement.
		again, err := Pack(dlt.NCPFE, z, randomCopy(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Fatalf("trial %d: Pack is not deterministic", trial)
		}
	}
}

func randomCopy(jobs []Job) []Job {
	cp := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Exec = append([]float64(nil), j.Exec...)
		j.Alloc = append(dlt.Allocation(nil), j.Alloc...)
		cp[i] = j
	}
	return cp
}

// TestPackOverlapsJobs: with several queued loads and installments, the
// packed schedule beats FIFO by a real margin — distinct jobs' compute
// overlaps with bus transfers that FIFO serializes.
func TestPackOverlapsJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	m, d := 16, 4
	jobs := randomBatch(rng, m, d)
	for j := range jobs {
		jobs[j].Rounds = 4
		jobs[j].Policy = dlt.GeometricRounds
	}
	plan, err := Pack(dlt.NCPFE, 0.1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Speedup(); s < 1.3 {
		t.Errorf("m=%d D=%d packed speedup %.3f, want >= 1.3", m, d, s)
	}
}

// TestPackLiveProtocolSpeedup buys the D=4, R=4 cell through the live
// protocol: four loads on the default m=16 pool served as signed
// installment sub-rounds off one cached bid, then packed from their
// realized outcomes. The packed schedule must still clear 1.3× over FIFO.
func TestPackLiveProtocolSpeedup(t *testing.T) {
	const m, z, d, r = 16, 0.1, 4, 4
	rng := rand.New(rand.NewSource(42))
	w := make([]float64, m)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	sess, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPFE, Z: z, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, d)
	for j := range jobs {
		out, err := RunLoad(sess, Load{
			Job:    protocol.JobConfig{Seed: 42 + int64(j), NBlocks: 8 * m},
			Rounds: r,
			Policy: dlt.GeometricRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed {
			t.Fatalf("load %d terminated in %s", j+1, out.TerminatedIn)
		}
		if jobs[j], err = JobFromOutcome(fmt.Sprintf("live%d", j+1), out, r, dlt.GeometricRounds); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := Pack(dlt.NCPFE, z, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s := plan.Speedup(); s < 1.3 {
		t.Errorf("live D=%d R=%d packed speedup %.3f, want >= 1.3", d, r, s)
	}
}

// TestPackValidation: malformed batches are rejected with clear errors.
func TestPackValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	jobs := randomBatch(rng, 4, 2)
	if _, err := Pack(dlt.NCPFE, 0.1, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := Pack(dlt.NCPNFE, 0.1, jobs); err == nil {
		t.Error("NCP-NFE batch accepted")
	}
	bad := randomCopy(jobs)
	bad[1].Exec = bad[1].Exec[:2]
	if _, err := Pack(dlt.NCPFE, 0.1, bad); err == nil {
		t.Error("ragged batch accepted")
	}
	bad = randomCopy(jobs)
	bad[0].Rounds = 0
	if _, err := Pack(dlt.NCPFE, 0.1, bad); err == nil {
		t.Error("zero rounds accepted")
	}
}

// TestJobTimelineSeparability: extracting one job's timeline from the
// plan keeps exactly that job's spans, so per-job schedules (like per-job
// transcripts) stay independently inspectable.
func TestJobTimelineSeparability(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	jobs := randomBatch(rng, 6, 3)
	plan, err := Pack(dlt.NCPFE, 0.1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for j := range plan.Jobs {
		tl, err := plan.JobTimeline(j)
		if err != nil {
			t.Fatal(err)
		}
		total += len(tl.Spans)
		if math.Abs(tl.Makespan-plan.Finish[j]) > 1e-12 {
			t.Errorf("job %d timeline makespan %v, plan finish %v", j, tl.Makespan, plan.Finish[j])
		}
	}
	if total != len(plan.Spans) {
		t.Errorf("job timelines hold %d spans, plan has %d", total, len(plan.Spans))
	}
	if _, err := plan.JobTimeline(99); err == nil {
		t.Error("out-of-range job accepted")
	}
}

// TestJobFromOutcome: a completed protocol outcome converts into a packer
// job carrying the realized rates and allocation.
func TestJobFromOutcome(t *testing.T) {
	out, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{3, 2, 4}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	job, err := JobFromOutcome("j1", out, 2, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Exec) != 3 || len(job.Alloc) != 3 {
		t.Fatalf("job has %d/%d entries", len(job.Exec), len(job.Alloc))
	}
	sum := 0.0
	for _, a := range job.Alloc {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("allocation sums to %v", sum)
	}
	if _, err := JobFromOutcome("j2", &protocol.Outcome{}, 1, dlt.EqualRounds); err == nil {
		t.Error("incomplete outcome accepted")
	}
}
