package service

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestPipelinedPoolValidation: installment jobs demand a known round
// policy at admission and a multiload pool at run time.
func TestPipelinedPoolValidation(t *testing.T) {
	w := []float64{1, 1.5, 2}
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Close()
	if _, err := srv.Submit("a", []JobSpec{{Z: 0.2, Seed: 1, InstallmentPolicy: "nope"}}, nil); !strings.Contains(errString(err), "round policy") {
		t.Errorf("bad installment policy error = %v", err)
	}
	// Installment jobs against a plain (non-multiload) pool fail at run
	// time with a clear error, not silently as whole loads.
	if _, err := srv.CreatePool(PoolSpec{Name: "plain", TrueW: w}); err != nil {
		t.Fatal(err)
	}
	tasks, err := srv.Submit("plain", []JobSpec{{Z: 0.2, Seed: 1, Installments: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := tasks[0].Wait(); !strings.Contains(res.Error, "Multiload") {
		t.Errorf("installments on a plain pool: error = %q", res.Error)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestFIFOStreamsEachResult: every pool, one whose spec still carries
// pipeline_depth included, releases each job's result as soon as its
// round settles. The runner is held inside job 1 until job 0's Done is
// observed closed, so a runner that withheld results for a batch fails
// here on the timeout instead of hanging.
func TestFIFOStreamsEachResult(t *testing.T) {
	w := []float64{1, 1.2, 1.4, 1.6, 1.8, 2, 1.1, 1.3}
	srv := New(Config{Workers: 2, QueueDepth: 32})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "pipe", TrueW: w, Multiload: true, PipelineDepth: 4}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv.testHookDuringRun = func(p *Pool, task *Task) {
		if task.index == 1 {
			<-release
		}
	}
	specs := make([]JobSpec, 4)
	for i := range specs {
		specs[i] = JobSpec{Z: 0.1, Seed: int64(i + 1), Installments: 4, InstallmentPolicy: "geometric"}
	}
	tasks, err := srv.Submit("pipe", specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tasks[0].Done():
		close(release)
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("job 0's result was withheld while job 1 ran")
	}
	for i, task := range tasks {
		res := task.Wait()
		if res.Error != "" {
			t.Fatalf("job %d: %s", i, res.Error)
		}
		if !res.Completed || res.Installments != 4 {
			t.Errorf("job %d: completed=%v installments=%d", i, res.Completed, res.Installments)
		}
		if res.BatchSpeedup != 0 {
			t.Errorf("job %d: deprecated batch speedup = %v, want 0", i, res.BatchSpeedup)
		}
	}
}

// TestPipelinedDegenerateParity pins that a pool spec's deprecated
// pipeline_depth changes nothing: over randomized pools with deviants,
// bus faults and installment jobs, a depth-4 pool's results are
// bit-identical to a depth-0 pool's in every field that carries money,
// round identity or verdicts.
func TestPipelinedDegenerateParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	behaviors := []string{"", "", "", "overbid-1.5x", "underbid-0.6x", "payment-cheat-2x"}
	installmentJobs := 0
	for trial := 0; trial < 8; trial++ {
		m := 3 + rng.Intn(4)
		w := make([]float64, m)
		for i := range w {
			w[i] = 1 + rng.Float64()
		}
		nJobs := 2 + rng.Intn(4)
		specs := make([]JobSpec, nJobs)
		for j := range specs {
			specs[j] = JobSpec{Z: 0.2, Seed: rng.Int63n(1 << 30)}
			for i := 1; i < m; i++ {
				if rng.Intn(4) == 0 {
					specs[j].Behaviors = append(specs[j].Behaviors, behaviors[rng.Intn(len(behaviors))])
				} else {
					specs[j].Behaviors = append(specs[j].Behaviors, "")
				}
			}
			if rng.Intn(3) == 0 {
				specs[j].Faults = faultPlan(0.1)
			}
			if rng.Intn(2) == 0 {
				specs[j].Installments = 2 + rng.Intn(3)
				specs[j].InstallmentPolicy = []string{"equal", "geometric"}[rng.Intn(2)]
			}
		}

		run := func(depth int) []JobResult {
			srv := New(Config{Workers: 2, QueueDepth: 64})
			defer srv.Close()
			if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: w, Multiload: true, PipelineDepth: depth}); err != nil {
				t.Fatal(err)
			}
			tasks, err := srv.Submit("p", specs, []string{ArtifactTranscript, ArtifactVerdicts})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]JobResult, len(tasks))
			for i, task := range tasks {
				out[i] = task.Wait()
			}
			return out
		}
		plain, piped := run(0), run(4)
		for j := range plain {
			a, b := plain[j], piped[j]
			if a.Error != b.Error || a.Completed != b.Completed || a.Installments != b.Installments {
				t.Fatalf("trial %d job %d: error/completed diverge: %+v vs %+v", trial, j, a, b)
			}
			if a.Installments > 1 {
				installmentJobs++
			}
			if !equalF64(a.Payments, b.Payments) || !equalF64(a.Fines, b.Fines) || !equalF64(a.Utilities, b.Utilities) {
				t.Fatalf("trial %d job %d: money diverges between depth 0 and 4", trial, j)
			}
			if a.RoundID != b.RoundID || a.UserCost != b.UserCost || a.Makespan != b.Makespan {
				t.Fatalf("trial %d job %d: round id or totals diverge", trial, j)
			}
			if len(a.Verdicts) != len(b.Verdicts) || len(a.Transcript) != len(b.Transcript) {
				t.Fatalf("trial %d job %d: verdicts/transcript shape diverges", trial, j)
			}
			for k := range a.Transcript {
				if a.Transcript[k].Hash != b.Transcript[k].Hash {
					t.Fatalf("trial %d job %d: transcript hash chain diverges at entry %d", trial, j, k)
				}
			}
		}
	}
	if installmentJobs == 0 {
		t.Fatal("no installment job was served; the parity sweep never covered one")
	}
}
