package pipeline

import (
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
)

// TestRunLoadCrashMidInstallment is the tier-3 checkpointed-recovery
// case across installments: P3 fail-stops at the start of installment 2
// of 3. The load still completes — the survivors carry installments 2
// and 3 — and P3 keeps exactly its installment-1 earnings: completed
// installments stay credited (their sub-round payments already
// telescoped), later ones exclude the dead processor entirely.
func TestRunLoadCrashMidInstallment(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	s := newSession(t, w...)
	job := protocol.JobConfig{Seed: 7, NBlocks: 64}
	// Warm the cache so the load runs on the cached-bid fast path, then
	// crash P3 in installment 2.
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	job.Faults = adversarytest.CrashPlan(5, 2, "P3")
	out, err := RunLoad(s, Load{Job: job, Rounds: 3, Policy: dlt.EqualRounds})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("load terminated in %s", out.TerminatedIn)
	}
	if len(out.Installments) != 3 {
		t.Fatalf("%d installments, want 3", len(out.Installments))
	}
	first, second, third := out.Installments[0], out.Installments[1], out.Installments[2]

	if len(first.Evictions) != 0 || first.Payments[2] <= 0 {
		t.Fatalf("installment 1 must pay P3 normally: evictions=%+v payment=%v",
			first.Evictions, first.Payments[2])
	}
	if len(second.Evictions) != 1 || second.Evictions[0].Proc != "P3" ||
		second.Evictions[0].Phase != obs.PhaseProcessing {
		t.Fatalf("installment 2 evictions = %+v, want P3 in processing", second.Evictions)
	}
	if second.Payments[2] != 0 || third.Payments[2] != 0 {
		t.Errorf("crashed P3 paid after the crash: inst2=%v inst3=%v",
			second.Payments[2], third.Payments[2])
	}
	if third.Participated[2] {
		t.Error("P3 still participates in installment 3 after crashing")
	}
	if len(third.Evictions) != 0 {
		t.Errorf("installment 3 re-evicts: %+v", third.Evictions)
	}

	// Aggregate: P3's total is exactly its installment-1 credit; the
	// survivors earned in every installment and the load's full fraction
	// was served.
	if !out.Evicted[2] {
		t.Error("aggregate does not mark P3 evicted")
	}
	if out.Payments[2] != first.Payments[2] {
		t.Errorf("P3 total %v, want its installment-1 credit %v",
			out.Payments[2], first.Payments[2])
	}
	for _, i := range []int{0, 1, 3} {
		if out.Payments[i] <= first.Payments[i] {
			t.Errorf("survivor P%d earned %v total vs %v in installment 1 alone",
				i+1, out.Payments[i], first.Payments[i])
		}
	}
	if out.LoadFraction != 1 {
		t.Errorf("load fraction %v, want 1", out.LoadFraction)
	}
	// Each sub-round's transcript verifies independently, crash included.
	for k, inst := range out.Installments {
		if err := referee.VerifyEntries(inst.Transcript); err != nil {
			t.Errorf("installment %d transcript: %v", k+1, err)
		}
	}
}

// TestRunLoadColdCrashKeepsSession: a crash in the first installment of
// a cold session's first load, whose installment 1 runs the full bid
// exchange. P3 leaves the remaining installments through a splice, and
// the next load is served with every member, P3 included.
func TestRunLoadColdCrashKeepsSession(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	s := newSession(t, w...)
	job := protocol.JobConfig{Seed: 7, NBlocks: 64, Faults: adversarytest.CrashPlan(5, 1, "P3")}
	out, err := RunLoad(s, Load{Job: job, Rounds: 3, Policy: dlt.EqualRounds})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || len(out.Installments) != 3 {
		t.Fatalf("load completed=%v with %d installments, want 3 completed", out.Completed, len(out.Installments))
	}
	first, second := out.Installments[0], out.Installments[1]
	if first.BidReused || len(first.Evictions) != 1 || first.Evictions[0].Proc != "P3" {
		t.Fatalf("installment 1: reused=%v evictions=%+v, want a full exchange that evicts P3", first.BidReused, first.Evictions)
	}
	if !second.BidSpliced || second.Participated[2] {
		t.Fatalf("installment 2: spliced=%v P3 participated=%v, want P3 spliced out", second.BidSpliced, second.Participated[2])
	}
	next, err := RunLoad(s, Load{Job: protocol.JobConfig{Seed: 8, NBlocks: 64}, Rounds: 3, Policy: dlt.EqualRounds})
	if err != nil {
		t.Fatalf("load after the crash: %v", err)
	}
	if !next.Completed || !next.Participated[2] || next.Payments[2] <= 0 {
		t.Fatalf("load after the crash: completed=%v P3 participated=%v paid %v", next.Completed, next.Participated[2], next.Payments[2])
	}
	// P3's return re-bids installment 1; the later installments reuse
	// that cache rather than quietly falling back to a rebid.
	for k, inst := range next.Installments[1:] {
		if !inst.BidReused {
			t.Fatalf("load after the crash, installment %d: re-bid, want reuse", k+2)
		}
	}
}
