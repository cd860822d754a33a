package pipeline

import (
	"math"
	"reflect"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
)

func newSession(t *testing.T, w ...float64) *protocol.BidSession {
	t.Helper()
	s, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func approx(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// TestRunLoadDegenerate: R=1 routes through BidSession.Run verbatim, so a
// one-installment load is bit-identical to the plain multiload path.
func TestRunLoadDegenerate(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	job := protocol.JobConfig{Seed: 7, NBlocks: 64}
	plain := newSession(t, w...)
	piped := newSession(t, w...)
	for k := 0; k < 3; k++ {
		want, err := plain.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunLoad(piped, Load{Job: job, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: R=1 outcome diverges from plain Run", k+1)
		}
	}
}

// TestRunLoadTelescopesPayments: installment sub-rounds price the load
// under one whole-load rule — every installment charges the same unit
// price, scaled by its load fraction, so the per-installment payments
// telescope to a single whole-load payment vector and nobody can shave
// their bill by the round it lands in. The sub-round IDs are well-formed
// and distinct, and every installment's transcript verifies
// independently. (The totals deliberately differ from the single-round
// run: installment rounds allocate by dlt.PipelinedAllocation, not the
// single-round optimum — R=1 bit-parity is TestRunLoadDegenerate's job.)
func TestRunLoadTelescopesPayments(t *testing.T) {
	w := []float64{3, 2, 4, 5, 2.5}
	job := protocol.JobConfig{Seed: 11, NBlocks: 64}
	for _, policy := range []dlt.RoundPolicy{dlt.EqualRounds, dlt.GeometricRounds} {
		for _, rounds := range []int{2, 3, 4, 8} {
			s := newSession(t, w...)
			// Warm the cache first so the pipelined load runs on the
			// cached-bid fast path, as it would in a pool.
			if _, err := s.Run(job); err != nil {
				t.Fatal(err)
			}
			agg, err := RunLoad(s, Load{Job: job, Rounds: rounds, Policy: policy})
			if err != nil {
				t.Fatalf("%v R=%d: %v", policy, rounds, err)
			}
			if !agg.Completed {
				t.Fatalf("%v R=%d: load did not complete", policy, rounds)
			}
			if len(agg.Installments) != rounds {
				t.Fatalf("%v R=%d: %d installment outcomes", policy, rounds, len(agg.Installments))
			}
			if !approx(agg.LoadFraction, 1, 1e-12) {
				t.Errorf("%v R=%d: load fractions sum to %v", policy, rounds, agg.LoadFraction)
			}
			fr, _ := dlt.RoundFractions(rounds, policy)
			for k, sub := range agg.Installments {
				if !approx(sub.UserCost, fr[k]*agg.UserCost, 1e-9) {
					t.Errorf("%v R=%d: installment %d user cost %v, want fraction %v of total %v", policy, rounds, k+1, sub.UserCost, fr[k], agg.UserCost)
				}
				for i := range w {
					if !approx(sub.Payments[i], fr[k]*agg.Payments[i], 1e-9) {
						t.Errorf("%v R=%d: installment %d pays P%d %v, want fraction %v of total %v", policy, rounds, k+1, i+1, sub.Payments[i], fr[k], agg.Payments[i])
					}
					if !approx(sub.Utilities[i], fr[k]*agg.Utilities[i], 1e-9) {
						t.Errorf("%v R=%d: installment %d gives P%d utility %v, want fraction of total %v", policy, rounds, k+1, i+1, sub.Utilities[i], agg.Utilities[i])
					}
					if !approx(sub.WorkCost[i], fr[k]*agg.WorkCost[i], 1e-9) {
						t.Errorf("%v R=%d: installment %d costs P%d %v, want fraction of total %v", policy, rounds, k+1, i+1, sub.WorkCost[i], agg.WorkCost[i])
					}
				}
			}
			base, err := protocol.ParseRoundRef(agg.RoundID)
			if err != nil || base.Installment != 0 {
				t.Fatalf("%v R=%d: aggregate round ID %q: %v", policy, rounds, agg.RoundID, err)
			}
			if agg.Transcript != nil {
				t.Errorf("%v R=%d: aggregate carries a transcript; sub-rounds own theirs", policy, rounds)
			}
			fracs, _ := dlt.RoundFractions(rounds, policy)
			for k, sub := range agg.Installments {
				rr, err := protocol.ParseRoundRef(sub.RoundID)
				if err != nil {
					t.Fatalf("%v R=%d: sub-round ID %q: %v", policy, rounds, sub.RoundID, err)
				}
				if rr.Salt != base.Salt || rr.Round != base.Round || rr.Installment != k+1 {
					t.Errorf("%v R=%d: installment %d carries ID %q under base %q", policy, rounds, k+1, sub.RoundID, agg.RoundID)
				}
				if sub.Installment != k+1 || !approx(sub.LoadFraction, fracs[k], 1e-12) {
					t.Errorf("%v R=%d: installment %d marked %d/frac %v", policy, rounds, k+1, sub.Installment, sub.LoadFraction)
				}
				if !sub.BidReused {
					t.Errorf("%v R=%d: installment %d re-bid although the profile never changed", policy, rounds, k+1)
				}
				if err := referee.VerifyEntries(sub.Transcript); err != nil {
					t.Errorf("%v R=%d: installment %d transcript: %v", policy, rounds, k+1, err)
				}
				found := false
				for _, e := range sub.Transcript {
					if e.Action == "installment" {
						found = true
						if e.Round != sub.RoundID {
							t.Errorf("installment entry bound to %q, want %q", e.Round, sub.RoundID)
						}
					}
				}
				if !found {
					t.Errorf("%v R=%d: installment %d transcript has no installment entry", policy, rounds, k+1)
				}
			}
			// The aggregated makespan is the R-installment schedule of the
			// fractions the installments carried, over the realized rates
			// and agreed allocation, evaluated from its definition.
			carried := make([]float64, len(agg.Installments))
			for k, sub := range agg.Installments {
				carried[k] = sub.LoadFraction
			}
			const z = 0.2 // newSession's bus rate
			if ms := installmentMakespan(dlt.NCPFE, z, agg.Exec, agg.Alloc, carried); !approx(agg.Makespan, ms, 1e-9) {
				t.Errorf("%v R=%d: aggregate makespan %v, installment evaluator %v", policy, rounds, agg.Makespan, ms)
			}
		}
	}
}

// TestRunLoadTerminatesOnce: a deviant convicted in the first installment
// terminates the load there — later installments never run, so the fine
// is assessed exactly once and the full F outweighs the one installment's
// potential gain.
func TestRunLoadTerminatesOnce(t *testing.T) {
	w := []float64{3, 2, 4}
	s := newSession(t, w...)
	job := protocol.JobConfig{
		Seed:      5,
		NBlocks:   60,
		Behaviors: []agent.Behavior{{}, {Name: "equivocator", Equivocate: true, EquivocationFactor: 1.5}},
	}
	agg, err := RunLoad(s, Load{Job: job, Rounds: 4, Policy: dlt.EqualRounds})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Completed {
		t.Fatal("equivocation should terminate the load")
	}
	if len(agg.Installments) != 1 {
		t.Fatalf("load terminated in installment 1 but ran %d installments", len(agg.Installments))
	}
	if agg.Fines[1] != agg.FineMagnitude || agg.Fines[1] == 0 {
		t.Errorf("equivocator fined %v, want the full fine %v exactly once", agg.Fines[1], agg.FineMagnitude)
	}
	if agg.LoadFraction >= 1 {
		t.Errorf("terminated load claims fraction %v", agg.LoadFraction)
	}
}

// TestRunLoadRejectsNFE: the NFE originator cannot overlap, so a
// multi-installment load on NCP-NFE is refused up front.
func TestRunLoadRejectsNFE(t *testing.T) {
	s, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPNFE, Z: 0.2, TrueW: []float64{3, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLoad(s, Load{Job: protocol.JobConfig{Seed: 1}, Rounds: 2}); err == nil {
		t.Fatal("NCP-NFE multi-installment load accepted")
	}
}

// TestRunLoadSentinelTelescoping attaches an economic-invariant sentinel
// to a pipelined load: the installment invoices must telescope to the
// load-level settlement the aggregate reports, and per-installment
// payment conservation must hold — live, on the event stream, not just
// in the aggregated outcome.
func TestRunLoadSentinelTelescoping(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	for _, rounds := range []int{2, 4} {
		s := newSession(t, w...)
		sentinel := obs.NewSentinel()
		job := protocol.JobConfig{Seed: 11, NBlocks: 64, Tracer: sentinel}
		if _, err := s.Run(job); err != nil {
			t.Fatal(err)
		}
		agg, err := RunLoad(s, Load{Job: job, Rounds: rounds, Policy: dlt.EqualRounds})
		if err != nil {
			t.Fatalf("R=%d: %v", rounds, err)
		}
		if !agg.Completed {
			t.Fatalf("R=%d: load did not complete", rounds)
		}
		if !sentinel.Ok() {
			t.Fatalf("R=%d: sentinel latched on a correct pipelined load: %q",
				rounds, sentinel.Violations())
		}
	}
}
