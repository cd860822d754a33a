package dlt

import (
	"math"
	"math/rand"
	"testing"
)

// The pipelined protocol (internal/pipeline) serves live loads through
// MultiRoundSchedule, so the solver's invariants graduate from "ablation
// curiosity" to load-bearing. These property tests pin them down.

// TestRoundFractionsSumToOne: for both policies and R in 1..8 the
// installment fractions are positive, non-decreasing in cumulative mass,
// and sum to exactly 1 (within float tolerance).
func TestRoundFractionsSumToOne(t *testing.T) {
	for _, policy := range []RoundPolicy{EqualRounds, GeometricRounds} {
		for rounds := 1; rounds <= 8; rounds++ {
			per, err := RoundFractions(rounds, policy)
			if err != nil {
				t.Fatalf("%v R=%d: %v", policy, rounds, err)
			}
			if len(per) != rounds {
				t.Fatalf("%v R=%d: got %d fractions", policy, rounds, len(per))
			}
			sum := 0.0
			for r, f := range per {
				if f <= 0 || f > 1 {
					t.Errorf("%v R=%d: fraction %d = %v out of (0,1]", policy, rounds, r, f)
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%v R=%d: fractions sum to %v, want 1", policy, rounds, sum)
			}
		}
	}
}

// TestMultiRoundNeverWorseThanSingle: on the overlapping classes (CP and
// NCP-FE) with the single-round optimal proportions, splitting the load
// into installments can only help — the multi-round makespan is at most
// the single-round optimum, for both policies and R in 1..8.
//
// Why this holds exactly (not just approximately): at the single-round
// optimum all participants finish together, which forces
// w_i·a_i > z·Σ_{j>i} a_j for every i — each processor's own compute time
// dominates the bus time left behind it. Every round-r finish candidate
// of processor i is then bounded by the common single-round finish time.
func TestMultiRoundNeverWorseThanSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, net := range []Network{CP, NCPFE} {
		for _, policy := range []RoundPolicy{EqualRounds, GeometricRounds} {
			for trial := 0; trial < 40; trial++ {
				m := 1 + rng.Intn(16)
				in := DefaultRandomInstance(rng, net, m)
				_, single, err := OptimalMakespan(in)
				if err != nil {
					t.Fatal(err)
				}
				for rounds := 1; rounds <= 8; rounds++ {
					tl, err := MultiRound(in, rounds, policy)
					if err != nil {
						t.Fatalf("%v %v m=%d R=%d: %v", net, policy, m, rounds, err)
					}
					if tl.Makespan > single*(1+1e-9)+1e-12 {
						t.Errorf("%v %v m=%d R=%d: multi-round makespan %v exceeds single-round %v",
							net, policy, m, rounds, tl.Makespan, single)
					}
					assertOnePort(t, tl)
					// Work conservation: scheduled compute fractions sum to 1.
					work := 0.0
					for _, s := range tl.Spans {
						if s.Kind == Comp {
							work += s.Frac
						}
					}
					if math.Abs(work-1) > 1e-9 {
						t.Errorf("%v %v m=%d R=%d: compute fractions sum to %v", net, policy, m, rounds, work)
					}
				}
			}
		}
	}
}

// TestPipelinedAllocationBalance: the steady-state allocation is a valid
// split (positive, summing to 1) whose bottleneck per-load occupancy —
// max(bus time, any processor's compute time) — never exceeds the
// single-round optimum's bottleneck, and beats it by ≥ 20% on pools where
// compute and bus are comparable (the regime the pipelined scheduler
// targets). Every processor's busy time sits at or below the balanced
// period, so back-to-back loads keep the pipeline full.
func TestPipelinedAllocationBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, net := range []Network{CP, NCPFE} {
		for trial := 0; trial < 60; trial++ {
			m := 2 + rng.Intn(15)
			in := DefaultRandomInstance(rng, net, m)
			a, err := PipelinedAllocation(in)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for i, x := range a {
				if !(x > 0) {
					t.Fatalf("%v m=%d: a[%d]=%v", net, m, i, x)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%v m=%d: fractions sum to %v", net, m, sum)
			}
			period := pipelinePeriod(in, a)
			single, err := Optimal(in)
			if err != nil {
				t.Fatal(err)
			}
			if period > pipelinePeriod(in, single)*(1+1e-9) {
				t.Errorf("%v m=%d: balanced period %v exceeds single-round bottleneck %v",
					net, m, period, pipelinePeriod(in, single))
			}
			// The fluid bound 1/Σ(1/w) is unbeatable; the balanced split
			// must sit within the bus-bound correction of it.
			fluid := 0.0
			for _, w := range in.W {
				fluid += 1 / w
			}
			fluid = 1 / fluid
			if net == CP || in.Z*sumInvTail(in) <= 1 {
				if period < fluid*(1-1e-9) {
					t.Errorf("%v m=%d: period %v beats the fluid bound %v", net, m, period, fluid)
				}
			}
		}
	}
	// The headline regime: m=16, w∈[1,2], z=0.1 — the default bench pool.
	rng = rand.New(rand.NewSource(84))
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	in := Instance{Network: NCPFE, Z: 0.1, W: w}
	a, err := PipelinedAllocation(in)
	if err != nil {
		t.Fatal(err)
	}
	_, singleT, err := OptimalMakespan(in)
	if err != nil {
		t.Fatal(err)
	}
	if gain := singleT / pipelinePeriod(in, a); gain < 1.2 {
		t.Errorf("m=16 z=0.1 steady-state gain %.3f, want >= 1.2", gain)
	}
	if _, err := PipelinedAllocation(Instance{Network: NCPNFE, Z: 0.1, W: w}); err == nil {
		t.Error("NCP-NFE pipelined allocation accepted")
	}
}

// pipelinePeriod is the per-load occupancy of the busiest resource: the
// shared bus or any single processor.
func pipelinePeriod(in Instance, a Allocation) float64 {
	period := 0.0
	for i := range a {
		if !(in.Network == NCPFE && i == 0) {
			period += in.Z * a[i]
		}
	}
	for i := range a {
		if c := in.W[i] * a[i]; c > period {
			period = c
		}
	}
	return period
}

func sumInvTail(in Instance) float64 {
	s := 0.0
	for i := 1; i < in.M(); i++ {
		s += 1 / in.W[i]
	}
	return s
}

// TestMultiRoundMakespanWithSpeeds: a fixed allocation's installment
// schedule, evaluated at slower realized speeds, only finishes later —
// the pipelined timeline over realized rates relies on it.
func TestMultiRoundMakespanWithSpeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 20; trial++ {
		in := DefaultRandomInstance(rng, NCPFE, 2+rng.Intn(10))
		a, err := PipelinedAllocation(in)
		if err != nil {
			t.Fatal(err)
		}
		slow := in.Clone()
		slow.W[in.M()-1] *= 1.5
		for _, rounds := range []int{1, 3, 5} {
			tl, err := MultiRoundSchedule(in, a, rounds, GeometricRounds)
			if err != nil {
				t.Fatal(err)
			}
			worse, err := MultiRoundSchedule(slow, a, rounds, GeometricRounds)
			if err != nil {
				t.Fatal(err)
			}
			if worse.Makespan < tl.Makespan {
				t.Errorf("m=%d R=%d: slower execution shrank the makespan %v -> %v", in.M(), rounds, tl.Makespan, worse.Makespan)
			}
		}
	}
}

// TestMultiRoundScheduleDegenerate: R=1 with the optimal allocation
// reproduces the single-round schedule's finish structure, and an
// allocation of the wrong arity is rejected.
func TestMultiRoundScheduleDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	in := DefaultRandomInstance(rng, NCPFE, 6)
	a, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	tl1, err := MultiRoundSchedule(in, a, 1, EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Schedule(in, a)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(tl1.Makespan, ref.Makespan) > tol {
		t.Errorf("R=1 makespan %v, single-round schedule %v", tl1.Makespan, ref.Makespan)
	}
	if _, err := MultiRoundSchedule(in, a[:3], 2, EqualRounds); err == nil {
		t.Error("short allocation accepted")
	}
	if err := InstallmentFeasible(NCPNFE, 2); err == nil {
		t.Error("NCP-NFE multi-round accepted")
	}
	if err := InstallmentFeasible(NCPNFE, 1); err != nil {
		t.Errorf("NCP-NFE single round rejected: %v", err)
	}
	if _, err := ParseRoundPolicy("geometric"); err != nil {
		t.Errorf("geometric: %v", err)
	}
	if _, err := ParseRoundPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}
