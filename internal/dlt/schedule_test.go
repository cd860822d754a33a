package dlt

import (
	"math/rand"
	"testing"
)

// TestScheduleMatchesFinishTimes: the explicit timeline realizes exactly
// the closed-form finishing times of eqs. (1)–(3).
func TestScheduleMatchesFinishTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, net := range Networks {
		for trial := 0; trial < 100; trial++ {
			m := 1 + rng.Intn(16)
			in := DefaultRandomInstance(rng, net, m)
			a, err := Optimal(in)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := Schedule(in, a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := FinishTimes(in, a)
			if err != nil {
				t.Fatal(err)
			}
			got := tl.FinishTimes()
			for i := range want {
				if relErr(got[i], want[i]) > tol {
					t.Errorf("%v m=%d: timeline T[%d]=%v, eq gives %v", net, m, i, got[i], want[i])
				}
			}
			ms, _ := Makespan(in, a)
			if relErr(tl.Makespan, ms) > tol {
				t.Errorf("%v m=%d: timeline makespan %v, want %v", net, m, tl.Makespan, ms)
			}
		}
	}
}

// TestScheduleOnePortBus: bus spans never overlap (one-port model).
func TestScheduleOnePortBus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, net := range Networks {
		for trial := 0; trial < 50; trial++ {
			in := DefaultRandomInstance(rng, net, 1+rng.Intn(12))
			a, err := Optimal(in)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := Schedule(in, a)
			if err != nil {
				t.Fatal(err)
			}
			assertOnePort(t, tl)
		}
	}
}

func assertOnePort(t *testing.T, tl Timeline) {
	t.Helper()
	spans := tl.BusSpans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End-tol {
			t.Errorf("bus spans overlap: %+v then %+v", spans[i-1], spans[i])
		}
	}
}

// TestScheduleCommBeforeComp: every computation starts no earlier than the
// arrival of its fraction (except FE-originator chunks, which never cross
// the bus).
func TestScheduleCommBeforeComp(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, net := range Networks {
		in := DefaultRandomInstance(rng, net, 8)
		a, err := Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := Schedule(in, a)
		if err != nil {
			t.Fatal(err)
		}
		arrival := map[int]float64{}
		for _, s := range tl.Spans {
			if s.Kind == Comm {
				arrival[s.Proc] = s.End
			}
		}
		for _, s := range tl.Spans {
			if s.Kind != Comp {
				continue
			}
			if arr, ok := arrival[s.Proc]; ok && s.Start < arr-tol {
				t.Errorf("%v: P%d computes at %v before arrival %v", net, s.Proc+1, s.Start, arr)
			}
		}
	}
}

// TestScheduleNFEOriginatorLast: the NFE originator starts computing only
// after the bus falls silent.
func TestScheduleNFEOriginatorLast(t *testing.T) {
	in := Instance{Network: NCPNFE, Z: 0.5, W: []float64{1, 2, 3, 4}}
	a, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Schedule(in, a)
	if err != nil {
		t.Fatal(err)
	}
	busEnd := 0.0
	for _, s := range tl.BusSpans() {
		if s.End > busEnd {
			busEnd = s.End
		}
	}
	for _, s := range tl.Spans {
		if s.Proc == 3 && s.Kind == Comp && s.Start < busEnd-tol {
			t.Errorf("NFE originator computes at %v while bus busy until %v", s.Start, busEnd)
		}
	}
}

func TestSpanKindString(t *testing.T) {
	if Comm.String() != "comm" || Comp.String() != "comp" {
		t.Errorf("span kinds render as %q/%q", Comm.String(), Comp.String())
	}
}

func TestScheduleErrors(t *testing.T) {
	in := Instance{Network: CP, Z: 1, W: []float64{1, 2}}
	if _, err := Schedule(in, Allocation{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Schedule(Instance{Network: CP, Z: -1, W: []float64{1}}, Allocation{1}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestMultiRoundBasics(t *testing.T) {
	in := Instance{Network: NCPFE, Z: 0.4, W: []float64{1, 1.5, 2, 2.5}}
	if _, err := MultiRound(in, 0, EqualRounds); err == nil {
		t.Error("rounds=0 accepted")
	}
	nfe := in.Clone()
	nfe.Network = NCPNFE
	if _, err := MultiRound(nfe, 2, EqualRounds); err == nil {
		t.Error("NFE multi-round accepted")
	}
	tl, err := MultiRound(in, 1, EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	// One round with the optimal proportions == the single-round schedule.
	a, _ := Optimal(in)
	ms, _ := Makespan(in, a)
	if relErr(tl.Makespan, ms) > tol {
		t.Errorf("1-round makespan %v, want single-round %v", tl.Makespan, ms)
	}
	assertOnePort(t, tl)
}

// TestMultiRoundNotWorseTotalWork: the total fraction scheduled is 1 and
// each processor's summed chunk fractions equal its single-round optimum.
func TestMultiRoundConservesLoad(t *testing.T) {
	in := Instance{Network: CP, Z: 0.3, W: []float64{1, 2, 3}}
	for _, policy := range []RoundPolicy{EqualRounds, GeometricRounds} {
		tl, err := MultiRound(in, 5, policy)
		if err != nil {
			t.Fatal(err)
		}
		perProc := make([]float64, in.M())
		var total float64
		for _, s := range tl.Spans {
			if s.Kind == Comp {
				perProc[s.Proc] += s.Frac
				total += s.Frac
			}
		}
		if relErr(total, 1) > tol {
			t.Errorf("%v: total computed fraction %v, want 1", policy, total)
		}
		a, _ := Optimal(in)
		for i := range perProc {
			if relErr(perProc[i], a[i]) > tol {
				t.Errorf("%v: P%d total %v, want %v", policy, i+1, perProc[i], a[i])
			}
		}
		assertOnePort(t, tl)
	}
}

func TestRoundPolicyString(t *testing.T) {
	if EqualRounds.String() != "equal" || GeometricRounds.String() != "geometric" {
		t.Error("RoundPolicy.String mismatch")
	}
}

func TestRoundFractionsGeometric(t *testing.T) {
	per, err := RoundFractions(3, GeometricRounds)
	if err != nil {
		t.Fatal(err)
	}
	// 1,2,4 normalized by 7.
	want := []float64{1.0 / 7, 2.0 / 7, 4.0 / 7}
	for i := range want {
		if relErr(per[i], want[i]) > tol {
			t.Errorf("per[%d] = %v, want %v", i, per[i], want[i])
		}
	}
	if _, err := RoundFractions(2, RoundPolicy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestScheduleSpansAllocateOnce pins the span list of Schedule and
// MultiRoundSchedule to one allocation: both know their span count up
// front (at most 2m, or 2·m·R), so the list never regrows through its
// doublings. Every other allocation is the instance clone, and for the
// multi-round schedule the round fractions and per-processor free times.
func TestScheduleSpansAllocateOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const rounds = 8
	for _, net := range []Network{CP, NCPFE, NCPNFE} {
		in := DefaultRandomInstance(rng, net, 64)
		a, err := Optimal(in)
		if err != nil {
			t.Fatal(err)
		}
		clone := testing.AllocsPerRun(10, func() { _ = in.Clone() })
		single := testing.AllocsPerRun(10, func() {
			if _, err := Schedule(in, a); err != nil {
				t.Fatal(err)
			}
		})
		if single != clone+1 {
			t.Errorf("%v: Schedule makes %v allocations, want %v (clone + spans)", net, single, clone+1)
		}
		if net == NCPNFE {
			continue // no installments without a front end
		}
		fracs := testing.AllocsPerRun(10, func() {
			if _, err := RoundFractions(rounds, EqualRounds); err != nil {
				t.Fatal(err)
			}
		})
		multi := testing.AllocsPerRun(10, func() {
			if _, err := MultiRoundSchedule(in, a, rounds, EqualRounds); err != nil {
				t.Fatal(err)
			}
		})
		if want := clone + fracs + 2; multi != want {
			t.Errorf("%v: MultiRoundSchedule makes %v allocations, want %v (clone + fractions + free times + spans)", net, multi, want)
		}
	}
}
