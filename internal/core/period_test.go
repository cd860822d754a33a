package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlsbl/internal/dlt"
)

// TestRunRoundsDegenerate prices systems small enough to work by hand.
//
// Two CP workers, z = 0.1, b = w̃ = (2, 3): α = (3/5, 2/5) and
// P = max(z, 1/(1/2 + 1/3)) = 6/5. Without one worker the other carries
// the load alone, so P_{-1} = 3 and P_{-2} = 2; B = (9/5, 4/5) and
// C = (6/5, 6/5).
//
// A bus-bound NCP-FE system, z = 1, b = (1, 1, 1): the originator keeps
// α_0 = z/(b_0 + z) = 1/2 and the bus carries the other half in
// P = 1/2. Without a non-originator the survivors still need 1/2, so a
// non-originator's bonus is exactly zero, and stays zero when it slacks
// within the bus's period: the bus, not it, sets the period. Without the
// originator the two workers share a CP bus, P_{-1} = max(z, 1/2) = 1.
func TestRunRoundsDegenerate(t *testing.T) {
	check := func(what string, got, want float64) {
		t.Helper()
		if relErr(got, want) > 1e-14 {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	cp, err := Mechanism{Network: dlt.CP, Z: 0.1}.RunPeriod([]float64{2, 3}, []float64{2, 3}, WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	check("CP α1", cp.Alloc[0], 0.6)
	check("CP P", cp.MakespanBid, 1.2)
	check("CP P_{-1}", cp.MakespanWithout[0], 3)
	check("CP P_{-2}", cp.MakespanWithout[1], 2)
	check("CP B1", cp.Bonus[0], 1.8)
	check("CP B2", cp.Bonus[1], 0.8)
	check("CP Q1", cp.Payment[0], 3)
	check("CP Q2", cp.Payment[1], 2)

	fe := Mechanism{Network: dlt.NCPFE, Z: 1}
	bids := []float64{1, 1, 1}
	for _, exec := range [][]float64{{1, 1, 1}, {1, 1.5, 2}} {
		out, err := fe.RunPeriod(bids, exec, WithVerification)
		if err != nil {
			t.Fatal(err)
		}
		if out.MakespanBid != 0.5 || out.MakespanWithout[0] != 1 || out.Bonus[0] != 0.5 {
			t.Errorf("w̃=%v: P = %v, P_{-1} = %v, B1 = %v; want 0.5, 1, 0.5", exec, out.MakespanBid, out.MakespanWithout[0], out.Bonus[0])
		}
		for i := 1; i < 3; i++ {
			if out.Bonus[i] != 0 || out.Payment[i] != out.Alloc[i]*exec[i] {
				t.Errorf("w̃=%v: non-originator %d has B = %v, Q = %v; want 0 and its compensation", exec, i, out.Bonus[i], out.Payment[i])
			}
		}
	}
}

// TestRunRoundsIdentities: the period rule keeps the structural
// identities of Definition 3.1 — utility equals bonus, payment equals
// compensation plus bonus, user cost is the payment total — and truthful
// full-speed execution yields a non-negative bonus for every agent
// (voluntary participation in the installment class).
func TestRunRoundsIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, net := range []dlt.Network{dlt.CP, dlt.NCPFE} {
		for trial := 0; trial < 25; trial++ {
			n := 2 + rng.Intn(10)
			bids := make([]float64, n)
			for i := range bids {
				bids[i] = 1 + 2*rng.Float64()
			}
			m := Mechanism{Network: net, Z: 0.05 + 0.2*rng.Float64()}
			out, err := m.RunPeriod(bids, TruthfulExec(bids), WithVerification)
			if err != nil {
				t.Fatalf("%v n=%d: %v", net, n, err)
			}
			sum := 0.0
			for i := 0; i < n; i++ {
				if out.Utility[i] != out.Bonus[i] {
					t.Errorf("%v n=%d: U[%d]=%v but B[%d]=%v", net, n, i, out.Utility[i], i, out.Bonus[i])
				}
				if math.Abs(out.Payment[i]-(out.Compensation[i]+out.Bonus[i])) > 1e-12 {
					t.Errorf("%v n=%d: Q[%d] != C+B", net, n, i)
				}
				if out.Bonus[i] < -1e-12 {
					t.Errorf("%v n=%d: truthful agent %d has negative bonus %v", net, n, i, out.Bonus[i])
				}
				if math.Abs(out.Compensation[i]-out.Alloc[i]*bids[i]) > 1e-12 {
					t.Errorf("%v n=%d: C[%d] != α·w̃", net, n, i)
				}
				sum += out.Payment[i]
			}
			if math.Abs(sum-out.UserCost) > 1e-9 {
				t.Errorf("%v n=%d: user cost %v, payments sum %v", net, n, out.UserCost, sum)
			}
		}
	}
}

// TestRunRoundsSlowExecutionCostsBonus: on a compute-bound system,
// executing slower than bid lengthens the realized period and shrinks
// the bonus — the verification incentive survives in the installment
// class.
func TestRunRoundsSlowExecutionCostsBonus(t *testing.T) {
	m := Mechanism{Network: dlt.NCPFE, Z: 0.1}
	bids := []float64{3, 2, 4, 5, 2.5}
	honest, err := m.RunPeriod(bids, TruthfulExec(bids), WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	slow := TruthfulExec(bids)
	slow[2] *= 1.4
	lazy, err := m.RunPeriod(bids, slow, WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Bonus[2] >= honest.Bonus[2] {
		t.Errorf("slow execution did not shrink the bonus: %v -> %v", honest.Bonus[2], lazy.Bonus[2])
	}
	if _, err := m.RunPeriod(bids[:1], bids[:1], WithVerification); err == nil {
		t.Error("lone agent accepted")
	}
	if _, err := m.RunPeriod(bids, []float64{1, -1, 1, 1, 1}, WithVerification); err == nil {
		t.Error("negative execution value accepted")
	}
}

// periodTol bounds the closed form's distance from the oracle, relative
// to the scale of the periods compared: the larger of z and every period
// either side computed. The two sum 1/b_j in different orders and the
// oracle normalizes its split, which costs a few ulps per term; z enters
// the scale because the oracle's bus time z·(1 − α_0) loses up to an ulp
// of 1 in 1 − α_0 once the originator's share nears 1.
const periodTol = 1e-13

// checkPeriodParity runs one profile through the engine, warm and cold,
// and through the oracle. Both must accept or reject it alike, with the
// same error text. The allocation, compensations, valuations and the
// realized periods must match bit for bit; the leave-one-out periods and
// everything built on them must agree within periodTol of the scale.
func checkPeriodParity(t *testing.T, eng *PaymentEngine, bids, exec []float64, rule PaymentRule) {
	t.Helper()
	mech := Mechanism{Network: eng.Network, Z: eng.Z}
	want, errWant := mech.RunPeriodNaive(bids, exec, rule)
	var out Outcome
	errGot := eng.RunPeriodInto(bids, exec, rule, &out)
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
		t.Fatalf("%v m=%d %v: engine error %v, oracle error %v", eng.Network, len(bids), rule, errGot, errWant)
	}
	if errWant != nil {
		return
	}
	cold, err := mech.RunPeriod(bids, exec, rule)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Max(eng.Z, want.MakespanBid)
	for i := range want.Alloc {
		scale = math.Max(scale, math.Max(want.MakespanWithout[i], want.MakespanRealized[i]))
	}
	for _, got := range []*Outcome{&out, cold} {
		same := func(what string, g, w float64) {
			t.Helper()
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v m=%d %v: %s: engine %v, oracle %v", eng.Network, len(bids), rule, what, g, w)
			}
		}
		near := func(what string, g, w, bound float64) {
			t.Helper()
			if !(math.Abs(g-w) <= bound) {
				t.Fatalf("%v m=%d %v: %s: engine %v, oracle %v, %.3g of the scale %v", eng.Network, len(bids), rule, what, g, w, math.Abs(g-w)/scale, scale)
			}
		}
		if len(got.Alloc) != len(want.Alloc) {
			t.Fatalf("engine has %d agents, oracle %d", len(got.Alloc), len(want.Alloc))
		}
		same("MakespanBid", got.MakespanBid, want.MakespanBid)
		for i := range want.Alloc {
			same(fmt.Sprintf("Alloc[%d]", i), got.Alloc[i], want.Alloc[i])
			same(fmt.Sprintf("Compensation[%d]", i), got.Compensation[i], want.Compensation[i])
			same(fmt.Sprintf("Valuation[%d]", i), got.Valuation[i], want.Valuation[i])
			same(fmt.Sprintf("MakespanRealized[%d]", i), got.MakespanRealized[i], want.MakespanRealized[i])
			near(fmt.Sprintf("MakespanWithout[%d]", i), got.MakespanWithout[i], want.MakespanWithout[i], periodTol*scale)
			near(fmt.Sprintf("Bonus[%d]", i), got.Bonus[i], want.Bonus[i], periodTol*scale)
			near(fmt.Sprintf("Payment[%d]", i), got.Payment[i], want.Payment[i], periodTol*scale)
			near(fmt.Sprintf("Utility[%d]", i), got.Utility[i], want.Utility[i], periodTol*scale)
		}
		near("UserCost", got.UserCost, want.UserCost, float64(len(bids))*periodTol*scale)
	}
}

// TestRunRoundsMatchesOracle sweeps both overlapping classes, both
// payment rules and m = 2..40, z up to 2 (bus-bound systems included),
// through one warm engine against the period's definition.
func TestRunRoundsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, net := range []dlt.Network{dlt.CP, dlt.NCPFE} {
		eng := NewPaymentEngine(net, 0)
		for m := 2; m <= 40; m += 3 {
			for trial := 0; trial < 7; trial++ {
				in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 2.0)
				eng.Z = in.Z
				bids, exec := randomProfile(rng, in)
				for _, rule := range []PaymentRule{WithVerification, WithoutVerification} {
					checkPeriodParity(t, eng, bids, exec, rule)
				}
			}
		}
	}
}

// TestRunRoundsIntoRejects pins the engine's rejections to the oracle's,
// error text included: an NCP-NFE class, an unknown class, a bad z, a
// lone agent, mismatched lengths and non-positive values.
func TestRunRoundsIntoRejects(t *testing.T) {
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	cases := []struct {
		name       string
		net        dlt.Network
		z          float64
		bids, exec []float64
	}{
		{"ncp-nfe", dlt.NCPNFE, 0.1, bids, exec},
		{"unknown class", dlt.Network(7), 0.1, bids, exec},
		{"negative z", dlt.NCPFE, -1, bids, exec},
		{"NaN z", dlt.CP, math.NaN(), bids, exec},
		{"lone agent", dlt.CP, 0.1, bids[:1], exec[:1]},
		{"length mismatch", dlt.CP, 0.1, bids, exec[:2]},
		{"zero exec", dlt.CP, 0.1, bids, []float64{1, 0, 3}},
		{"inf bid", dlt.NCPFE, 0.1, []float64{1, math.Inf(1), 3}, exec},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := (Mechanism{Network: c.net, Z: c.z}).RunPeriodNaive(c.bids, c.exec, WithVerification); err == nil {
				t.Fatal("the oracle accepted the case")
			}
			checkPeriodParity(t, NewPaymentEngine(c.net, c.z), c.bids, c.exec, WithVerification)
		})
	}
}

// TestRunRoundsIntoZeroAllocs is the allocation guard of the installment
// path: after one run at a given m, RunPeriodInto must not allocate.
func TestRunRoundsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, net := range []dlt.Network{dlt.CP, dlt.NCPFE} {
		for _, m := range []int{2, 16, 64, 256} {
			in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
			bids, exec := randomProfile(rng, in)
			eng := NewPaymentEngine(net, in.Z)
			var out Outcome
			if err := eng.RunPeriodInto(bids, exec, WithVerification, &out); err != nil {
				t.Fatalf("%v m=%d: %v", net, m, err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.RunPeriodInto(bids, exec, WithVerification, &out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v m=%d: RunPeriodInto allocated %.1f times per run, want 0", net, m, allocs)
			}
		}
	}
}

// FuzzRoundsEngineParity is the installment arm of FuzzEngineParity: any
// profile the fuzzer builds, over every class (NCP-NFE must be rejected
// by both), any z (an invalid one must be rejected by both), both
// payment rules and m = 2..64, must be accepted or rejected alike by the
// period rule and its oracle, and an accepted one must match it as
// checkPeriodParity demands.
func FuzzRoundsEngineParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(0), 0.2)
	f.Add(int64(7), uint8(1), uint8(13), uint8(1), 0.05)
	f.Add(int64(42), uint8(1), uint8(62), uint8(0), 1.5)
	f.Add(int64(3), uint8(2), uint8(9), uint8(1), 0.1)
	f.Fuzz(func(t *testing.T, seed int64, netRaw, mRaw, flags uint8, z float64) {
		net := dlt.Networks[int(netRaw)%len(dlt.Networks)]
		m := 2 + int(mRaw)%63
		rule := PaymentRule(flags & 1)
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, m)
		for i := range w {
			w[i] = math.Ldexp(1+rng.Float64(), rng.Intn(21)-10) // w ∈ [2^-10, 2^11)
		}
		bids, exec := randomProfile(rng, dlt.Instance{Network: net, Z: z, W: w})
		checkPeriodParity(t, NewPaymentEngine(net, z), bids, exec, rule)
	})
}

// benchPeriodProfile is BenchmarkRunPeriod's profile: an NCP-FE pool of
// m truthful members.
func benchPeriodProfile(m int) (Mechanism, []float64) {
	in := dlt.RandomInstance(rand.New(rand.NewSource(int64(m))), dlt.NCPFE, m, 0.5, 8, 0.02, 0.49)
	return Mechanism{Network: dlt.NCPFE, Z: in.Z}, in.W
}

// BenchmarkRunPeriod times the engine's installment payment rule, one run
// per op at m = 16 and at the 256-member pool cap, after one warm-up run
// sizes its buffers (so B/op is the steady state even at -benchtime 1x).
func BenchmarkRunPeriod(b *testing.B) {
	for _, m := range []int{16, 256} {
		mech, bids := benchPeriodProfile(m)
		exec := TruthfulExec(bids)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			eng := mech.NewEngine()
			var out Outcome
			if err := eng.RunPeriodInto(bids, exec, WithVerification, &out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunPeriodInto(bids, exec, WithVerification, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunPeriodNaive times the oracle on BenchmarkRunPeriod's
// profiles, the baseline the closed form is measured against.
func BenchmarkRunPeriodNaive(b *testing.B) {
	for _, m := range []int{16, 256} {
		mech, bids := benchPeriodProfile(m)
		exec := TruthfulExec(bids)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mech.RunPeriodNaive(bids, exec, WithVerification); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
