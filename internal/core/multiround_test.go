package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dlsbl/internal/dlt"
)

// TestRunRoundsDegenerate: rounds ≤ 1 delegates to the single-round
// engine, so the outcome is bit-identical to Run.
func TestRunRoundsDegenerate(t *testing.T) {
	m := Mechanism{Network: dlt.NCPFE, Z: 0.2}
	bids := []float64{3, 2, 4, 5}
	exec := []float64{3, 2.5, 4, 5}
	want, err := m.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rounds := range []int{0, 1} {
		got, err := m.RunRounds(bids, exec, rounds, dlt.EqualRounds, WithVerification)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rounds=%d diverges from single-round Run", rounds)
		}
	}
}

// TestRunRoundsIdentities: the multi-round mechanism keeps the structural
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
			rounds := 2 + rng.Intn(6)
			out, err := m.RunRounds(bids, TruthfulExec(bids), rounds, dlt.GeometricRounds, WithVerification)
			if err != nil {
				t.Fatalf("%v n=%d R=%d: %v", net, n, rounds, err)
			}
			sum := 0.0
			for i := 0; i < n; i++ {
				if math.Abs(out.Utility[i]-out.Bonus[i]) > 1e-12 {
					t.Errorf("%v n=%d R=%d: U[%d]=%v but B[%d]=%v", net, n, rounds, i, out.Utility[i], i, out.Bonus[i])
				}
				if math.Abs(out.Payment[i]-(out.Compensation[i]+out.Bonus[i])) > 1e-12 {
					t.Errorf("%v n=%d R=%d: Q[%d] != C+B", net, n, rounds, i)
				}
				if out.Bonus[i] < -1e-9 {
					t.Errorf("%v n=%d R=%d: truthful agent %d has negative bonus %v", net, n, rounds, i, out.Bonus[i])
				}
				if math.Abs(out.Compensation[i]-out.Alloc[i]*bids[i]) > 1e-12 {
					t.Errorf("%v n=%d R=%d: C[%d] != α·w̃", net, n, rounds, i)
				}
				sum += out.Payment[i]
			}
			if math.Abs(sum-out.UserCost) > 1e-9 {
				t.Errorf("%v n=%d R=%d: user cost %v, payments sum %v", net, n, rounds, out.UserCost, sum)
			}
		}
	}
}

// TestRunRoundsSlowExecutionCostsBonus: executing slower than bid shrinks
// the realized-makespan term and with it the bonus — the verification
// incentive survives in the installment class.
func TestRunRoundsSlowExecutionCostsBonus(t *testing.T) {
	m := Mechanism{Network: dlt.NCPFE, Z: 0.1}
	bids := []float64{3, 2, 4, 5, 2.5}
	honest, err := m.RunRounds(bids, TruthfulExec(bids), 4, dlt.EqualRounds, WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	slow := TruthfulExec(bids)
	slow[2] *= 1.4
	lazy, err := m.RunRounds(bids, slow, 4, dlt.EqualRounds, WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Bonus[2] >= honest.Bonus[2] {
		t.Errorf("slow execution did not shrink the bonus: %v -> %v", honest.Bonus[2], lazy.Bonus[2])
	}
	if _, err := m.RunRounds(bids[:1], bids[:1], 4, dlt.EqualRounds, WithVerification); err == nil {
		t.Error("lone agent accepted")
	}
	if _, err := m.RunRounds(bids, []float64{1, -1, 1, 1, 1}, 4, dlt.EqualRounds, WithVerification); err == nil {
		t.Error("negative execution value accepted")
	}
}

// requireIdentical fails unless two outcomes agree bit for bit in every
// field (a NaN matches only the same NaN).
func requireIdentical(t *testing.T, got, want *Outcome) {
	t.Helper()
	same := func(what string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: engine %v (%#x), oracle %v (%#x)", what, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	vec := func(what string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: engine has %d entries, oracle %d", what, len(g), len(w))
		}
		for i := range w {
			same(fmt.Sprintf("%s[%d]", what, i), g[i], w[i])
		}
	}
	vec("Alloc", got.Alloc, want.Alloc)
	vec("Compensation", got.Compensation, want.Compensation)
	vec("Bonus", got.Bonus, want.Bonus)
	vec("Payment", got.Payment, want.Payment)
	vec("Valuation", got.Valuation, want.Valuation)
	vec("Utility", got.Utility, want.Utility)
	vec("MakespanWithout", got.MakespanWithout, want.MakespanWithout)
	vec("MakespanRealized", got.MakespanRealized, want.MakespanRealized)
	same("MakespanBid", got.MakespanBid, want.MakespanBid)
	same("UserCost", got.UserCost, want.UserCost)
}

// checkRoundsParity runs one profile through the engine, warm and cold,
// and through the oracle, requiring the same accept/reject (with the same
// error text) and bit-identical outcomes.
func checkRoundsParity(t *testing.T, eng *PaymentEngine, bids, exec []float64, rounds int, policy dlt.RoundPolicy, rule PaymentRule) {
	t.Helper()
	mech := Mechanism{Network: eng.Network, Z: eng.Z}
	want, errWant := mech.RunRoundsNaive(bids, exec, rounds, policy, rule)
	var out Outcome
	errGot := eng.RunRoundsInto(bids, exec, rounds, policy, rule, &out)
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
		t.Fatalf("%v m=%d R=%d %v %v: engine error %v, oracle error %v", eng.Network, len(bids), rounds, policy, rule, errGot, errWant)
	}
	if errWant != nil {
		return
	}
	requireIdentical(t, &out, want)
	cold, err := mech.RunRounds(bids, exec, rounds, policy, rule)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, cold, want)
}

// TestRunRoundsMatchesOracle sweeps both overlapping classes, both
// policies, both payment rules, R = 2..8 and m = 2..40 through one warm
// engine, requiring bit-identical outcomes against the per-agent re-solve.
func TestRunRoundsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, net := range []dlt.Network{dlt.CP, dlt.NCPFE} {
		eng := NewPaymentEngine(net, 0)
		for m := 2; m <= 40; m += 3 {
			for rounds := 2; rounds <= 8; rounds++ {
				in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 2.0)
				eng.Z = in.Z
				bids, exec := randomProfile(rng, in)
				for _, policy := range []dlt.RoundPolicy{dlt.EqualRounds, dlt.GeometricRounds} {
					for _, rule := range []PaymentRule{WithVerification, WithoutVerification} {
						checkRoundsParity(t, eng, bids, exec, rounds, policy, rule)
					}
				}
			}
		}
	}
}

// TestRunRoundsIntoRejects pins the engine's rejections to the oracle's,
// error text included: an NCP-NFE class, an unknown class or policy, a
// bad z, a lone agent, mismatched lengths and non-positive values.
func TestRunRoundsIntoRejects(t *testing.T) {
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	cases := []struct {
		name       string
		net        dlt.Network
		z          float64
		bids, exec []float64
		policy     dlt.RoundPolicy
	}{
		{"ncp-nfe", dlt.NCPNFE, 0.1, bids, exec, dlt.EqualRounds},
		{"unknown class", dlt.Network(7), 0.1, bids, exec, dlt.EqualRounds},
		{"unknown policy", dlt.CP, 0.1, bids, exec, dlt.RoundPolicy(5)},
		{"negative z", dlt.NCPFE, -1, bids, exec, dlt.EqualRounds},
		{"NaN z", dlt.CP, math.NaN(), bids, exec, dlt.EqualRounds},
		{"lone agent", dlt.CP, 0.1, bids[:1], exec[:1], dlt.EqualRounds},
		{"length mismatch", dlt.CP, 0.1, bids, exec[:2], dlt.EqualRounds},
		{"zero exec", dlt.CP, 0.1, bids, []float64{1, 0, 3}, dlt.EqualRounds},
		{"inf bid", dlt.NCPFE, 0.1, []float64{1, math.Inf(1), 3}, exec, dlt.EqualRounds},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := (Mechanism{Network: c.net, Z: c.z}).RunRoundsNaive(c.bids, c.exec, 3, c.policy, WithVerification); err == nil {
				t.Fatal("the oracle accepted the case")
			}
			checkRoundsParity(t, NewPaymentEngine(c.net, c.z), c.bids, c.exec, 3, c.policy, WithVerification)
		})
	}
}

// TestRunRoundsIntoZeroAllocs is the allocation guard of the installment
// path: after one run at a given m and R, RunRoundsInto must not allocate.
func TestRunRoundsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, net := range []dlt.Network{dlt.CP, dlt.NCPFE} {
		for _, m := range []int{2, 16, 64, 256} {
			for _, rounds := range []int{2, 4, 8} {
				in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
				bids, exec := randomProfile(rng, in)
				eng := NewPaymentEngine(net, in.Z)
				var out Outcome
				if err := eng.RunRoundsInto(bids, exec, rounds, dlt.GeometricRounds, WithVerification, &out); err != nil {
					t.Fatalf("%v m=%d R=%d: %v", net, m, rounds, err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := eng.RunRoundsInto(bids, exec, rounds, dlt.GeometricRounds, WithVerification, &out); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%v m=%d R=%d: RunRoundsInto allocated %.1f times per run, want 0", net, m, rounds, allocs)
				}
			}
		}
	}
}

// FuzzRoundsEngineParity is the installment arm of FuzzEngineParity: any
// profile the fuzzer builds, over every class (NCP-NFE must be rejected
// by both), any z (an invalid one must be rejected by both), both
// policies, both payment rules, R = 2..8 and m = 2..64, must be accepted
// or rejected alike by the engine and the oracle, and an accepted one
// must produce bit-identical outcomes.
func FuzzRoundsEngineParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(2), uint8(0), 0.2)
	f.Add(int64(7), uint8(1), uint8(13), uint8(4), uint8(3), 0.05)
	f.Add(int64(42), uint8(1), uint8(62), uint8(8), uint8(1), 1.5)
	f.Add(int64(3), uint8(2), uint8(9), uint8(3), uint8(2), 0.1)
	f.Fuzz(func(t *testing.T, seed int64, netRaw, mRaw, rRaw, flags uint8, z float64) {
		net := dlt.Networks[int(netRaw)%len(dlt.Networks)]
		m := 2 + int(mRaw)%63
		rounds := 2 + int(rRaw)%7
		rule := PaymentRule(flags & 1)
		policy := dlt.RoundPolicy(flags >> 1 & 1)
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, m)
		for i := range w {
			w[i] = math.Ldexp(1+rng.Float64(), rng.Intn(21)-10) // w ∈ [2^-10, 2^11)
		}
		bids, exec := randomProfile(rng, dlt.Instance{Network: net, Z: z, W: w})
		checkRoundsParity(t, NewPaymentEngine(net, z), bids, exec, rounds, policy, rule)
	})
}

// benchRoundsProfile is BenchmarkRunRounds' profile: an NCP-FE pool of m
// truthful members served in 4 equal installments.
func benchRoundsProfile(m int) (Mechanism, []float64) {
	in := dlt.RandomInstance(rand.New(rand.NewSource(int64(m))), dlt.NCPFE, m, 0.5, 8, 0.02, 0.49)
	return Mechanism{Network: dlt.NCPFE, Z: in.Z}, in.W
}

// BenchmarkRunRounds times the engine's R-installment payment rule, one
// 4-installment run per op at m = 16 and at the 256-member pool cap,
// after one warm-up run sizes its buffers (so B/op is the steady state
// even at -benchtime 1x).
func BenchmarkRunRounds(b *testing.B) {
	for _, m := range []int{16, 256} {
		mech, bids := benchRoundsProfile(m)
		exec := TruthfulExec(bids)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			eng := mech.NewEngine()
			var out Outcome
			if err := eng.RunRoundsInto(bids, exec, 4, dlt.EqualRounds, WithVerification, &out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunRoundsInto(bids, exec, 4, dlt.EqualRounds, WithVerification, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunRoundsNaive times the oracle on BenchmarkRunRounds'
// profiles, the baseline the engine is measured against.
func BenchmarkRunRoundsNaive(b *testing.B) {
	for _, m := range []int{16, 256} {
		mech, bids := benchRoundsProfile(m)
		exec := TruthfulExec(bids)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mech.RunRoundsNaive(bids, exec, 4, dlt.EqualRounds, WithVerification); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
