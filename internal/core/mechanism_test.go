package core

import (
	"math"
	"math/rand"
	"testing"

	"dlsbl/internal/dlt"
)

const tol = 1e-9

func relErr(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / den
}

// TestRunHandComputedNCPFE works the full payment arithmetic by hand:
// NCP-FE, z=1, w=(2,3), truthful bids, full-speed execution.
//
//	α = (2/3, 1/3), T(α,b) = 4/3.
//	Without agent 1 (the originator): CP over {3} ⇒ T = 1+3 = 4.
//	Without agent 2: NCP-FE over {2} ⇒ T = 2.
//	C = (4/3, 1), B = (4 − 4/3, 2 − 4/3) = (8/3, 2/3),
//	Q = (4, 5/3), U = B.
func TestRunHandComputedNCPFE(t *testing.T) {
	m := Mechanism{Network: dlt.NCPFE, Z: 1}
	out, err := m.Run([]float64{2, 3}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want float64) {
		t.Helper()
		if relErr(got, want) > tol {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("α1", out.Alloc[0], 2.0/3)
	check("α2", out.Alloc[1], 1.0/3)
	check("T(α,b)", out.MakespanBid, 4.0/3)
	check("T_{-1}", out.MakespanWithout[0], 4)
	check("T_{-2}", out.MakespanWithout[1], 2)
	check("C1", out.Compensation[0], 4.0/3)
	check("C2", out.Compensation[1], 1)
	check("B1", out.Bonus[0], 8.0/3)
	check("B2", out.Bonus[1], 2.0/3)
	check("Q1", out.Payment[0], 4)
	check("Q2", out.Payment[1], 5.0/3)
	check("U1", out.Utility[0], 8.0/3)
	check("U2", out.Utility[1], 2.0/3)
	check("user cost", out.UserCost, 4+5.0/3)
	check("V1", out.Valuation[0], -4.0/3)
	check("realized T1", out.MakespanRealized[0], 4.0/3)
}

// TestRunSlowExecutionShrinksBonus: executing at w̃ > b shrinks the bonus
// by exactly the makespan increase while the compensation still reimburses
// the realized cost, so utility drops.
func TestRunSlowExecutionShrinksBonus(t *testing.T) {
	m := Mechanism{Network: dlt.NCPFE, Z: 1}
	truthful, err := m.Run([]float64{2, 3}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.Run([]float64{2, 3}, []float64{2, 6}) // agent 2 slacks
	if err != nil {
		t.Fatal(err)
	}
	// Realized makespan for agent 2: T2 = 1·(1/3) + (1/3)·6 = 7/3.
	if relErr(slow.MakespanRealized[1], 7.0/3) > tol {
		t.Errorf("realized = %v, want 7/3", slow.MakespanRealized[1])
	}
	if relErr(slow.Bonus[1], 2-7.0/3) > tol {
		t.Errorf("bonus = %v, want -1/3", slow.Bonus[1])
	}
	if slow.Utility[1] >= truthful.Utility[1] {
		t.Errorf("slacking utility %v not below truthful %v", slow.Utility[1], truthful.Utility[1])
	}
	// Agent 1's components are untouched by agent 2 slowing down except
	// through its own realized makespan, which uses b_2 not w̃_2.
	if relErr(slow.Utility[0], truthful.Utility[0]) > tol {
		t.Errorf("agent 1 utility changed: %v vs %v", slow.Utility[0], truthful.Utility[0])
	}
}

func TestRunInputValidation(t *testing.T) {
	m := Mechanism{Network: dlt.CP, Z: 0.5}
	if _, err := m.Run([]float64{1}, []float64{1}); err == nil {
		t.Error("single agent accepted")
	}
	if _, err := m.Run([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched exec length accepted")
	}
	if _, err := m.Run([]float64{0, 2}, []float64{1, 2}); err == nil {
		t.Error("zero bid accepted")
	}
	if _, err := m.Run([]float64{-1, 2}, []float64{1, 2}); err == nil {
		t.Error("negative bid accepted")
	}
	if _, err := m.Run([]float64{1, 2}, []float64{1, math.Inf(1)}); err == nil {
		t.Error("infinite exec accepted")
	}
	if _, err := m.Run([]float64{math.NaN(), 2}, []float64{1, 2}); err == nil {
		t.Error("NaN bid accepted")
	}
}

func TestPaymentRuleString(t *testing.T) {
	if WithVerification.String() != "verified" || WithoutVerification.String() != "unverified" {
		t.Error("PaymentRule.String mismatch")
	}
}

// TestTruthfulUtilityEqualsContribution: for truthful full-speed agents,
// U_i = T_{-i} − T(b), the agent's marginal contribution to shrinking the
// makespan — the quantity the paper calls "its contribution in reducing
// the total execution time".
func TestTruthfulUtilityEqualsContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, net := range dlt.Networks {
		for trial := 0; trial < 40; trial++ {
			in := RegimeSafeInstance(rng, net, 2+rng.Intn(10))
			mech := Mechanism{Network: net, Z: in.Z}
			out, err := mech.Run(in.W, TruthfulExec(in.W))
			if err != nil {
				t.Fatal(err)
			}
			for i := range in.W {
				want := out.MakespanWithout[i] - out.MakespanBid
				if relErr(out.Utility[i], want) > tol {
					t.Errorf("%v: U[%d]=%v, want T_{-i}−T = %v", net, i, out.Utility[i], want)
				}
			}
		}
	}
}

// pricingArms are the payment rules the theorem checks cover: the
// single-round rule on every class, the period rule of installment
// sub-rounds on the classes that pipeline, where its gains stay within
// rounding (a few ulps of the payment), far inside 1e-12, and the daisy
// chain and affine costs on instances drawn as CP.
var pricingArms = []struct {
	name  string
	price Pricing
	nets  []dlt.Network
	tol   float64
}{
	{"single-round", (*PaymentEngine).RunInto, dlt.Networks, 1e-9},
	{"period", (*PaymentEngine).RunPeriodInto, []dlt.Network{dlt.CP, dlt.NCPFE}, 1e-12},
	{"chain", chainPricing, []dlt.Network{dlt.CP}, 1e-9},
	{"affine", affinePricing, []dlt.Network{dlt.CP}, 1e-9},
}

// chainPricing prices a profile on the daisy chain of the engine's z.
func chainPricing(e *PaymentEngine, bids, exec []float64, _ PaymentRule, out *Outcome) error {
	o, err := LinearMechanism{Z: e.Z}.Run(bids, exec)
	if err == nil {
		*out = *o
	}
	return err
}

// affinePricing prices a profile on the engine's class and z with fixed
// overheads Scm = 0.1 and Scp = 0.05.
func affinePricing(e *PaymentEngine, bids, exec []float64, _ PaymentRule, out *Outcome) error {
	o, err := AffineMechanism{Network: e.Network, Z: e.Z, Scm: 0.1, Scp: 0.05}.Run(bids, exec)
	if err == nil {
		*out = *o
	}
	return err
}

// TestTheorem31Strategyproof: no sampled deviation beats truth-telling,
// across all three network classes, nor in an installment sub-round.
func TestTheorem31Strategyproof(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, arm := range pricingArms {
		for _, net := range arm.nets {
			for _, m := range []int{2, 3, 5, 9} {
				if v := CheckStrategyproof(rng, net, 30, m, arm.tol, arm.price); len(v) > 0 {
					t.Errorf("%s %v m=%d: %d violations, first: agent %d: %s (instance %+v)",
						arm.name, net, m, len(v), v[0].Agent, v[0].Detail, v[0].Instance)
				}
			}
		}
	}
}

// TestTheorem32VoluntaryParticipation: truthful agents never lose money,
// in a whole-load round or an installment sub-round.
func TestTheorem32VoluntaryParticipation(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, arm := range pricingArms {
		for _, net := range arm.nets {
			for _, m := range []int{2, 4, 8, 16} {
				if v := CheckVoluntaryParticipation(rng, net, 50, m, arm.tol, arm.price); len(v) > 0 {
					t.Errorf("%s %v m=%d: %d violations, first: agent %d: %s",
						arm.name, net, m, len(v), v[0].Agent, v[0].Detail)
				}
			}
		}
	}
}

// TestBidSweepPeaksAtTruth: on a dense sweep the maximum utility sits at
// ratio 1 — the curve the strategic-bidding example plots.
func TestBidSweepPeaksAtTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ratios := []float64{0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 3, 4}
	for _, net := range dlt.Networks {
		in := RegimeSafeInstance(rng, net, 6)
		mech := Mechanism{Network: net, Z: in.Z}
		for i := 0; i < in.M(); i++ {
			pts, err := mech.BidSweep(in.W, i, ratios)
			if err != nil {
				t.Fatal(err)
			}
			var truthU float64
			for _, p := range pts {
				if p.Ratio == 1 {
					truthU = p.Utility
				}
			}
			for _, p := range pts {
				if p.Utility > truthU+tol {
					t.Errorf("%v agent %d: ratio %v utility %v beats truthful %v",
						net, i, p.Ratio, p.Utility, truthU)
				}
			}
		}
	}
}

// TestBidSweepFullSpeed: even executing at full true speed, misreporting
// cannot beat truth (allocation distortion alone already hurts).
func TestBidSweepFullSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	in := RegimeSafeInstance(rng, dlt.NCPFE, 5)
	mech := Mechanism{Network: dlt.NCPFE, Z: in.Z}
	pts, err := mech.BidSweepFullSpeed(in.W, 2, []float64{0.5, 0.8, 1, 1.3, 2})
	if err != nil {
		t.Fatal(err)
	}
	var truthU float64
	for _, p := range pts {
		if p.Ratio == 1 {
			truthU = p.Utility
		}
	}
	for _, p := range pts {
		if p.Utility > truthU+tol {
			t.Errorf("ratio %v utility %v beats truthful %v", p.Ratio, p.Utility, truthU)
		}
		if p.Exec != in.W[2] {
			t.Errorf("full-speed sweep executed at %v, want %v", p.Exec, in.W[2])
		}
	}
}

// TestExecSweepVerificationAblation (experiment E12): with verification,
// slacking strictly reduces utility; without verification the payment no
// longer reacts to the meter, so the utility is flat in w̃ (compensation
// reimburses the inflated cost and the bonus ignores it) — the incentive
// to run at full speed disappears.
func TestExecSweepVerificationAblation(t *testing.T) {
	trueW := []float64{2, 3, 4}
	mech := Mechanism{Network: dlt.NCPFE, Z: 0.3}
	ratios := []float64{1, 1.25, 1.5, 2, 3}

	verified, err := mech.ExecSweep(trueW, 1, ratios, WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(verified); k++ {
		if verified[k].Utility >= verified[k-1].Utility-tol {
			t.Errorf("verified: slacking ratio %v utility %v did not fall below %v",
				verified[k].Ratio, verified[k].Utility, verified[k-1].Utility)
		}
	}

	unverified, err := mech.ExecSweep(trueW, 1, ratios, WithoutVerification)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(unverified); k++ {
		if relErr(unverified[k].Utility, unverified[0].Utility) > tol {
			t.Errorf("unverified: utility moved with w̃: %v vs %v",
				unverified[k].Utility, unverified[0].Utility)
		}
	}

	if _, err := mech.ExecSweep(trueW, 1, []float64{0.5}, WithVerification); err == nil {
		t.Error("ratio < 1 accepted")
	}
}

func TestUtilityDeviatingBounds(t *testing.T) {
	mech := Mechanism{Network: dlt.CP, Z: 0.2}
	if _, err := mech.UtilityDeviating([]float64{1, 2}, 5, 1, 1); err == nil {
		t.Error("out-of-range agent accepted")
	}
	if _, err := mech.UtilityDeviating([]float64{1, 2}, -1, 1, 1); err == nil {
		t.Error("negative agent accepted")
	}
}

func TestTruthfulExecIsCopy(t *testing.T) {
	w := []float64{1, 2}
	e := TruthfulExec(w)
	e[0] = 99
	if w[0] == 99 {
		t.Error("TruthfulExec aliases its input")
	}
}

// TestUserCostConservation: the user's bill equals the sum of payments;
// utilities equal payments plus valuations.
func TestUserCostConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		in := RegimeSafeInstance(rng, dlt.CP, 2+rng.Intn(8))
		mech := Mechanism{Network: dlt.CP, Z: in.Z}
		out, err := mech.Run(in.W, TruthfulExec(in.W))
		if err != nil {
			t.Fatal(err)
		}
		var sumQ float64
		for i := range out.Payment {
			sumQ += out.Payment[i]
			if relErr(out.Utility[i], out.Payment[i]+out.Valuation[i]) > tol {
				t.Errorf("U != Q + V for agent %d", i)
			}
		}
		if relErr(out.UserCost, sumQ) > tol {
			t.Errorf("user cost %v != ΣQ %v", out.UserCost, sumQ)
		}
	}
}
