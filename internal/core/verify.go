package core

import (
	"fmt"
	"math"
	"math/rand"

	"dlsbl/internal/dlt"
)

// This file contains the empirical property checkers behind experiments
// E6 (strategyproofness), E7 (voluntary participation) and E12
// (verification ablation). They measure the utilities the mechanism
// *actually* hands out — the theorems claim shapes, the checkers verify
// them on concrete instances.

// SweepPoint is one sample of a bid- or execution-value sweep for a single
// agent while everyone else stays truthful.
type SweepPoint struct {
	Ratio   float64 // b_i/t_i (bid sweep) or w̃_i/t_i (exec sweep)
	Bid     float64
	Exec    float64
	Utility float64
}

// UtilityDeviating returns agent i's utility when it bids `bid` and
// executes at `exec` while every other agent bids truthfully and executes
// at full speed. trueW are the private values t.
func (m Mechanism) UtilityDeviating(trueW []float64, i int, bid, exec float64) (float64, error) {
	if i < 0 || i >= len(trueW) {
		return 0, fmt.Errorf("core: agent %d out of range", i)
	}
	bids := append([]float64(nil), trueW...)
	bids[i] = bid
	execs := TruthfulExec(trueW)
	execs[i] = exec
	out, err := m.Run(bids, execs)
	if err != nil {
		return 0, err
	}
	return out.Utility[i], nil
}

// BidSweep samples agent i's utility across bid ratios b_i/t_i, with the
// agent executing rationally: at its true speed when the bid understates
// it, and at the bid when overstating (hiding the lie from the meter would
// require w̃ = b; executing faster can only raise the bonus, so this is
// the *worst* rational case for truth-telling — if truth still wins here
// it wins everywhere).
func (m Mechanism) BidSweep(trueW []float64, i int, ratios []float64) ([]SweepPoint, error) {
	if i < 0 || i >= len(trueW) {
		return nil, fmt.Errorf("core: agent %d out of range", i)
	}
	// One engine and one Outcome serve the whole sweep: after the first
	// point the per-point mechanism run allocates nothing.
	eng := m.NewEngine()
	var out Outcome
	bids := append([]float64(nil), trueW...)
	execs := TruthfulExec(trueW)
	pts := make([]SweepPoint, 0, len(ratios))
	for _, r := range ratios {
		bid := trueW[i] * r
		exec := math.Max(bid, trueW[i]) // cannot execute faster than t_i
		bids[i], execs[i] = bid, exec
		if err := eng.RunInto(bids, execs, WithVerification, &out); err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{Ratio: r, Bid: bid, Exec: exec, Utility: out.Utility[i]})
	}
	return pts, nil
}

// BidSweepFullSpeed is BidSweep with the agent always executing at its
// true speed regardless of the bid (w̃_i = t_i). Under verification the
// observed meter then exposes overbids; this sweep isolates the allocation
// distortion component of the utility loss.
func (m Mechanism) BidSweepFullSpeed(trueW []float64, i int, ratios []float64) ([]SweepPoint, error) {
	if i < 0 || i >= len(trueW) {
		return nil, fmt.Errorf("core: agent %d out of range", i)
	}
	eng := m.NewEngine()
	var out Outcome
	bids := append([]float64(nil), trueW...)
	execs := TruthfulExec(trueW)
	pts := make([]SweepPoint, 0, len(ratios))
	for _, r := range ratios {
		bid := trueW[i] * r
		bids[i] = bid
		if err := eng.RunInto(bids, execs, WithVerification, &out); err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{Ratio: r, Bid: bid, Exec: trueW[i], Utility: out.Utility[i]})
	}
	return pts, nil
}

// ExecSweep samples agent i's utility across execution ratios w̃_i/t_i ≥ 1
// with a truthful bid, under the given payment rule. With verification the
// utility must fall as the agent slacks; without verification it must not
// (experiment E12).
func (m Mechanism) ExecSweep(trueW []float64, i int, ratios []float64, rule PaymentRule) ([]SweepPoint, error) {
	if i < 0 || i >= len(trueW) {
		return nil, fmt.Errorf("core: agent %d out of range", i)
	}
	eng := m.NewEngine()
	var out Outcome
	execs := TruthfulExec(trueW)
	pts := make([]SweepPoint, 0, len(ratios))
	for _, r := range ratios {
		if r < 1 {
			return nil, fmt.Errorf("core: execution ratio %v < 1 is physically impossible", r)
		}
		execs[i] = trueW[i] * r
		if err := eng.RunInto(trueW, execs, rule, &out); err != nil {
			return nil, err
		}
		// Utility must reflect the agent's real cost −α_i·w̃_i even when
		// the payment rule ignores w̃ (RunInto already does so: valuation
		// always uses exec).
		pts = append(pts, SweepPoint{Ratio: r, Bid: trueW[i], Exec: execs[i], Utility: out.Utility[i]})
	}
	return pts, nil
}

// Violation describes one empirical counterexample found by a checker.
type Violation struct {
	Agent    int
	Detail   string
	Instance dlt.Instance
}

// RegimeSafeInstance draws a random instance in the regime where the
// paper's allocation algorithms are exactly optimal: z below every w_i
// (communication faster than any computation, the standard DLT operating
// point; for NCP-NFE this is the z < w_m condition of
// dlt.DistributionBeneficial). Outside this regime Algorithm 2.2 is not a
// global optimum and Theorems 3.1/3.2 do not apply — see the doc comment
// on dlt.Optimal.
func RegimeSafeInstance(rng *rand.Rand, net dlt.Network, m int) dlt.Instance {
	return dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
}

// Pricing is an engine's payment rule as a method expression:
// (*PaymentEngine).RunInto prices a whole-load round and
// (*PaymentEngine).RunPeriodInto an installment sub-round.
type Pricing func(e *PaymentEngine, bids, exec []float64, rule PaymentRule, out *Outcome) error

// CheckStrategyproof samples random instances and bid deviations and
// returns every case where a deviating agent obtained strictly more
// utility under price than the truthful one (beyond tolerance). An empty
// result is the empirical form of Theorem 3.1.
func CheckStrategyproof(rng *rand.Rand, net dlt.Network, trials, m int, tol float64, price Pricing) []Violation {
	var out []Violation
	var res Outcome
	var eng PaymentEngine
	bids := make([]float64, m)
	execs := make([]float64, m)
	for trial := 0; trial < trials; trial++ {
		in := RegimeSafeInstance(rng, net, m)
		eng.Network, eng.Z = net, in.Z
		utility := func(i int, bid, exec float64) (float64, error) {
			copy(bids, in.W)
			copy(execs, in.W)
			bids[i], execs[i] = bid, exec
			if err := price(&eng, bids, execs, WithVerification, &res); err != nil {
				return 0, err
			}
			return res.Utility[i], nil
		}
		for i := 0; i < m; i++ {
			truthU, err := utility(i, in.W[i], in.W[i])
			if err != nil {
				out = append(out, Violation{Agent: i, Detail: err.Error(), Instance: in})
				continue
			}
			for k := 0; k < 8; k++ {
				ratio := 0.25 + rng.Float64()*3.75
				bid := in.W[i] * ratio
				exec := math.Max(bid, in.W[i])
				devU, err := utility(i, bid, exec)
				if err != nil {
					out = append(out, Violation{Agent: i, Detail: err.Error(), Instance: in})
					continue
				}
				if devU > truthU+tol {
					out = append(out, Violation{
						Agent:    i,
						Detail:   fmt.Sprintf("bid %.4g (ratio %.3f) yields %.6g > truthful %.6g", bid, ratio, devU, truthU),
						Instance: in,
					})
				}
			}
		}
	}
	return out
}

// CheckVoluntaryParticipation samples random instances with all agents
// truthful and returns every case of negative utility under price. An
// empty result is the empirical form of Theorem 3.2.
func CheckVoluntaryParticipation(rng *rand.Rand, net dlt.Network, trials, m int, tol float64, price Pricing) []Violation {
	var out []Violation
	var res Outcome
	var eng PaymentEngine
	for trial := 0; trial < trials; trial++ {
		in := RegimeSafeInstance(rng, net, m)
		eng.Network, eng.Z = net, in.Z
		if err := price(&eng, in.W, in.W, WithVerification, &res); err != nil {
			out = append(out, Violation{Detail: err.Error(), Instance: in})
			continue
		}
		for i, u := range res.Utility {
			if u < -tol {
				out = append(out, Violation{
					Agent:    i,
					Detail:   fmt.Sprintf("truthful utility %.6g < 0", u),
					Instance: in,
				})
			}
		}
	}
	return out
}
