package core

import (
	"errors"
	"fmt"
	"math"

	"dlsbl/internal/dlt"
)

// Multi-round payments. A pipelined load (internal/pipeline) is allocated
// with the steady-state balanced rule dlt.PipelinedAllocation and served
// in R installment sub-rounds, so the mechanism's three components keep
// the Definition 3.1 shape but are evaluated in the R-installment
// schedule class:
//
//	allocation:    α_P(b)  — the balanced pipelined split for the bids
//	compensation:  C_i = α_P,i(b)·w̃_i
//	bonus:         B_i = T_R(α_P(b_{-i}), b_{-i}) − T_R(α_P(b), (b_{-i}, w̃_i))
//
// where T_R is the R-installment greedy schedule's makespan
// (dlt.MultiRoundMakespanWithSpeeds). With rounds ≤ 1 RunRounds delegates
// to the single-round engine verbatim, so the degenerate case is
// bit-identical to the paper's mechanism — the telescoping anchor the
// pipelined protocol's parity tests rely on. The per-agent marginals here
// are O(m) solver calls (the naive per-agent re-solve); pipelined
// rounds are not a payment hot path.

// RunRounds executes the mechanism for a load served in `rounds`
// installments under the given division policy. rounds ≤ 1 is exactly
// Run/RunWithRule.
func (m Mechanism) RunRounds(bids, exec []float64, rounds int, policy dlt.RoundPolicy, rule PaymentRule) (*Outcome, error) {
	if rounds <= 1 {
		return m.run(bids, exec, rule)
	}
	n := len(bids)
	if n < 2 {
		return nil, errors.New("core: DLS-BL needs at least two agents")
	}
	if len(exec) != n {
		return nil, fmt.Errorf("core: %d execution values for %d bids", len(exec), n)
	}
	for i := 0; i < n; i++ {
		if !(bids[i] > 0) || math.IsInf(bids[i], 0) {
			return nil, fmt.Errorf("core: invalid bid b[%d]=%v", i, bids[i])
		}
		if !(exec[i] > 0) || math.IsInf(exec[i], 0) {
			return nil, fmt.Errorf("core: invalid execution value w̃[%d]=%v", i, exec[i])
		}
	}
	in := dlt.Instance{Network: m.Network, Z: m.Z, W: append([]float64(nil), bids...)}
	alloc, err := dlt.PipelinedAllocation(in)
	if err != nil {
		return nil, err
	}
	msBid, err := dlt.MultiRoundMakespanWithSpeeds(in, alloc, rounds, policy, bids)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Alloc:            alloc,
		Compensation:     make([]float64, n),
		Bonus:            make([]float64, n),
		Payment:          make([]float64, n),
		Valuation:        make([]float64, n),
		Utility:          make([]float64, n),
		MakespanWithout:  make([]float64, n),
		MakespanRealized: make([]float64, n),
		MakespanBid:      msBid,
	}
	speeds := make([]float64, n)
	for i := 0; i < n; i++ {
		sub, err := in.Without(i)
		if err != nil {
			return nil, err
		}
		subAlloc, err := dlt.PipelinedAllocation(sub)
		if err != nil {
			return nil, err
		}
		tWithout, err := dlt.MultiRoundMakespanWithSpeeds(sub, subAlloc, rounds, policy, sub.W)
		if err != nil {
			return nil, err
		}
		copy(speeds, bids)
		if rule == WithVerification {
			speeds[i] = exec[i]
		}
		tRealized, err := dlt.MultiRoundMakespanWithSpeeds(in, alloc, rounds, policy, speeds)
		if err != nil {
			return nil, err
		}
		out.MakespanWithout[i] = tWithout
		out.MakespanRealized[i] = tRealized
		out.Compensation[i] = alloc[i] * exec[i]
		out.Bonus[i] = tWithout - tRealized
		out.Payment[i] = out.Compensation[i] + out.Bonus[i]
		out.Valuation[i] = -alloc[i] * exec[i]
		out.Utility[i] = out.Payment[i] + out.Valuation[i]
		out.UserCost += out.Payment[i]
	}
	return out, nil
}
