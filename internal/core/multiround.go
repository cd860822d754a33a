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
// pipelined protocol's parity tests rely on.
//
// The engine's R-installment path (PaymentEngine.RunRoundsInto) is
// bit-identical to re-solving 2m+1 schedules (the per-agent re-solve,
// kept in the tests as the oracle) and allocates nothing once its
// buffers fit:
//
//   - Realized terms in O(R) each. The bus is fixed by α_P(b), so
//     substituting w̃_i moves only agent i's finish time. One base
//     schedule under the bids stores every chunk's arrival
//     (dlt.MultiRoundFinishes); agent i's realized finish replays its R
//     chunks from those arrivals at w̃_i, and the makespan combines it
//     with prefix/suffix maxima of the other finish times, as the
//     single-round engine does.
//   - Leave-one-out terms in O(m·R) each. Every T_R(α_P(b_{-i}), b_{-i})
//     solves the survivors' steady-state split and greedy schedule into
//     engine-owned buffers (dlt.PipelinedAllocationInto,
//     dlt.MultiRoundFinishes). The split's normalisation divides by a sum
//     over all survivors, so no splice of shared aggregates reproduces it
//     bit for bit; the term stays a fresh O(m·R) solve, O(m²·R) per run.
//
// The profile is validated once per run, not once per schedule.

// RunRounds executes the mechanism for a load served in `rounds`
// installments under the given division policy. rounds ≤ 1 is exactly
// Run/RunWithRule. It is a convenience wrapper over
// PaymentEngine.RunRoundsInto, so the referee's recomputation and the
// processors' payment engines agree by construction.
func (m Mechanism) RunRounds(bids, exec []float64, rounds int, policy dlt.RoundPolicy, rule PaymentRule) (*Outcome, error) {
	e := PaymentEngine{Network: m.Network, Z: m.Z}
	out := &Outcome{}
	if err := e.RunRoundsInto(bids, exec, rounds, policy, rule, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunRoundsInto executes the R-installment mechanism (see RunRounds) into
// out, whose slices are resized in place and reused. rounds ≤ 1 is
// RunInto. The result is bit-identical to re-solving every schedule from
// scratch, and after the first call at a given m and rounds the run
// performs no heap allocation.
func (e *PaymentEngine) RunRoundsInto(bids, exec []float64, rounds int, policy dlt.RoundPolicy, rule PaymentRule, out *Outcome) error {
	if rounds <= 1 {
		return e.RunInto(bids, exec, rule, out)
	}
	m := len(bids)
	if m < 2 {
		return errors.New("core: DLS-BL needs at least two agents")
	}
	if len(exec) != m {
		return fmt.Errorf("core: %d execution values for %d bids", len(exec), m)
	}
	for i := 0; i < m; i++ {
		if !(bids[i] > 0) || math.IsInf(bids[i], 0) {
			return fmt.Errorf("core: invalid bid b[%d]=%v", i, bids[i])
		}
		if !(exec[i] > 0) || math.IsInf(exec[i], 0) {
			return fmt.Errorf("core: invalid execution value w̃[%d]=%v", i, exec[i])
		}
	}
	// dlt.PipelinedAllocation's checks, in its order.
	in := dlt.Instance{Network: e.Network, Z: e.Z, W: bids}
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Network == dlt.NCPNFE {
		return dlt.ErrPipelinedNFE
	}
	e.grow(m)
	if err := dlt.RoundFractionsInto(reuseFloats(&e.per, rounds), policy); err != nil {
		return err
	}
	reuseFloats(&e.arr, rounds*m)
	reuseFloats(&e.subW, m-1)
	reuseFloats(&e.subA, m-1)
	reuseFloats(&e.subF, m-1)
	a := dlt.Allocation(reuseFloats((*[]float64)(&out.Alloc), m))
	out.Alloc = a
	comp := reuseFloats(&out.Compensation, m)
	bonus := reuseFloats(&out.Bonus, m)
	pay := reuseFloats(&out.Payment, m)
	val := reuseFloats(&out.Valuation, m)
	util := reuseFloats(&out.Utility, m)
	msWithout := reuseFloats(&out.MakespanWithout, m)
	msRealized := reuseFloats(&out.MakespanRealized, m)

	// The base schedule under the bids: the allocation, every finish time
	// and every chunk arrival, and the makespan the bids promise.
	dlt.PipelinedAllocationInto(in, a)
	dlt.MultiRoundFinishes(in, a, e.per, e.fin, e.arr)
	msBid := dlt.MaxFinish(e.fin)
	out.MakespanBid = msBid

	// Prefix/suffix maxima of the finish times, folded as dlt.MaxFinish
	// folds them (from 0, skipping NaN), so the realized makespans match
	// it bit for bit whatever the order.
	e.pmax[0] = 0
	for i := 0; i < m; i++ {
		e.pmax[i+1] = maxFinish(e.pmax[i], e.fin[i])
	}
	e.smax[m] = 0
	for i := m - 1; i >= 0; i-- {
		e.smax[i] = maxFinish(e.smax[i+1], e.fin[i])
	}

	// The leave-one-out survivors' bids, kept as bids without agent i by
	// one write per step: going from i−1 to i puts b_{i−1} back in slot
	// i−1.
	copy(e.subW, bids[1:])
	orig := e.Network.Originator(m)
	var userCost float64
	for i := 0; i < m; i++ {
		if i > 0 {
			e.subW[i-1] = bids[i-1]
		}
		// T_R(α_P(b_{-i}), b_{-i}); removing the NCP originator leaves a
		// CP system, as dlt.Instance.Without does.
		sub := dlt.Instance{Network: e.Network, Z: e.Z, W: e.subW}
		if i == orig {
			sub.Network = dlt.CP
		}
		dlt.PipelinedAllocationInto(sub, e.subA)
		dlt.MultiRoundFinishes(sub, e.subA, e.per, e.subF, nil)
		tWithout := dlt.MaxFinish(e.subF)

		// T_R(α_P(b), (b_{-i}, w̃_i)): only agent i's own finish moves.
		tRealized := msBid
		if rule == WithVerification {
			fi := e.replayFinish(a, exec[i], i, m)
			tRealized = maxFinish(maxFinish(e.pmax[i], e.smax[i+1]), fi)
		}
		msWithout[i] = tWithout
		msRealized[i] = tRealized
		comp[i] = a[i] * exec[i]
		bonus[i] = tWithout - tRealized
		pay[i] = comp[i] + bonus[i]
		val[i] = -a[i] * exec[i]
		util[i] = pay[i] + val[i]
		userCost += pay[i]
	}
	out.UserCost = userCost
	return nil
}

// replayFinish returns agent i's finish time in the base schedule when it
// executes at rate x: its chunks replayed from their stored arrivals with
// the arithmetic of dlt.MultiRoundFinishes.
func (e *PaymentEngine) replayFinish(a dlt.Allocation, x float64, i, m int) float64 {
	f := 0.0
	for r, p := range e.per {
		frac := p * a[i]
		if frac == 0 {
			continue
		}
		f = math.Max(e.arr[r*m+i], f) + x*frac
	}
	return f
}

// maxFinish is one step of dlt.MaxFinish's fold: x replaces t only when
// it is larger, so a NaN never does.
func maxFinish(t, x float64) float64 {
	if x > t {
		return x
	}
	return t
}
