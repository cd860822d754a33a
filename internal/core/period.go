package core

import (
	"math"

	"dlsbl/internal/dlt"
)

// Installment payments. A pipelined load (internal/pipeline) is allocated
// with the steady-state split α_P = dlt.PipelinedAllocation and served in
// installment sub-rounds. α_P minimizes the per-load period of the
// periodic steady state (Gallet, Robert & Vivien), the busy time of the
// busiest resource per unit of load:
//
//	P(α, w) = max(bus time, max_j α_j·w_j),
//
// where the bus time is z on CP and z·(1 − α_0) on NCP-FE, whose
// originator computes its own share in place. The period rule prices in
// P what Definition 3.1 prices in the makespan T:
//
//	allocation:    α_P(b)
//	compensation:  C_i = α_P,i(b)·w̃_i
//	bonus:         B_i = P(α_P(b_{-i}), b_{-i}) − P(α_P(b), (b_{-i}, w̃_i))
//
// Theorem 3.1's argument carries over because the allocation minimizes
// the quantity the bonus measures: α_P(w) minimizes P(·, w), so a bid
// b_i ≠ w_i only hands agent i a split whose realized period is no
// shorter, and executing slower than w_i never shortens it. Neither the
// installment count nor the division policy enters P, so every
// sub-round of a load charges the same unit price.
//
// Every term is closed form. With s the sum of 1/b_j over the survivors
// other than an NCP-FE originator,
//
//	CP survivors:     P(α_P(b), b) = max(z, 1/s)
//	NCP-FE survivors: P(α_P(b), b) = max(1/(1/b_0 + s), b_0·z/(b_0 + z))
//
// where the second NCP-FE term is the bus-bound regime, in which the
// originator takes α_0 = z/(b_0 + z). Removing the NCP-FE originator
// leaves CP survivors, as dlt.Instance.Without does. Each leave-one-out s
// is a prefix plus a suffix sum of 1/b_j, and each realized period
// substitutes α_i·w̃_i into a prefix and a suffix maximum of α_j·b_j, so
// a run is O(m) and, once the engine's buffers fit, allocates nothing.

// RunPeriod executes the period rule into a fresh Outcome; see
// PaymentEngine.RunPeriodInto.
func (m Mechanism) RunPeriod(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	e := PaymentEngine{Network: m.Network, Z: m.Z}
	out := &Outcome{}
	if err := e.RunPeriodInto(bids, exec, rule, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunPeriodInto executes the period rule, the mechanism of an
// installment sub-round, into out, whose slices are resized in place and
// reused; its Makespan fields hold periods. The class must be CP or
// NCP-FE. A product that feeds a sum is rounded by an explicit
// conversion, which forbids fusing the two into one instruction, so
// every architecture computes the same bits.
func (e *PaymentEngine) RunPeriodInto(bids, exec []float64, rule PaymentRule, out *Outcome) error {
	if err := checkProfile(bids, exec); err != nil {
		return err
	}
	// dlt.PipelinedAllocation's checks, in its order.
	in := dlt.Instance{Network: e.Network, Z: e.Z, W: bids}
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Network == dlt.NCPNFE {
		return dlt.ErrPipelinedNFE
	}
	m := len(bids)
	e.grow(m)
	a := dlt.Allocation(reuseFloats((*[]float64)(&out.Alloc), m))
	out.Alloc = a
	comp := reuseFloats(&out.Compensation, m)
	bonus := reuseFloats(&out.Bonus, m)
	pay := reuseFloats(&out.Payment, m)
	val := reuseFloats(&out.Valuation, m)
	util := reuseFloats(&out.Utility, m)
	msWithout := reuseFloats(&out.MakespanWithout, m)
	msRealized := reuseFloats(&out.MakespanRealized, m)
	dlt.PipelinedAllocationInto(in, a)

	// On NCP-FE the originator (processor 0) stays out of every s and its
	// share off the bus.
	z := e.Z
	first, bus := 0, z
	if e.Network == dlt.NCPFE {
		first, bus = 1, z*(1-a[0])
	}
	// pre/suf hold prefix and suffix sums of 1/b_j past the originator;
	// pmax/smax hold prefix and suffix maxima of the busy times
	// fin[j] = α_j·b_j, with the bus time folded into pmax[0].
	e.pre[0], e.pmax[0] = 0, bus
	for j := 0; j < m; j++ {
		e.fin[j] = a[j] * bids[j]
		r := 0.0
		if j >= first {
			r = 1 / bids[j]
		}
		e.pre[j+1] = e.pre[j] + r
		e.pmax[j+1] = math.Max(e.pmax[j], e.fin[j])
	}
	e.suf[m], e.smax[m] = 0, 0
	for j := m - 1; j >= 0; j-- {
		r := 0.0
		if j >= first {
			r = 1 / bids[j]
		}
		e.suf[j] = e.suf[j+1] + r
		e.smax[j] = math.Max(e.smax[j+1], e.fin[j])
	}
	msBid := e.pmax[m]
	out.MakespanBid = msBid
	var inv0, busBound float64
	if first == 1 {
		inv0, busBound = 1/bids[0], bids[0]*(z/(bids[0]+z))
	}

	var userCost float64
	for i := 0; i < m; i++ {
		// P(α_P(b_{-i}), b_{-i}): pre[0] and, on NCP-FE, pre[1] are 0, so
		// pre[i] + suf[i+1] is s for every survivor set.
		s := e.pre[i] + e.suf[i+1]
		var without float64
		if first == 0 || i == 0 {
			without = math.Max(z, 1/s)
		} else {
			without = math.Max(1/(inv0+s), busBound)
		}
		// P(α_P(b), (b_{-i}, w̃_i)): only agent i's busy time moves. The
		// conversion rounds it before it feeds c + bonus[i] (make
		// fma-guard).
		c := float64(a[i] * exec[i])
		realized := msBid
		if rule == WithVerification {
			realized = math.Max(math.Max(e.pmax[i], e.smax[i+1]), c)
		}
		msWithout[i] = without
		msRealized[i] = realized
		comp[i] = c
		bonus[i] = without - realized
		pay[i] = c + bonus[i]
		val[i] = -c
		// U_i = Q_i + V_i is B_i, as in RunInto.
		util[i] = bonus[i]
		userCost += pay[i]
	}
	out.UserCost = userCost
	return nil
}
