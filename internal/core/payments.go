package core

import (
	"errors"
	"fmt"
	"math"

	"dlsbl/internal/dlt"
)

// This file implements the O(m) payment engine for DLS-BL.
//
// The naive payment computation (kept in the tests as the differential
// oracle) re-solves the DLT recursion from scratch for every agent: the bonus
// term B_i = T(α(b_{-i}), b_{-i}) − T(α(b), (b_{-i}, w̃_i)) needs the
// optimal makespan of the system WITHOUT agent i and the realized
// makespan with agent i's speed substituted, and doing each from scratch
// costs O(m) per agent, O(m²) per mechanism run — the hot loop of every
// experiment sweep, the protocol simulator and repeated-play dynamics.
//
// The engine exploits the product-chain structure of the closed forms
// (Algorithms 2.1/2.2): the equal-finish optimum has unnormalized
// fractions p_0 = 1, p_{j+1} = p_j·k_j with k_j = w_j/(z + w_{j+1}), the
// allocation is α_j = p_j/S with S = Σ_j p_j, and the optimal makespan is
// the head processor's finish time, c·p_head/S with the class-dependent
// head constant c (z + w_head for CP and NCP-NFE, w_head for NCP-FE's
// front-ended originator).
//
// Marginal economies in O(1) each. Deleting an interior agent i splices
// the chain: positions j < i keep their products, and every position
// j > i is rescaled by the SAME factor
//
//	ρ_i = (w_{i-1}/(z + w_{i+1})) · p_{i-1}/p_{i+1} = (z + w_i)/w_i,
//
// because the bridge ratio k'_i = w_{i-1}/(z + w_{i+1}) replaces the pair
// k_{i-1}·k_i and everything telescopes — including the front-end-less
// originator's final link w_{m-2}/w_{m-1}, whose numerator cancels the
// same way. So with prefix sums Pre_i = Σ_{j<i} p_j and suffix sums
// Suf_i = Σ_{j≥i} p_j precomputed once,
//
//	S_{-i} = Pre_i + ρ_i·Suf_{i+1},   T_{-i} = c·p_head/S_{-i},
//
// and the originator-removal cases (NCP→CP degeneration in
// Instance.Without) only change the head constant and which prefix/suffix
// the splice keeps. Every quantity is a ratio of same-scale chain
// products, so the uniform rescaling done by dlt.ChainProducts for large
// m cancels out.
//
// Realized makespans in O(1) each. The substitution (b_{-i}, w̃_i) only
// moves agent i's own finish time: T_j is unchanged for j ≠ i because the
// allocation (hence all bus terms) is fixed by the bids. With the finish
// times under the bids and their prefix/suffix maxima precomputed,
//
//	T(α(b), (b_{-i}, w̃_i)) = max(max_{j≠i} T_j(b), base_i + α_i·w̃_i),
//
// where base_i is agent i's communication-completion offset. This is
// bit-identical to re-evaluating dlt.MakespanWithSpeeds.

// PaymentEngine computes all m payment components of DLS-BL in O(m) time
// and, after the first call at a given m, with zero heap allocations: all
// intermediate aggregates live in scratch buffers owned by the engine and
// the results are written into a caller-provided Outcome whose slices are
// reused in place. An engine is NOT safe for concurrent use; create one
// per goroutine (the zero value with Network/Z set is ready to use).
type PaymentEngine struct {
	Network dlt.Network
	Z       float64

	// Scratch buffers, grown on demand and reused across runs. The period
	// rule (RunPeriodInto) sums 1/b_j in pre and suf and keeps the busy
	// times α_j·b_j in fin.
	prod []float64 // scaled chain products p_j (dlt.ChainProducts)
	exps []int     // exponent track for ChainProducts renormalization
	pre  []float64 // pre[i] = Σ_{j<i} prod[j], len m+1
	suf  []float64 // suf[i] = Σ_{j≥i} prod[j], len m+1
	fin  []float64 // finish times under the bids
	base []float64 // communication-completion offset of each processor
	pmax []float64 // pmax[i] = max(fin[0..i-1]), len m+1, pmax[0] = -Inf
	smax []float64 // smax[i] = max(fin[i..m-1]), len m+1, smax[m] = -Inf
}

// NewPaymentEngine returns an engine for the given network class and
// per-unit communication time.
func NewPaymentEngine(net dlt.Network, z float64) *PaymentEngine {
	return &PaymentEngine{Network: net, Z: z}
}

func (e *PaymentEngine) grow(m int) {
	if cap(e.prod) < m {
		e.prod = make([]float64, m)
		e.exps = make([]int, m)
		e.fin = make([]float64, m)
		e.base = make([]float64, m)
	}
	e.prod = e.prod[:m]
	e.exps = e.exps[:m]
	e.fin = e.fin[:m]
	e.base = e.base[:m]
	if cap(e.pre) < m+1 {
		e.pre = make([]float64, m+1)
		e.suf = make([]float64, m+1)
		e.pmax = make([]float64, m+1)
		e.smax = make([]float64, m+1)
	}
	e.pre = e.pre[:m+1]
	e.suf = e.suf[:m+1]
	e.pmax = e.pmax[:m+1]
	e.smax = e.smax[:m+1]
}

// reuseFloats resizes *s to n reusing capacity, allocating only on growth.
func reuseFloats(s *[]float64, n int) []float64 {
	if cap(*s) < n {
		*s = make([]float64, n)
	}
	*s = (*s)[:n]
	return *s
}

// Run is a convenience wrapper that allocates a fresh Outcome.
func (e *PaymentEngine) Run(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	out := &Outcome{}
	if err := e.RunInto(bids, exec, rule, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunInto executes DLS-BL on the bid profile and observed execution
// values, writing every payment component into out (whose slices are
// resized in place and reused). It is the allocation-free hot path behind
// Mechanism.Run; semantics are identical to the naive O(m²) computation
// up to floating-point rounding in MakespanWithout.
func (e *PaymentEngine) RunInto(bids, exec []float64, rule PaymentRule, out *Outcome) error {
	if err := checkProfile(bids, exec); err != nil {
		return err
	}
	if math.IsNaN(e.Z) || math.IsInf(e.Z, 0) || e.Z < 0 {
		return fmt.Errorf("dlt: invalid communication time z=%v", e.Z)
	}
	if e.Network != dlt.CP && e.Network != dlt.NCPFE && e.Network != dlt.NCPNFE {
		return fmt.Errorf("dlt: unknown network class %d", int(e.Network))
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

	z := e.Z

	// Chain products (uniformly scaled for large m) and the allocation.
	S := dlt.ChainProducts(e.Network, z, bids, e.prod, e.exps)
	for i := 0; i < m; i++ {
		a[i] = e.prod[i] / S
	}

	// Finish times under the bids, mirroring dlt.FinishTimes exactly, plus
	// each processor's communication-completion offset base[i].
	switch e.Network {
	case dlt.CP:
		var comm float64
		for i := 0; i < m; i++ {
			comm += z * a[i]
			e.base[i] = comm
			e.fin[i] = comm + a[i]*bids[i]
		}
	case dlt.NCPFE:
		e.base[0] = 0
		e.fin[0] = a[0] * bids[0]
		var comm float64
		for i := 1; i < m; i++ {
			comm += z * a[i]
			e.base[i] = comm
			e.fin[i] = comm + a[i]*bids[i]
		}
	case dlt.NCPNFE:
		var comm float64
		for i := 0; i < m-1; i++ {
			comm += z * a[i]
			e.base[i] = comm
			e.fin[i] = comm + a[i]*bids[i]
		}
		e.base[m-1] = comm
		e.fin[m-1] = comm + a[m-1]*bids[m-1]
	}

	// Prefix/suffix aggregates: product sums for the marginal economies,
	// finish-time maxima for the realized makespans.
	e.pre[0] = 0
	e.pmax[0] = math.Inf(-1)
	for i := 0; i < m; i++ {
		e.pre[i+1] = e.pre[i] + e.prod[i]
		e.pmax[i+1] = math.Max(e.pmax[i], e.fin[i])
	}
	e.suf[m] = 0
	e.smax[m] = math.Inf(-1)
	for i := m - 1; i >= 0; i-- {
		e.suf[i] = e.suf[i+1] + e.prod[i]
		e.smax[i] = math.Max(e.smax[i+1], e.fin[i])
	}
	msBid := e.pmax[m]
	out.MakespanBid = msBid

	var userCost float64
	for i := 0; i < m; i++ {
		// T(α(b_{-i}), b_{-i}): splice the precomputed aggregates.
		msWithout[i] = e.marginalMakespan(bids, i)

		// T(α(b), (b_{-i}, w̃_i)): only agent i's own finish time moves.
		var tRealized float64
		if rule == WithVerification {
			ti := e.base[i] + a[i]*exec[i]
			tRealized = math.Max(math.Max(e.pmax[i], e.smax[i+1]), ti)
		} else {
			tRealized = msBid
		}
		msRealized[i] = tRealized

		c := a[i] * exec[i]
		comp[i] = c
		bonus[i] = msWithout[i] - tRealized
		pay[i] = c + bonus[i]
		val[i] = -c
		// U_i = Q_i + V_i collapses to B_i exactly; computing it in that
		// form avoids the (C+B)−C cancellation noise of the naive path,
		// so utility curves that are constant in w̃ (e.g. the E12
		// unverified ablation) come out exactly constant.
		util[i] = bonus[i]
		userCost += pay[i]
	}
	out.UserCost = userCost
	return nil
}

// checkProfile rejects what no DLS-BL rule can price: fewer than two
// agents, an execution value per bid missing or extra, and a bid or
// execution value that is not positive and finite.
func checkProfile(bids, exec []float64) error {
	if len(bids) < 2 {
		return errors.New("core: DLS-BL needs at least two agents")
	}
	if len(exec) != len(bids) {
		return fmt.Errorf("core: %d execution values for %d bids", len(exec), len(bids))
	}
	for i := range bids {
		if !(bids[i] > 0) || math.IsInf(bids[i], 0) {
			return fmt.Errorf("core: invalid bid b[%d]=%v", i, bids[i])
		}
		if !(exec[i] > 0) || math.IsInf(exec[i], 0) {
			return fmt.Errorf("core: invalid execution value w̃[%d]=%v", i, exec[i])
		}
	}
	return nil
}

// marginalMakespan returns T(α(b_{-i}), b_{-i}), the optimal makespan of
// the system without agent i, in O(1) from the precomputed aggregates.
// The cases follow dlt.Instance.Without: removing a non-originator keeps
// the class; removing an NCP originator degenerates the system to CP over
// the remaining processors (same chain products, CP head constant).
func (e *PaymentEngine) marginalMakespan(bids []float64, i int) float64 {
	m := len(bids)
	z := e.Z
	switch e.Network {
	case dlt.CP:
		if i == 0 {
			// New head is processor 1; its product anchors the subchain.
			return (z + bids[1]) * e.prod[1] / e.suf[1]
		}
		return (z + bids[0]) * e.prod[0] / e.splicedSum(bids, i)
	case dlt.NCPFE:
		if i == 0 {
			// Originator removed: CP over processors 1..m-1.
			return (z + bids[1]) * e.prod[1] / e.suf[1]
		}
		// Front-ended originator stays the head: T = α_1·w_1.
		return bids[0] * e.prod[0] / e.splicedSum(bids, i)
	default: // dlt.NCPNFE
		switch {
		case i == m-1:
			// Originator removed: CP over processors 0..m-2, whose chain
			// products coincide with the NFE ones on that prefix.
			return (z + bids[0]) * e.prod[0] / e.pre[m-1]
		case i == 0:
			if m == 2 {
				// Only the front-end-less originator remains: it holds the
				// load already, so T = w_m with no communication term.
				return bids[1]
			}
			return (z + bids[1]) * e.prod[1] / e.suf[1]
		default:
			return (z + bids[0]) * e.prod[0] / e.splicedSum(bids, i)
		}
	}
}

// splicedSum returns S_{-i} = Pre_i + ρ_i·Suf_{i+1} for an interior or
// tail removal (i ≥ 1), with ρ_i = (z + w_i)/w_i the telescoped rescale
// of every product past the splice.
func (e *PaymentEngine) splicedSum(bids []float64, i int) float64 {
	s := e.pre[i]
	if i+1 < len(bids) {
		s += (e.Z + bids[i]) / bids[i] * e.suf[i+1]
	}
	return s
}
