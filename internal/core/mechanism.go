// Package core implements the paper's primary contribution: the DLS-BL
// compensation-and-bonus mechanism with verification for one-parameter
// agents (Section 3), which DLS-BL-NCP (Section 4, internal/protocol)
// executes in a distributed fashion.
//
// Each agent i privately knows its true per-unit processing time t_i = w_i,
// reports a bid b_i, and after receiving its load fraction executes it at
// an observed execution value w̃_i ≥ w_i. The mechanism computes
//
//	allocation:    α(b)  — the DLT-optimal split for the bid profile
//	compensation:  C_i(b, w̃) = α_i(b)·w̃_i
//	bonus:         B_i(b, w̃) = T(α(b_{-i}), b_{-i}) − T(α(b), (b_{-i}, w̃_i))
//	payment:       Q_i = C_i + B_i
//
// The agent's valuation is V_i = −α_i(b)·w̃_i (its processing cost), so its
// utility U_i = Q_i + V_i collapses to the bonus B_i: the difference
// between the optimal makespan without it and the makespan it actually
// delivers. Theorem 3.1 (strategyproofness) and Theorem 3.2 (voluntary
// participation) follow; the checkers in verify.go measure both.
package core

import (
	"fmt"
	"math"

	"dlsbl/internal/dlt"
)

// Mechanism is a DLS-BL instance: the network class the processors form
// and the per-unit communication time z. The zero value is not useful;
// construct with the fields set.
type Mechanism struct {
	Network dlt.Network
	Z       float64
}

// PaymentRule selects how the bonus term treats the observed execution
// values. WithVerification is the paper's rule; WithoutVerification is the
// ablation of experiment E12, which evaluates the realized makespan at the
// *bids*, removing the incentive to execute at full speed.
type PaymentRule int

const (
	// WithVerification evaluates the realized makespan at (b_{-i}, w̃_i),
	// the mechanism-with-verification of Definition 3.1.
	WithVerification PaymentRule = iota
	// WithoutVerification evaluates it at the bid vector b, ignoring the
	// meters. Only the ablation benches use it.
	WithoutVerification
)

// String names the rule.
func (r PaymentRule) String() string {
	if r == WithVerification {
		return "verified"
	}
	return "unverified"
}

// Outcome is the full result of running the mechanism on a bid profile and
// the subsequently observed execution values.
type Outcome struct {
	Alloc dlt.Allocation // α(b)

	// Per-agent components, indexed like the bid vector.
	Compensation []float64 // C_i = α_i·w̃_i
	Bonus        []float64 // B_i
	Payment      []float64 // Q_i = C_i + B_i
	Valuation    []float64 // V_i = −α_i·w̃_i
	Utility      []float64 // U_i = Q_i + V_i = B_i

	// The Makespan fields hold the makespan T of a whole-load run, and
	// the per-load period P of an installment run (RunPeriodInto).

	// MakespanBid is T(α(b), b): what the schedule promises if everyone
	// executes at its bid.
	MakespanBid float64
	// MakespanWithout[i] is T(α(b_{-i}), b_{-i}): the optimal makespan of
	// the system without agent i, the baseline of its bonus.
	MakespanWithout []float64
	// MakespanRealized[i] is T(α(b), (b_{-i}, w̃_i)): the makespan agent
	// i actually delivers given its observed execution value.
	MakespanRealized []float64
	// UserCost is Σ_i Q_i, the bill forwarded to the user.
	UserCost float64
}

// leaveOneOut prices a centralized variant of DLS-BL (the star, the chain,
// affine costs, two-parameter bids) by Section 3's recipe (the package
// comment), one agent at a time: PaymentEngine.RunInto is its O(m) form
// on the bus. The variant
// supplies α(b) and T(α(b), b); without(i) returns T(α(b_{-i}), b_{-i}),
// and realized(i, speeds) the makespan of α(b) run at speeds, the bids
// with w̃_i in agent i's place (realized must not keep speeds). The loop
// fails closed: a non-finite share, makespan or user cost is an error,
// never a payment.
func leaveOneOut(bids, exec []float64, alloc dlt.Allocation, msBid float64,
	without func(i int) (float64, error), realized func(i int, speeds []float64) (float64, error)) (*Outcome, error) {
	n := len(bids)
	if !finite(msBid) {
		return nil, fmt.Errorf("core: non-finite makespan T(α(b), b)=%v", msBid)
	}
	for i, a := range alloc {
		if !finite(a) {
			return nil, fmt.Errorf("core: non-finite share α[%d]=%v", i, a)
		}
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
		tWithout, err := without(i)
		if err != nil {
			return nil, err
		}
		copy(speeds, bids)
		speeds[i] = exec[i]
		tRealized, err := realized(i, speeds)
		if err != nil {
			return nil, err
		}
		if !finite(tWithout) || !finite(tRealized) {
			return nil, fmt.Errorf("core: agent %d: non-finite makespan T_{-i}=%v, realized %v", i, tWithout, tRealized)
		}
		// The conversion rounds C before the sum (Go may otherwise fuse
		// α_i·w̃_i + B_i), so Q = C + B holds in the last bit everywhere.
		c := float64(alloc[i] * exec[i])
		b := tWithout - tRealized
		out.MakespanWithout[i] = tWithout
		out.MakespanRealized[i] = tRealized
		out.Compensation[i] = c
		out.Bonus[i] = b
		out.Payment[i] = c + b
		out.Valuation[i] = -c
		out.Utility[i] = b
		out.UserCost += out.Payment[i]
	}
	if !finite(out.UserCost) {
		return nil, fmt.Errorf("core: non-finite user cost %v", out.UserCost)
	}
	return out, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Run executes DLS-BL: computes α(b), then, once the execution values w̃
// are observed, every payment component. bids[i] must be positive and
// exec[i] ≥ bids[i] is NOT required (an agent may execute faster than it
// bid; the bonus then rewards it), but exec[i] must be positive. At least
// two agents are required: the bonus of a lone agent compares against an
// empty system, which has no finite makespan.
//
// Run computes all m marginal economies and realized makespans in O(m)
// total via the prefix/suffix payment engine (see payments.go); the
// per-agent re-solve it replaces lives on in the tests as the O(m²)
// oracle.
// Callers that run the mechanism repeatedly (experiments, protocol
// rounds, repeated-play dynamics) should hold a PaymentEngine and use
// RunInto to avoid per-run allocations entirely.
func (m Mechanism) Run(bids, exec []float64) (*Outcome, error) {
	return m.run(bids, exec, WithVerification)
}

// RunWithRule is Run with an explicit payment rule; see PaymentRule.
func (m Mechanism) RunWithRule(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	return m.run(bids, exec, rule)
}

func (m Mechanism) run(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	e := PaymentEngine{Network: m.Network, Z: m.Z}
	return e.Run(bids, exec, rule)
}

// NewEngine returns a PaymentEngine for this mechanism, for callers that
// want the zero-allocation RunInto hot path across repeated runs.
func (m Mechanism) NewEngine() *PaymentEngine {
	return NewPaymentEngine(m.Network, m.Z)
}

// TruthfulExec returns the execution vector a rational agent picks given
// its true speed: it executes at full capacity, w̃_i = w_i, because slower
// execution only shrinks the bonus. An agent physically cannot run faster
// than its true speed, so when a bid claims b_i < w_i the observed value
// is still w_i.
func TruthfulExec(trueW []float64) []float64 {
	return append([]float64(nil), trueW...)
}
