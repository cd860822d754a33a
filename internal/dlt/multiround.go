package dlt

import (
	"errors"
	"fmt"
	"math"
)

// Multi-round extension. Single-round bus scheduling forces the last
// processor to idle until its entire fraction arrives. Splitting the load
// into R installments lets every processor start on a small chunk early —
// the idea behind the multi-round algorithms the paper cites as related
// work (Yang, van der Raadt & Casanova). This module provides a
// simulation-exact multi-round schedule builder; it supports the CP and
// NCP-FE classes (the NFE originator cannot overlap transmission with
// computation, so multi-round degenerates to single-round there). The
// builder is shared by the ablation benches and, since the pipelined
// scheduler landed, by the distributed protocol's installment rounds.

// RoundPolicy chooses how the unit load is divided across rounds.
type RoundPolicy int

const (
	// EqualRounds gives every round the same total fraction 1/R.
	EqualRounds RoundPolicy = iota
	// GeometricRounds makes round r+1 twice the size of round r, so early
	// rounds are small (fast pipeline fill) and later rounds amortize.
	GeometricRounds
)

// String names the policy.
func (p RoundPolicy) String() string {
	if p == EqualRounds {
		return "equal"
	}
	return "geometric"
}

// ParseRoundPolicy maps a policy name ("equal" or "geometric") back to
// its RoundPolicy, the inverse of String.
func ParseRoundPolicy(s string) (RoundPolicy, error) {
	switch s {
	case "equal":
		return EqualRounds, nil
	case "geometric":
		return GeometricRounds, nil
	}
	return 0, fmt.Errorf("dlt: unknown round policy %q", s)
}

// InstallmentFeasible reports whether a load on the given network class
// can be served in the given number of installment rounds. Any network
// accepts a single round; more than one requires an originator that
// overlaps transmission with computation (CP or NCP-FE).
func InstallmentFeasible(n Network, rounds int) error {
	if rounds < 1 {
		return errors.New("dlt: rounds must be >= 1")
	}
	if rounds > 1 && n == NCPNFE {
		return errors.New("dlt: multi-round requires an overlapping originator (CP or NCP-FE)")
	}
	return nil
}

// MultiRound builds an R-round schedule: each round's total fraction is
// chosen by the policy and split across processors in the single-round
// optimal proportions. Within a round the bus serves processors in index
// order; a processor executes chunks in arrival order, back-to-back when
// possible. Returns the explicit timeline.
func MultiRound(in Instance, rounds int, policy RoundPolicy) (Timeline, error) {
	prop, err := Optimal(in)
	if err != nil {
		return Timeline{}, err
	}
	return MultiRoundSchedule(in, prop, rounds, policy)
}

// MultiRoundSchedule builds the R-round timeline for an explicit
// per-processor allocation (fractions summing to 1). MultiRound is the
// common case of the single-round optimal allocation; the pipelined
// protocol passes the realized allocation from a live round instead.
func MultiRoundSchedule(in Instance, a Allocation, rounds int, policy RoundPolicy) (Timeline, error) {
	if err := in.Validate(); err != nil {
		return Timeline{}, err
	}
	if err := InstallmentFeasible(in.Network, rounds); err != nil {
		return Timeline{}, err
	}
	if len(a) != in.M() {
		return Timeline{}, fmt.Errorf("dlt: allocation has %d entries for %d processors", len(a), in.M())
	}
	per, err := RoundFractions(rounds, policy)
	if err != nil {
		return Timeline{}, err
	}
	m := in.M()
	// At most one transfer and one computation per processor and round.
	tl := Timeline{Instance: in.Clone(), Spans: make([]Span, 0, 2*m*rounds)}
	bus := 0.0
	procFree := make([]float64, m)
	for r := 0; r < rounds; r++ {
		for i := 0; i < m; i++ {
			frac := per[r] * a[i]
			if frac == 0 {
				continue
			}
			arrival := 0.0
			if in.Network == NCPFE && i == 0 {
				// The originator's chunk never crosses the bus.
			} else {
				end := bus + in.Z*frac
				tl.Spans = append(tl.Spans, Span{Proc: i, Kind: Comm, Start: bus, End: end, Frac: frac, Round: r, BusOwner: true})
				bus = end
				arrival = end
			}
			start := math.Max(arrival, procFree[i])
			end := start + in.W[i]*frac
			tl.Spans = append(tl.Spans, Span{Proc: i, Kind: Comp, Start: start, End: end, Frac: frac, Round: r})
			procFree[i] = end
		}
	}
	for _, s := range tl.Spans {
		if s.End > tl.Makespan {
			tl.Makespan = s.End
		}
	}
	return tl, nil
}

// PipelinedAllocation computes the steady-state throughput-optimal load
// split for installment pipelining: the allocation minimizing the
// bottleneck resource occupancy per load, max(bus time, max_i w_i·α_i).
// In the single-round optimum the first-served processor computes for the
// entire makespan, so back-to-back loads leave a pipelined scheduler no
// room to improve; the balanced allocation instead equalizes per-load
// busy time across processors (α_i ∝ 1/w_i) — the steady-state principle
// of the multi-load literature (Gallet, Robert & Vivien; Cao, Wu &
// Robertazzi) — shrinking the bottleneck per-load cost toward the fluid
// bound 1/Σ(1/w_i). When the bus is the scarce resource (z·Σ_{i≠0}1/w_i
// > 1 on NCP-FE), the originator absorbs load until its computation and
// the bus drain in lockstep.
func PipelinedAllocation(in Instance) (Allocation, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Network == NCPNFE {
		return nil, ErrPipelinedNFE
	}
	a := make(Allocation, in.M())
	PipelinedAllocationInto(in, a)
	return a, nil
}

// ErrPipelinedNFE is PipelinedAllocation's answer for an NCP-NFE
// instance, whose originator cannot overlap transmission with
// computation.
var ErrPipelinedNFE = errors.New("dlt: pipelined allocation requires an overlapping originator (CP or NCP-FE)")

// PipelinedAllocationInto writes PipelinedAllocation(in) into a, which
// must have in.M() entries, and validates nothing: in must be a valid CP
// or NCP-FE instance. It is the allocation-free form the payment engine
// runs once per leave-one-out instance of an already validated profile.
func PipelinedAllocationInto(in Instance, a Allocation) {
	m := in.M()
	if in.Network == NCPFE {
		s := 0.0
		for i := 1; i < m; i++ {
			s += 1 / in.W[i]
		}
		if in.Z*s <= 1 {
			// Compute-bound: every processor, originator included, works
			// the same per-load time t = 1/Σ(1/w_i); the bus drains its
			// z·(1−α_0) within t.
			t := 1 / (1/in.W[0] + s)
			for i := range a {
				a[i] = t / in.W[i]
			}
		} else {
			// Bus-bound: the originator takes load until its computation
			// w_0·α_0 matches the bus's z·(1−α_0); the rest splits ∝ 1/w.
			a[0] = in.Z / (in.W[0] + in.Z)
			for i := 1; i < m; i++ {
				a[i] = (1 - a[0]) / (in.W[i] * s)
			}
		}
	} else {
		// CP: no computing originator; balancing the workers' busy times
		// gives α_i ∝ 1/w_i in both the compute- and bus-bound cases.
		s := 0.0
		for i := range a {
			s += 1 / in.W[i]
		}
		for i := range a {
			a[i] = 1 / (in.W[i] * s)
		}
	}
	sum := 0.0
	for _, x := range a {
		sum += x
	}
	for i := range a {
		a[i] /= sum
	}
}

// MultiRoundMakespanWithSpeeds evaluates the R-installment greedy
// schedule's makespan for a FIXED allocation when the processors execute
// at the given speeds (communication still at the instance's bids-derived
// fractions and bus rate). This is the multi-round analogue of
// MakespanWithSpeeds, used by the payment rule's realized-makespan term.
func MultiRoundMakespanWithSpeeds(in Instance, a Allocation, rounds int, policy RoundPolicy, speeds []float64) (float64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if err := InstallmentFeasible(in.Network, rounds); err != nil {
		return 0, err
	}
	m := in.M()
	if len(a) != m || len(speeds) != m {
		return 0, fmt.Errorf("dlt: allocation/speeds have %d/%d entries for %d processors", len(a), len(speeds), m)
	}
	per, err := RoundFractions(rounds, policy)
	if err != nil {
		return 0, err
	}
	run := in.Clone()
	run.W = append([]float64(nil), speeds...)
	f := make([]float64, m)
	MultiRoundFinishes(run, a, per, f, nil)
	return MaxFinish(f), nil
}

// MaxFinish returns the makespan of a finish-time vector: its largest
// entry, or 0 when none is positive. A NaN entry is skipped.
func MaxFinish(f []float64) float64 {
	t := 0.0
	for _, fi := range f {
		if fi > t {
			t = fi
		}
	}
	return t
}

// MultiRoundFinishes fills f with each processor's finish time in the
// greedy installment schedule of allocation a, served in len(per) rounds
// of the given per-round fractions — the span-free core of
// MultiRoundSchedule. It validates nothing: in must be a valid instance
// and a and f must have in.M() entries. A non-nil arr (len ≥
// in.M()·len(per)) also receives each chunk's arrival time, arr[r·m+i]
// for processor i's round-r chunk (0 for a chunk that never crosses the
// bus); a chunk of zero size is skipped and leaves its slot as it was.
// The bus is fixed by the allocation alone, so a processor's finish time
// depends only on its own speed and these arrivals.
func MultiRoundFinishes(in Instance, a Allocation, per, f, arr []float64) {
	m := in.M()
	w, a, f := in.W[:m], a[:m], f[:m]
	clear(f)
	// NCP-FE's originator (processor 0) computes its chunks in place: they
	// arrive at 0 and never occupy the bus.
	first := 0
	if in.Network == NCPFE {
		first = 1
	}
	bus := 0.0
	for r, p := range per {
		if first == 1 {
			if frac := p * a[0]; frac != 0 {
				if arr != nil {
					arr[r*m] = 0
				}
				f[0] = maxFloat(0, f[0]) + w[0]*frac
			}
		}
		for i := first; i < m; i++ {
			frac := p * a[i]
			if frac == 0 {
				continue
			}
			bus += in.Z * frac
			if arr != nil {
				arr[r*m+i] = bus
			}
			f[i] = maxFloat(bus, f[i]) + w[i]*frac
		}
	}
}

// maxFloat is math.Max(x, y) bit for bit, with the ordered cases inline
// (MultiRoundFinishes calls it once per chunk); equal operands, ±0 and
// NaN take math.Max's own path.
func maxFloat(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}

// RoundFractions returns the per-round load fractions for the policy:
// rounds entries, each positive, summing to 1.
func RoundFractions(rounds int, policy RoundPolicy) ([]float64, error) {
	if rounds < 1 {
		return nil, errors.New("dlt: rounds must be >= 1")
	}
	per := make([]float64, rounds)
	if err := RoundFractionsInto(per, policy); err != nil {
		return nil, err
	}
	return per, nil
}

// RoundFractionsInto writes RoundFractions(len(per), policy) into per.
func RoundFractionsInto(per []float64, policy RoundPolicy) error {
	rounds := len(per)
	switch policy {
	case EqualRounds:
		for r := range per {
			per[r] = 1 / float64(rounds)
		}
	case GeometricRounds:
		// per[r] ∝ 2^r, normalized.
		total := math.Exp2(float64(rounds)) - 1
		for r := range per {
			per[r] = math.Exp2(float64(r)) / total
		}
	default:
		return fmt.Errorf("dlt: unknown round policy %d", int(policy))
	}
	return nil
}
