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
// or NCP-FE instance. It is the allocation-free form the payment
// engine's period rule runs on an already validated profile.
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

// RoundFractions returns the per-round load fractions for the policy:
// rounds entries, each positive, summing to 1.
func RoundFractions(rounds int, policy RoundPolicy) ([]float64, error) {
	if rounds < 1 {
		return nil, errors.New("dlt: rounds must be >= 1")
	}
	per := make([]float64, rounds)
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
		return nil, fmt.Errorf("dlt: unknown round policy %d", int(policy))
	}
	return per, nil
}
