package core

import (
	"fmt"
	"sort"

	"dlsbl/internal/dlt"
)

// AffineMechanism applies the DLS-BL payment rule on top of the
// affine-cost allocation (dlt.OptimalAffine): fixed per-transfer and
// per-computation overheads are public infrastructure parameters, agents
// still bid a single private w. With overheads it can be optimal to
// leave slow processors out, so the allocation rule acquires a
// PARTICIPATION THRESHOLD — a structural feature the linear model lacks,
// and a known danger zone for incentives. Whether strategyproofness
// survives is an empirical question this type exists to answer
// (experiment X12); the construction mirrors Mechanism exactly.
//
// An agent's processing cost keeps the paper's linear form α_i·w̃_i (the
// fixed overheads are infrastructure time, not agent effort), so the
// utility again collapses to the bonus.
type AffineMechanism struct {
	Network dlt.Network
	Z       float64
	Scm     float64 // fixed per-transfer overhead (public)
	Scp     float64 // fixed per-computation overhead (public)
}

// Run executes the affine mechanism on a bid profile and execution
// values.
func (m AffineMechanism) Run(bids, exec []float64) (*Outcome, error) {
	if err := checkProfile(bids, exec); err != nil {
		return nil, err
	}
	base := dlt.Instance{Network: m.Network, Z: m.Z, W: bids}
	alloc, msBid, err := dlt.OptimalAffine(dlt.AffineInstance{Instance: base, Scm: m.Scm, Scp: m.Scp})
	if err != nil {
		return nil, err
	}
	// The affine allocation has no closed chain form (the participation
	// threshold couples every marginal re-solve), so each T_{-i} is a
	// re-solve of its own.
	return leaveOneOut(bids, exec, alloc, msBid,
		func(i int) (float64, error) {
			sub, err := base.Without(i)
			if err != nil {
				return 0, err
			}
			_, t, err := dlt.OptimalAffine(dlt.AffineInstance{Instance: sub, Scm: m.Scm, Scp: m.Scp})
			return t, err
		},
		func(_ int, speeds []float64) (float64, error) {
			return m.makespanAt(alloc, bids, speeds)
		})
}

// makespanAt evaluates the affine finishing times of a FIXED allocation
// under the given speeds. The fixed overheads hit only processors with
// load, and the transfers run in the SAME public service order the
// allocation rule uses — participants sorted by bid ascending, with the
// NCP originator pinned to its structural slot. Evaluating under any
// other order would spuriously inflate the realized makespan and distort
// every bonus.
func (m AffineMechanism) makespanAt(alloc dlt.Allocation, bids, speeds []float64) (float64, error) {
	n := len(alloc)
	orig := m.Network.Originator(n)
	var served []int // non-originator participants in service order
	for i := 0; i < n; i++ {
		if i != orig && alloc[i] > 0 {
			served = append(served, i)
		}
	}
	sort.SliceStable(served, func(a, b int) bool { return bids[served[a]] < bids[served[b]] })

	ms := 0.0
	record := func(t float64) {
		if t > ms {
			ms = t
		}
	}
	var comm float64
	switch m.Network {
	case dlt.CP:
		for _, i := range served {
			comm += m.Scm + m.Z*alloc[i]
			record(comm + m.Scp + alloc[i]*speeds[i])
		}
	case dlt.NCPFE:
		if alloc[orig] > 0 {
			record(m.Scp + alloc[orig]*speeds[orig])
		}
		for _, i := range served {
			comm += m.Scm + m.Z*alloc[i]
			record(comm + m.Scp + alloc[i]*speeds[i])
		}
	case dlt.NCPNFE:
		for _, i := range served {
			comm += m.Scm + m.Z*alloc[i]
			record(comm + m.Scp + alloc[i]*speeds[i])
		}
		if alloc[orig] > 0 {
			record(comm + m.Scp + alloc[orig]*speeds[orig])
		}
	default:
		return 0, fmt.Errorf("core: unknown network %v", m.Network)
	}
	return ms, nil
}
