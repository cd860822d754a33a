package core

import "dlsbl/internal/dlt"

// TwoParamStarMechanism drops the one-parameter restriction the entire
// paper rests on: agents on a star network bid BOTH their processing time
// w AND their link time z. The natural generalization keeps the DLS-BL
// payment shape — serve in reported-z order, split equal-finish, pay
// compensation plus marginal-contribution bonus — but now a bid can buy a
// better SERVICE SLOT, which a one-dimensional bid never could.
//
// Archer–Tardos style constructions only cover single-parameter agents,
// and Nisan–Ronen showed multi-parameter scheduling mechanisms are
// fundamentally harder; this type exists to measure the failure
// empirically (experiment X15) rather than assume it. Transfers are
// observable on the wire, so the realized makespan uses the deviator's
// ACTUAL link time — the analogue of the execution meter.
type TwoParamStarMechanism struct{}

// RunTwoParam executes the mechanism: bidW/bidZ are the reported
// parameters, execW the observed processing rates, actualZ the observed
// link times.
func (TwoParamStarMechanism) RunTwoParam(bidW, bidZ, execW, actualZ []float64) (*Outcome, error) {
	if err := checkProfile(bidW, execW); err != nil {
		return nil, err
	}
	for _, s := range []dlt.StarInstance{{Z: bidZ, W: bidW}, {Z: actualZ, W: execW}} {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	alloc, msBid, err := twoParamOptimal(bidZ, bidW)
	if err != nil {
		return nil, err
	}
	// Realized: the allocation and service order stand (the schedule was
	// built from the bids), but agent i's wire and meter expose its true
	// link and chosen speed.
	order := orderByZ(bidZ)
	sa := dlt.StarAllocation{Children: make(dlt.Allocation, len(alloc))}
	for pos, idx := range order {
		sa.Children[pos] = alloc[idx]
	}
	z := make([]float64, len(bidZ))
	return leaveOneOut(bidW, execW, alloc, msBid,
		func(i int) (float64, error) {
			_, t, err := twoParamOptimal(removeAt(bidZ, i), removeAt(bidW, i))
			return t, err
		},
		func(i int, speeds []float64) (float64, error) {
			copy(z, bidZ)
			z[i] = actualZ[i]
			perm, err := dlt.StarInstance{Z: z, W: speeds}.Permute(order)
			if err != nil {
				return 0, err
			}
			return dlt.StarMakespan(perm, sa)
		})
}

// twoParamOptimal computes the z-ordered equal-finish allocation for a
// reported (z, w) profile, in agent index order, plus its makespan.
func twoParamOptimal(z, w []float64) (dlt.Allocation, float64, error) {
	order := orderByZ(z)
	perm, err := dlt.StarInstance{Z: z, W: w}.Permute(order)
	if err != nil {
		return nil, 0, err
	}
	sa, err := dlt.OptimalStar(perm)
	if err != nil {
		return nil, 0, err
	}
	ms, err := dlt.StarMakespan(perm, sa)
	if err != nil {
		return nil, 0, err
	}
	alloc := make(dlt.Allocation, len(w))
	for pos, idx := range order {
		alloc[idx] = sa.Children[pos]
	}
	return alloc, ms, nil
}

func removeAt(xs []float64, i int) []float64 {
	out := make([]float64, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}

func orderByZ(z []float64) []int {
	order := make([]int, len(z))
	for i := range order {
		order[i] = i
	}
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && z[order[b]] < z[order[b-1]]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	return order
}
