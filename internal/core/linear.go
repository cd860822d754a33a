package core

import "dlsbl/internal/dlt"

// LinearMechanism extends DLS-BL to the daisy-chain network
// (dlt.LinearInstance): the chain position of every processor is fixed
// physical infrastructure (who is wired to whom), z is public, and the
// agents bid their processing times. The allocation is the chain's
// equal-finish optimum for the reported profile, so the compensation-and-
// bonus payments remain strategyproof by the Theorem 3.1 argument.
//
// The bonus baseline T_{-i} treats the non-participating processor as a
// pure store-and-forward relay: it stays wired into the chain (data for
// downstream processors still crosses its hop) but computes nothing.
// Splicing the node out entirely would be wrong — a slow processor would
// then appear to *harm* the system merely by existing, and voluntary
// participation would fail.
type LinearMechanism struct {
	// Z is the public per-unit transfer time of every hop.
	Z float64
}

// Run executes the chain mechanism on a bid profile and observed
// execution values.
func (m LinearMechanism) Run(bids, exec []float64) (*Outcome, error) {
	if err := checkProfile(bids, exec); err != nil {
		return nil, err
	}
	chain := dlt.LinearInstance{Z: m.Z, W: bids}
	alloc, msBid, err := dlt.OptimalLinearMakespan(chain)
	if err != nil {
		return nil, err
	}
	return leaveOneOut(bids, exec, alloc, msBid,
		func(i int) (float64, error) {
			active := make([]bool, len(bids))
			for j := range active {
				active[j] = j != i
			}
			sub, err := dlt.OptimalLinearSubset(chain, active)
			if err != nil {
				return 0, err
			}
			return dlt.LinearMakespan(chain, sub)
		},
		func(_ int, speeds []float64) (float64, error) {
			return dlt.LinearMakespan(dlt.LinearInstance{Z: m.Z, W: speeds}, alloc)
		})
}
