package experiments

import (
	"fmt"
	"math/rand"

	"dlsbl/internal/core"
)

// X7 — the DLS-BL mechanism on the daisy chain. The interesting modeling
// point (documented on core.LinearMechanism and discovered by this very
// experiment's failing first draft): the bonus baseline T_{-i} must treat
// a non-participant as a store-and-forward RELAY that still carries the
// tail across its hop. Splicing the node out of the chain instead makes
// slow processors look harmful merely for existing, and voluntary
// participation fails with measurably negative truthful utilities.
func init() {
	register(Experiment{
		ID:    "X7",
		Title: "Extension: DLS-BL on daisy chains — relay-baseline bonuses keep the mechanism sound",
		Run: func(seed int64) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			ratios := []float64{0.25, 0.5, 1.0, 1.5, 2.0, 4.0}
			tbl, violations, minTruthU, err := bidRatioSweep(rng, ratios, func(n int) ([]float64, mechanismRun) {
				w := make([]float64, n)
				for i := range w {
					w[i] = 0.5 + rng.Float64()*7.5
				}
				return w, core.LinearMechanism{Z: 0.02 + rng.Float64()*0.4}.Run
			})
			if err != nil {
				return Result{}, err
			}
			return Result{
				ID: "X7", Title: "chain mechanism", Table: tbl,
				Notes: fmt.Sprintf("%d strategyproofness violations across %d random chains (theory predicts 0); minimum truthful utility %.6f ≥ 0 — but ONLY with the relay baseline: splicing non-participants out of the chain produces negative truthful utilities (≈−0.03 observed during development), a genuine modeling trap for distributed mechanisms on multi-hop topologies", violations, sweepTrials, minTruthU),
			}, nil
		},
	})
}
