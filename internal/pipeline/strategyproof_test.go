package pipeline

import (
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

// TestRunLoadBidShadingNeverPays plays a 4-installment NCP-FE load
// through the live protocol while one processor at a time misreports its
// rate by a BidFactor in [0.85, 1.15], in steps of 0.01, and executes at
// its true rate. Installment sub-rounds price in the per-load period
// their split minimizes, so no factor may raise the liar's utility above
// its truthful one by more than 1e-12 of it. Pricing them in the
// R-installment makespan instead let every processor gain 1.5–5.1% at
// z = 0.2 and 2.7–10.2% at z = 0.4 by shading its bid.
func TestRunLoadBidShadingNeverPays(t *testing.T) {
	w := []float64{3, 2, 4, 5, 2.5}
	play := func(z float64, behaviors []agent.Behavior) []float64 {
		t.Helper()
		s, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPFE, Z: z, TrueW: w})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunLoad(s, Load{Job: protocol.JobConfig{Seed: 11, Behaviors: behaviors}, Rounds: 4, Policy: dlt.EqualRounds})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed {
			t.Fatalf("z=%v %v: the load did not complete", z, behaviors)
		}
		for i, f := range out.Fines {
			if f != 0 {
				t.Fatalf("z=%v %v: P%d fined %v for a bid", z, behaviors, i+1, f)
			}
		}
		return out.Utilities
	}
	for _, z := range []float64{0.2, 0.4} {
		truth := play(z, nil)
		for p := range w {
			for k := 85; k <= 115; k++ {
				if k == 100 {
					continue
				}
				behaviors := make([]agent.Behavior, len(w))
				behaviors[p].BidFactor = float64(k) / 100
				u := play(z, behaviors)[p]
				if gain := u - truth[p]; gain > 1e-12*truth[p] {
					t.Errorf("z=%v: P%d gains %.3g (%.3g of its utility %v) by bidding %.2f×", z, p+1, gain, gain/truth[p], truth[p], behaviors[p].BidFactor)
				}
			}
		}
	}
}
