package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
)

// E4 — Theorem 2.1 (simultaneous finish) + closed-form/bisection
// cross-validation.
func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Theorem 2.1 — optimal allocations equalize finishing times (plus solver cross-check)",
		Run: func(seed int64) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			tbl := Table{Columns: []string{"network", "m", "trials", "max finish spread", "max |closed-bisect|"}}
			var worstSpread, worstDelta float64
			for _, net := range dlt.Networks {
				for _, m := range []int{2, 4, 8, 16, 32, 64} {
					const trials = 20
					var maxSpread, maxDelta float64
					for trial := 0; trial < trials; trial++ {
						in := dlt.DefaultRandomInstance(rng, net, m)
						a, err := dlt.Optimal(in)
						if err != nil {
							return Result{}, err
						}
						spread, err := dlt.FinishSpread(in, a)
						if err != nil {
							return Result{}, err
						}
						ms, err := dlt.Makespan(in, a)
						if err != nil {
							return Result{}, err
						}
						rel := spread / ms
						if rel > maxSpread {
							maxSpread = rel
						}
						b, err := dlt.SolveBisect(in)
						if err != nil {
							return Result{}, err
						}
						for i := range a {
							if d := math.Abs(a[i] - b[i]); d > maxDelta {
								maxDelta = d
							}
						}
					}
					tbl.AddRow(net.String(), fmt.Sprintf("%d", m), fmt.Sprintf("%d", trials),
						f("%.2e", maxSpread), f("%.2e", maxDelta))
					worstSpread = math.Max(worstSpread, maxSpread)
					worstDelta = math.Max(worstDelta, maxDelta)
				}
			}
			return Result{
				ID: "E4", Title: "Theorem 2.1 simultaneous finish", Table: tbl,
				Notes: fmt.Sprintf("worst relative spread %.2e, worst solver disagreement %.2e — both at floating-point noise, matching the theorem", worstSpread, worstDelta),
			}, nil
		},
	})
}

// E5 — Theorem 2.2 (any allocation order is optimal).
func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Theorem 2.2 — the optimal makespan is invariant under processor order",
		Run: func(seed int64) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			tbl := Table{Columns: []string{"network", "m", "permutations", "max relative makespan deviation"}}
			var worst float64
			for _, net := range dlt.Networks {
				for _, m := range []int{3, 6, 12} {
					in := dlt.DefaultRandomInstance(rng, net, m)
					_, base, err := dlt.OptimalMakespan(in)
					if err != nil {
						return Result{}, err
					}
					const perms = 50
					var maxDev float64
					for p := 0; p < perms; p++ {
						perm := in.Clone()
						lo, hi := 0, m
						switch net {
						case dlt.NCPFE:
							lo = 1
						case dlt.NCPNFE:
							hi = m - 1
						}
						for i := hi - 1; i > lo; i-- {
							j := lo + rng.Intn(i-lo+1)
							perm.W[i], perm.W[j] = perm.W[j], perm.W[i]
						}
						_, ms, err := dlt.OptimalMakespan(perm)
						if err != nil {
							return Result{}, err
						}
						if d := math.Abs(ms-base) / base; d > maxDev {
							maxDev = d
						}
					}
					tbl.AddRow(net.String(), fmt.Sprintf("%d", m), fmt.Sprintf("%d", perms), f("%.2e", maxDev))
					worst = math.Max(worst, maxDev)
				}
			}
			return Result{
				ID: "E5", Title: "Theorem 2.2 order invariance", Table: tbl,
				Notes: fmt.Sprintf("worst deviation %.2e — order does not matter, matching the theorem", worst),
			}, nil
		},
	})
}

// BidRatios is the sweep used by E6 and the strategic-bidding example.
var BidRatios = []float64{0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0}

// E6 — Theorems 3.1/5.2 (strategyproofness): utility vs bid ratio, peak
// at truth.
func init() {
	register(Experiment{
		ID:    "E6",
		Title: "Theorems 3.1/5.2 — truth-telling maximizes utility (bid-ratio sweep)",
		Run: func(seed int64) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			cols := []string{"bid ratio b/t"}
			for _, net := range dlt.Networks {
				cols = append(cols, "U/U_truth ("+net.String()+")")
			}
			tbl := Table{Columns: cols}
			const trials = 40
			// mean normalized utility per ratio per network.
			sums := make([][]float64, len(BidRatios))
			for i := range sums {
				sums[i] = make([]float64, len(dlt.Networks))
			}
			for ni, net := range dlt.Networks {
				for trial := 0; trial < trials; trial++ {
					in := core.RegimeSafeInstance(rng, net, 6)
					mech := core.Mechanism{Network: net, Z: in.Z}
					i := rng.Intn(in.M())
					pts, err := mech.BidSweep(in.W, i, BidRatios)
					if err != nil {
						return Result{}, err
					}
					var truth float64
					for _, p := range pts {
						if p.Ratio == 1 {
							truth = p.Utility
						}
					}
					for k, p := range pts {
						sums[k][ni] += p.Utility / truth
					}
				}
			}
			violations := 0
			for k, ratio := range BidRatios {
				row := []string{f("%.2f", ratio)}
				for ni := range dlt.Networks {
					mean := sums[k][ni] / trials
					row = append(row, f("%.4f", mean))
					if ratio != 1 && mean > 1+1e-9 {
						violations++
					}
				}
				tbl.AddRow(row...)
			}
			return Result{
				ID: "E6", Title: "strategyproofness sweep", Table: tbl,
				Notes: fmt.Sprintf("%d violations of the truthful peak across %d instances/network — the maximum sits at ratio 1.00, matching Theorem 3.1", violations, trials),
			}, nil
		},
	})
}

// E7 — Theorems 3.2/5.3 (voluntary participation).
func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Theorems 3.2/5.3 — truthful agents never incur a loss",
		Run: func(seed int64) (Result, error) {
			rng := rand.New(rand.NewSource(seed))
			tbl := Table{Columns: []string{"network", "m", "instances", "min truthful utility", "violations"}}
			totalViolations := 0
			for _, net := range dlt.Networks {
				for _, m := range []int{2, 4, 8, 16} {
					const trials = 50
					minU := math.Inf(1)
					v := core.CheckVoluntaryParticipation(rng, net, trials, m, 1e-9, (*core.PaymentEngine).RunInto)
					totalViolations += len(v)
					// Recompute the minimum utility over fresh instances
					// for the table.
					for trial := 0; trial < trials; trial++ {
						in := core.RegimeSafeInstance(rng, net, m)
						mech := core.Mechanism{Network: net, Z: in.Z}
						out, err := mech.Run(in.W, core.TruthfulExec(in.W))
						if err != nil {
							return Result{}, err
						}
						for _, u := range out.Utility {
							if u < minU {
								minU = u
							}
						}
					}
					tbl.AddRow(net.String(), fmt.Sprintf("%d", m), fmt.Sprintf("%d", trials),
						f("%.6f", minU), fmt.Sprintf("%d", len(v)))
				}
			}
			return Result{
				ID: "E7", Title: "voluntary participation", Table: tbl,
				Notes: fmt.Sprintf("%d negative-utility cases across all samples — truthful utility is always ≥ 0, matching Theorem 3.2", totalViolations),
			}, nil
		},
	})
}
