package experiments

import (
	"fmt"
	"math/rand"

	"dlsbl/internal/dlt"
	"dlsbl/internal/pipeline"
	"dlsbl/internal/protocol"
)

// X18 — pipelined multi-load scheduling: installment rounds plus
// cross-job packing against the FIFO runner. The FIFO baseline serves D
// queued loads back to back, each a single round at the single-round
// optimal split; the pipelined scheduler splits each load into R
// installments under the throughput-balanced allocation
// (dlt.PipelinedAllocation) and packs the D loads' installment waves into
// one shared bus schedule (pipeline.Pack).
//
// The R=1 rows double as the negative control that motivates the
// balanced allocation: at the single-round equal-finish optimum the
// NCP-FE originator computes w₀·α₀ = T for the whole makespan, so a
// schedule of such loads keeps one processor saturated per load and
// packing cannot beat FIFO (speedup pinned ≈ 1). Splitting into
// installments under the balanced split frees that bottleneck, and the
// speedup at depth D ≥ 4 clears 1.3× on the default m=16 pool — the
// figure TestPackOverlapsJobs and TestPackLiveProtocolSpeedup (in
// internal/pipeline) assert.
//
// The last row replays the D=4, R=4 cell end to end through the live
// protocol — a BidSession serving 4 loads as signed installment
// sub-rounds (pipeline.RunLoad), packed from their realized outcomes —
// to confirm the virtual-time numbers survive contact with the mechanism.
func init() {
	register(Experiment{
		ID:    "X18",
		Title: "Extension: pipelined multi-load scheduling — installment rounds + cross-job packing vs FIFO",
		Run: func(seed int64) (Result, error) {
			const m, z = 16, 0.1
			rng := rand.New(rand.NewSource(seed))
			w := make([]float64, m)
			for i := range w {
				w[i] = 1 + rng.Float64()
			}
			in := dlt.Instance{Network: dlt.NCPFE, Z: z, W: w}

			tbl := Table{Columns: []string{"D", "R", "policy", "FIFO total", "packed makespan", "speedup"}}
			var best float64
			for _, d := range []int{1, 2, 4, 8} {
				for _, r := range []int{1, 2, 4} {
					plan, err := packedPlan(in, d, r, dlt.GeometricRounds)
					if err != nil {
						return Result{}, err
					}
					s := plan.Speedup()
					if d >= 4 && s > best {
						best = s
					}
					tbl.AddRow(
						fmt.Sprintf("%d", d), fmt.Sprintf("%d", r), rowPolicy(r),
						f("%.4f", plan.FIFOTotal), f("%.4f", plan.Makespan), f("%.3f", s))
				}
			}

			live, err := livePipelineSpeedup(w, z, seed, 4, 4)
			if err != nil {
				return Result{}, err
			}
			tbl.AddRow("4", "4", "geometric (live protocol)", "", "", f("%.3f", live))

			notes := fmt.Sprintf(
				"m=%d, z=%.2g. R=1 rows are the saturation control: single-round optimal splits pin speedup at 1. "+
					"Best packed speedup at D>=4: %.3f (target >= 1.3); live-protocol replay of D=4,R=4: %.3f.",
				m, z, best, live)
			return Result{ID: "X18", Title: "pipelined multi-load scheduling", Table: tbl, Notes: notes}, nil
		},
	})
}

func rowPolicy(r int) string {
	if r == 1 {
		return "single (control)"
	}
	return "geometric"
}

// packedPlan packs d identical loads on the pool, each in r installments:
// the single-round optimal allocation for r=1 (the FIFO runner's rule),
// the throughput-balanced allocation otherwise.
func packedPlan(in dlt.Instance, d, r int, policy dlt.RoundPolicy) (pipeline.Plan, error) {
	var alloc dlt.Allocation
	var err error
	if r == 1 {
		alloc, err = dlt.Optimal(in)
	} else {
		alloc, err = dlt.PipelinedAllocation(in)
	}
	if err != nil {
		return pipeline.Plan{}, err
	}
	jobs := make([]pipeline.Job, d)
	for j := range jobs {
		jobs[j] = pipeline.Job{
			ID:     fmt.Sprintf("job%d", j+1),
			Exec:   append([]float64(nil), in.W...),
			Alloc:  alloc,
			Rounds: r,
			Policy: policy,
		}
	}
	return pipeline.Pack(in.Network, in.Z, jobs)
}

// livePipelineSpeedup replays one packed cell through the live protocol:
// a BidSession serves d loads as signed installment sub-rounds, and the
// packer runs on the realized outcomes (realized rates and allocations,
// not the planned ones).
func livePipelineSpeedup(w []float64, z float64, seed int64, d, r int) (float64, error) {
	sess, err := protocol.NewBidSession(protocol.Config{
		Network: dlt.NCPFE, Z: z, TrueW: w, Keys: expKeys,
	})
	if err != nil {
		return 0, err
	}
	jobs := make([]pipeline.Job, d)
	for j := range jobs {
		out, err := pipeline.RunLoad(sess, pipeline.Load{
			Job:    protocol.JobConfig{Seed: seed + int64(j), NBlocks: 8 * len(w)},
			Rounds: r,
			Policy: dlt.GeometricRounds,
		})
		if err != nil {
			return 0, err
		}
		if !out.Completed {
			return 0, fmt.Errorf("experiments: live load %d terminated in %s", j+1, out.TerminatedIn)
		}
		jobs[j], err = pipeline.JobFromOutcome(fmt.Sprintf("live%d", j+1), out, r, dlt.GeometricRounds)
		if err != nil {
			return 0, err
		}
	}
	plan, err := pipeline.Pack(dlt.NCPFE, z, jobs)
	if err != nil {
		return 0, err
	}
	return plan.Speedup(), nil
}
