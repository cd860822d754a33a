package pipeline

import (
	"math"

	"dlsbl/internal/dlt"
)

// installmentMakespan evaluates one load's R-installment schedule from
// its definition, written apart from dlt.MultiRoundSchedule so that the
// tests holding the schedule builder to it do not hold it to itself.
// Installment r carries fracs[r] of the load, split by alloc; a
// processor with a zero share in an installment gets no chunk of it.
//
// First the bus: it sends the chunks one at a time, installment by
// installment and within one in processor order, each taking z per unit
// of load, so a chunk arrives at the prefix sum of the send times up to
// and including its own. On NCP-FE the originator's chunk never crosses
// the bus and is there at time 0. Then each processor: it computes its
// chunks in installment order, a chunk starting once it has arrived and
// the one before is done, so finish = max(arrival, finish) + w·chunk.
// The makespan is the latest finish.
func installmentMakespan(net dlt.Network, z float64, w []float64, alloc dlt.Allocation, fracs []float64) float64 {
	orig := -1
	if net == dlt.NCPFE {
		orig = net.Originator(len(w))
	}
	arrive := make([][]float64, len(fracs))
	sent := 0.0
	for r, f := range fracs {
		arrive[r] = make([]float64, len(w))
		for i := range w {
			if chunk := f * alloc[i]; chunk > 0 && i != orig {
				sent += z * chunk
				arrive[r][i] = sent
			}
		}
	}
	makespan := 0.0
	for i := range w {
		finish := 0.0
		for r, f := range fracs {
			if chunk := f * alloc[i]; chunk > 0 {
				finish = math.Max(arrive[r][i], finish) + w[i]*chunk
			}
		}
		makespan = math.Max(makespan, finish)
	}
	return makespan
}
