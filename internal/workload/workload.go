// Package workload models the divisible load as the Initialization phase
// of DLS-BL-NCP divides it: "The user prepares her data by dividing it
// into small, equal-sized blocks." A fractional allocation becomes a
// contiguous range of blocks per processor, and the block counts are what
// the referee recomputes when it judges a misallocation claim.
//
// The paper also has the user sign every block, so the referee can
// substantiate a claim by comparing the blocks a processor holds with the
// original data set. The protocol models that substantiation as evidence
// on the referee's mediation (referee.ShortDeliveryEvidence and the
// delivered block counts), so no block data is built here.
package workload

import (
	"fmt"
	"math"

	"dlsbl/internal/dlt"
)

// Assignment maps each processor to the half-open block index range
// [Lo, Hi) it must process.
type Assignment struct {
	Lo, Hi int
}

// Count returns the number of blocks in the range.
func (a Assignment) Count() int { return a.Hi - a.Lo }

// Partition converts a fractional allocation into contiguous block
// assignments over nBlocks blocks using cumulative rounding: processor i
// receives blocks [round(nΣ_{j<i}α_j), round(nΣ_{j≤i}α_j)). Every block is
// assigned to exactly one processor and each processor's block count is
// within one block of α_i·n.
func Partition(alloc dlt.Allocation, nBlocks int) ([]Assignment, error) {
	if nBlocks <= 0 {
		return nil, fmt.Errorf("workload: invalid block count %d", nBlocks)
	}
	if err := alloc.Validate(len(alloc)); err != nil {
		return nil, err
	}
	out := make([]Assignment, len(alloc))
	var cum float64
	prev := 0
	for i, a := range alloc {
		cum += a
		hi := int(math.Round(cum * float64(nBlocks)))
		if hi > nBlocks {
			hi = nBlocks
		}
		if hi < prev {
			hi = prev
		}
		out[i] = Assignment{Lo: prev, Hi: hi}
		prev = hi
	}
	// Numerical slack can leave the tail short; the last processor with
	// positive fraction absorbs it.
	if prev < nBlocks {
		for i := len(out) - 1; i >= 0; i-- {
			if alloc[i] > 0 || i == len(out)-1 {
				out[i].Hi = nBlocks
				for j := i + 1; j < len(out); j++ {
					out[j] = Assignment{Lo: nBlocks, Hi: nBlocks}
				}
				break
			}
		}
	}
	return out, nil
}
