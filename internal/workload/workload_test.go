package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dlsbl/internal/dlt"
)

func TestPartitionExactCover(t *testing.T) {
	alloc := dlt.Allocation{0.5, 0.3, 0.2}
	asg, err := Partition(alloc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if asg[0].Count() != 5 || asg[1].Count() != 3 || asg[2].Count() != 2 {
		t.Errorf("assignments = %+v", asg)
	}
	if asg[0].Lo != 0 || asg[2].Hi != 10 {
		t.Errorf("ranges do not span dataset: %+v", asg)
	}
}

func TestPartitionZeroFractions(t *testing.T) {
	alloc := dlt.Allocation{1, 0, 0}
	asg, err := Partition(alloc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if asg[0].Count() != 7 || asg[1].Count() != 0 || asg[2].Count() != 0 {
		t.Errorf("assignments = %+v", asg)
	}
}

// TestPartitionAbsorbsRoundingTail: a feasible allocation whose sum sits
// just below 1 (within FeasibilityTol) can leave the final cumulative
// round short of nBlocks at very fine granularity; the last loaded
// processor absorbs the leftover so every block stays assigned.
func TestPartitionAbsorbsRoundingTail(t *testing.T) {
	alloc := dlt.Allocation{1 - 9e-10, 0, 0}
	const n = 600_000_000
	asg, err := Partition(alloc, n)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range asg {
		total += a.Count()
	}
	if total != n {
		t.Fatalf("partition covers %d of %d blocks", total, n)
	}
	if asg[len(asg)-1].Hi != n {
		t.Errorf("tail not absorbed: %+v", asg)
	}
}

func TestPartitionValidation(t *testing.T) {
	if _, err := Partition(dlt.Allocation{0.5, 0.5}, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := Partition(dlt.Allocation{0.5, 0.4}, 10); err == nil {
		t.Error("non-normalized allocation accepted")
	}
}

// Property: Partition always covers every block exactly once, in order,
// and each count is within one block of the proportional share.
func TestQuickPartitionProperties(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + int(mRaw)%16
		n := 1 + int(nRaw)%500
		raw := make(dlt.Allocation, m)
		var sum float64
		for i := range raw {
			raw[i] = rng.Float64()
			sum += raw[i]
		}
		for i := range raw {
			raw[i] /= sum
		}
		asg, err := Partition(raw, n)
		if err != nil {
			return false
		}
		prev := 0
		for i, a := range asg {
			if a.Lo != prev || a.Hi < a.Lo {
				return false
			}
			prev = a.Hi
			share := raw[i] * float64(n)
			if float64(a.Count()) < share-1.000001 || float64(a.Count()) > share+1.000001 {
				return false
			}
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
