package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlsbl/internal/dlt"
)

// The naive O(m²) oracle: the per-agent re-solve the O(m) payment engine
// replaced. The parity tests and FuzzEngineParity check the engine
// against it.

// RunNaive executes DLS-BL by re-solving the DLT recursion from scratch
// for every agent — O(m) solves, O(m²) time and allocations. It is the
// oracle the O(m) engine is differentially tested against (the two
// agree to ~1e-12 relative; MakespanWithout is the only component
// computed along a different floating-point path).
func (m Mechanism) RunNaive(bids, exec []float64) (*Outcome, error) {
	return m.runNaive(bids, exec, WithVerification)
}

// RunNaiveWithRule is RunNaive with an explicit payment rule.
func (m Mechanism) RunNaiveWithRule(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	return m.runNaive(bids, exec, rule)
}

func (m Mechanism) runNaive(bids, exec []float64, rule PaymentRule) (*Outcome, error) {
	n := len(bids)
	if n < 2 {
		return nil, errors.New("core: DLS-BL needs at least two agents")
	}
	if len(exec) != n {
		return nil, fmt.Errorf("core: %d execution values for %d bids", len(exec), n)
	}
	for i := 0; i < n; i++ {
		if !(bids[i] > 0) || math.IsInf(bids[i], 0) {
			return nil, fmt.Errorf("core: invalid bid b[%d]=%v", i, bids[i])
		}
		if !(exec[i] > 0) || math.IsInf(exec[i], 0) {
			return nil, fmt.Errorf("core: invalid execution value w̃[%d]=%v", i, exec[i])
		}
	}
	in := dlt.Instance{Network: m.Network, Z: m.Z, W: append([]float64(nil), bids...)}
	alloc, msBid, err := dlt.OptimalMakespan(in)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Alloc:            alloc,
		Compensation:     make([]float64, n),
		Bonus:            make([]float64, n),
		Payment:          make([]float64, n),
		Valuation:        make([]float64, n),
		Utility:          make([]float64, n),
		MakespanWithout:  make([]float64, n),
		MakespanRealized: make([]float64, n),
		MakespanBid:      msBid,
	}
	// The per-agent marginals are independent; at large m the loop shards
	// across GOMAXPROCS so differential tests can drive it at scale.
	marginal := func(lo, hi int) error {
		speeds := make([]float64, n)
		for i := lo; i < hi; i++ {
			sub, err := in.Without(i)
			if err != nil {
				return err
			}
			_, tWithout, err := dlt.OptimalMakespan(sub)
			if err != nil {
				return err
			}
			copy(speeds, bids)
			if rule == WithVerification {
				speeds[i] = exec[i]
			}
			tRealized, err := dlt.MakespanWithSpeeds(in, alloc, speeds)
			if err != nil {
				return err
			}
			out.MakespanWithout[i] = tWithout
			out.MakespanRealized[i] = tRealized
			out.Compensation[i] = alloc[i] * exec[i]
			out.Bonus[i] = tWithout - tRealized
			out.Payment[i] = out.Compensation[i] + out.Bonus[i]
			out.Valuation[i] = -alloc[i] * exec[i]
			out.Utility[i] = out.Payment[i] + out.Valuation[i]
		}
		return nil
	}
	if n >= parallelMarginalsMin {
		err = shardedFor(n, marginal)
	} else {
		err = marginal(0, n)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		out.UserCost += out.Payment[i]
	}
	return out, nil
}

// BenchmarkMechanismRunNaive times the oracle, the baseline the O(m)
// engine is measured against (compare BenchmarkMechanismRun at the
// repository root).
func BenchmarkMechanismRunNaive(b *testing.B) {
	for _, m := range []int{4, 16, 64, 512} {
		// The root bench's instance generator, so the two benches agree.
		in := dlt.RandomInstance(rand.New(rand.NewSource(int64(m))), dlt.NCPFE, m, 0.5, 8, 0.02, 0.49)
		mech := Mechanism{Network: dlt.NCPFE, Z: in.Z}
		exec := TruthfulExec(in.W)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mech.RunNaive(in.W, exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
