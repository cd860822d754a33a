package dlt

import (
	"errors"
	"math"
	"sort"
)

// Affine-cost extension. The paper's linear model charges α·z per transfer
// and α·w per computation. The standard DLT refinement (and the paper's
// "cohesive theory" future-work direction) adds fixed overheads: a
// transfer costs Scm + α·z and a computation costs Scp + α·w. With fixed
// overheads it can be optimal to leave slow processors out, so the solver
// also searches over the participant subset (the k fastest bidders, for
// every k — see OptimalAffine).

// AffineInstance augments an Instance with fixed per-transfer (Scm) and
// per-computation (Scp) overheads shared by all processors.
type AffineInstance struct {
	Instance
	Scm float64 // fixed communication start-up cost per transfer
	Scp float64 // fixed computation start-up cost per processor
}

// Validate extends Instance.Validate with overhead checks.
func (in AffineInstance) Validate() error {
	if err := in.Instance.Validate(); err != nil {
		return err
	}
	if !(in.Scm >= 0) || math.IsInf(in.Scm, 0) || !(in.Scp >= 0) || math.IsInf(in.Scp, 0) {
		return errors.New("dlt: affine overheads must be non-negative and finite")
	}
	return nil
}

// affineFinish evaluates per-processor finishing times under the affine
// model for the n participating processors (prefix of the instance order).
func affineFinish(in AffineInstance, a Allocation, n int) []float64 {
	t := make([]float64, n)
	switch in.Network {
	case CP:
		var comm float64
		for i := 0; i < n; i++ {
			comm += in.Scm + in.Z*a[i]
			t[i] = comm + in.Scp + a[i]*in.W[i]
		}
	case NCPFE:
		t[0] = in.Scp + a[0]*in.W[0]
		var comm float64
		for i := 1; i < n; i++ {
			comm += in.Scm + in.Z*a[i]
			t[i] = comm + in.Scp + a[i]*in.W[i]
		}
	case NCPNFE:
		var comm float64
		for i := 0; i < n-1; i++ {
			comm += in.Scm + in.Z*a[i]
			t[i] = comm + in.Scp + a[i]*in.W[i]
		}
		t[n-1] = comm + in.Scp + a[n-1]*in.W[n-1]
	}
	return t
}

// affineSolvePrefix finds the equal-finish allocation over exactly the
// first n processors by bisection on the common makespan, mirroring
// SolveBisect. Returns the allocation (length n) and its makespan.
func affineSolvePrefix(in AffineInstance, n int) (Allocation, float64) {
	alloc := func(T float64) Allocation {
		a := make(Allocation, n)
		switch in.Network {
		case CP:
			var prefix float64
			for i := 0; i < n; i++ {
				prefix += in.Scm
				ai := (T - prefix - in.Scp) / (in.W[i] + in.Z)
				if ai < 0 {
					ai = 0
				}
				a[i] = ai
				prefix += in.Z * ai
			}
		case NCPFE:
			a[0] = math.Max((T-in.Scp)/in.W[0], 0)
			var prefix float64
			for i := 1; i < n; i++ {
				prefix += in.Scm
				ai := (T - prefix - in.Scp) / (in.W[i] + in.Z)
				if ai < 0 {
					ai = 0
				}
				a[i] = ai
				prefix += in.Z * ai
			}
		case NCPNFE:
			var prefix float64
			for i := 0; i < n-1; i++ {
				prefix += in.Scm
				ai := (T - prefix - in.Scp) / (in.W[i] + in.Z)
				if ai < 0 {
					ai = 0
				}
				a[i] = ai
				prefix += in.Z * ai
			}
			am := (T - prefix - in.Scp) / in.W[n-1]
			if am < 0 {
				am = 0
			}
			a[n-1] = am
		}
		return a
	}
	lo := 0.0
	hi := float64(n)*in.Scm + in.Scp + in.Z + maxOf(in.W[:n])
	for alloc(hi).Sum() < 1 {
		hi *= 2
	}
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if alloc(mid).Sum() < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	a := alloc(hi)
	s := a.Sum()
	for i := range a {
		a[i] /= s
	}
	t := affineFinish(in, a, n)
	return a, maxOf(t)
}

// OptimalAffine computes the optimal affine-model allocation. With fixed
// overheads not everyone should participate, and because links and
// overheads are uniform the optimal k-participant subset is always the k
// FASTEST eligible processors: the solver sorts candidates by speed,
// searches over participant counts, and maps the fractions back to the
// original indices. (An earlier draft searched prefixes of the given
// order instead; that version violated voluntary participation — see the
// affine-mechanism tests — because excluding one processor could unlock a
// better subset than any the prefix search had considered.)
//
// The load-originating processor of the NCP classes always participates:
// it holds the data and its fixed cost burdens only itself. Non-
// participants receive fraction zero. Returns the allocation (length m,
// original order) and the optimal makespan.
func OptimalAffine(in AffineInstance) (Allocation, float64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	m := in.M()
	orig := in.Network.Originator(m)

	// Candidates sorted by speed, fastest first; the originator (if any)
	// is pinned to its structural slot and excluded from the sort.
	var candidates []int
	for i := 0; i < m; i++ {
		if i != orig {
			candidates = append(candidates, i)
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool { return in.W[candidates[a]] < in.W[candidates[b]] })

	bestT := math.Inf(1)
	var bestA Allocation
	minK := 0
	if orig < 0 {
		minK = 1 // CP: at least one worker must take the load
	}
	for k := minK; k <= len(candidates); k++ {
		chosen := candidates[:k]
		// Build the participating instance in the network's structural
		// order: NCP-FE originator first, NCP-NFE originator last.
		var idx []int
		switch in.Network {
		case NCPFE:
			idx = append([]int{orig}, chosen...)
		case NCPNFE:
			idx = append(append([]int{}, chosen...), orig)
		default:
			idx = append([]int{}, chosen...)
		}
		w := make([]float64, len(idx))
		for p, i := range idx {
			w[p] = in.W[i]
		}
		sub := AffineInstance{Instance: Instance{Network: in.Network, Z: in.Z, W: w}, Scm: in.Scm, Scp: in.Scp}
		a, t := affineSolvePrefix(sub, len(idx))
		if t < bestT {
			bestT = t
			full := make(Allocation, m)
			for p, i := range idx {
				full[i] = a[p]
			}
			bestA = full
		}
	}
	if bestA == nil {
		return nil, 0, errors.New("dlt: affine solver found no feasible subset")
	}
	return bestA, bestT, nil
}
