// Package stats provides the small numeric helpers used by the experiment
// harness: summary statistics and a log-log least-squares exponent fit used
// to verify the Θ(m²) communication-complexity claim (Theorem 5.4).
package stats

import (
	"errors"
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics for xs. It returns a zero
// Summary when xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Quantile returns the q-th sample quantile of xs (q in [0,1]), using
// linear interpolation between order statistics (the common "type 7"
// estimator). It returns 0 for an empty sample; q is clamped to [0,1].
// The fault experiments use it for tail latencies (p95 retransmits,
// makespan inflation) where the mean hides stragglers.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinFit holds the result of an ordinary least-squares line fit y = a + b·x.
type LinFit struct {
	Intercept float64 // a
	Slope     float64 // b
	R2        float64 // coefficient of determination
}

// ErrDegenerate is returned when a fit is requested on fewer than two
// distinct x values.
var ErrDegenerate = errors.New("stats: need at least two distinct x values")

// FitLine computes the ordinary least-squares fit y = a + b·x.
func FitLine(xs, ys []float64) (LinFit, error) {
	if len(xs) != len(ys) {
		return LinFit{}, errors.New("stats: mismatched sample lengths")
	}
	if len(xs) < 2 {
		return LinFit{}, ErrDegenerate
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinFit{}, ErrDegenerate
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 1.0
	if syy > 0 {
		var sse float64
		for i := range xs {
			e := ys[i] - (a + b*xs[i])
			sse += e * e
		}
		r2 = 1 - sse/syy
	}
	return LinFit{Intercept: a, Slope: b, R2: r2}, nil
}

// FitPowerLaw fits y = c·x^p by least squares in log-log space and returns
// the exponent p, the constant c and the log-space R². All samples must be
// strictly positive.
func FitPowerLaw(xs, ys []float64) (p, c, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: mismatched sample lengths")
	}
	lx := make([]float64, 0, len(xs))
	ly := make([]float64, 0, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, 0, errors.New("stats: power-law fit requires positive samples")
		}
		lx = append(lx, math.Log(xs[i]))
		ly = append(ly, math.Log(ys[i]))
	}
	fit, err := FitLine(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}
