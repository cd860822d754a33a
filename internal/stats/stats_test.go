package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 || s.Median != 2.5 {
		t.Errorf("unexpected summary %+v", s)
	}
	// Sample std of 1..4 = sqrt(5/3).
	if math.Abs(s.Std-math.Sqrt(5.0/3)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
	odd := Summarize([]float64{5, 1, 3})
	if odd.Median != 3 {
		t.Errorf("odd median = %v, want 3", odd.Median)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Median != 7 || one.Min != 7 || one.Max != 7 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4}) != 3 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("empty mean not 0")
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-1) > 1e-12 || math.Abs(fit.Slope-2) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLine([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("vertical data accepted")
	}
}

func TestFitLineConstantY(t *testing.T) {
	fit, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope != 0 || fit.Intercept != 5 || fit.R2 != 1 {
		t.Errorf("constant fit = %+v", fit)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	// y = 3·x²
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	p, c, r2, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-2) > 1e-9 || math.Abs(c-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("power fit p=%v c=%v r2=%v", p, c, r2)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, _, _, err := FitPowerLaw([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("negative x accepted")
	}
	if _, _, _, err := FitPowerLaw([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Error("zero y accepted")
	}
	if _, _, _, err := FitPowerLaw([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// relErr returns |a-b| / max(|a|, |b|, 1): relative error, measured
// absolutely near zero.
func relErr(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / den
}

// almostEqual reports whether a and b agree within relative tolerance tol.
func almostEqual(a, b, tol float64) bool { return relErr(a, b) <= tol }

func TestRelErrAndAlmostEqual(t *testing.T) {
	if relErr(1, 1) != 0 {
		t.Error("relErr(1,1) != 0")
	}
	if !almostEqual(1e12, 1e12*(1+1e-13), 1e-9) {
		t.Error("almostEqual too strict on large values")
	}
	if almostEqual(1, 2, 1e-9) {
		t.Error("almostEqual(1,2) true")
	}
	// Small absolute differences near zero are measured absolutely.
	if relErr(0, 1e-12) != 1e-12 {
		t.Errorf("relErr(0,1e-12) = %v", relErr(0, 1e-12))
	}
}

// Property: summary invariants Min ≤ Median ≤ Max and Min ≤ Mean ≤ Max.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%100
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: FitLine recovers a noiseless line exactly.
func TestQuickFitRecoversLine(t *testing.T) {
	f := func(seed int64, aRaw, bRaw float64) bool {
		a := math.Mod(aRaw, 100)
		b := math.Mod(bRaw, 100)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 10)
		ys := make([]float64, 10)
		for i := range xs {
			xs[i] = rng.Float64()*10 + float64(i)
			ys[i] = a + b*xs[i]
		}
		fit, err := FitLine(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Intercept-a) < 1e-6 && math.Abs(fit.Slope-b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
		{-1, 1}, {2, 5}, // clamped
		{0.1, 1.4}, // interpolated: 1 + 0.4·(2−1)
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile(single) = %v, want 7", got)
	}
	// Median agreement with Summarize.
	for _, xs := range [][]float64{{1, 2, 3, 4}, {9, 2, 5}, {1, 1, 8, 8}} {
		if q, m := Quantile(xs, 0.5), Summarize(xs).Median; math.Abs(q-m) > 1e-12 {
			t.Errorf("Quantile(0.5)=%v disagrees with Median=%v for %v", q, m, xs)
		}
	}
}

// TestQuantileEdgeCases pins the estimator's contract at the edges the
// service's latency reservoirs can feed it: out-of-range q clamps to
// the extremes, every q of a singleton returns the sample, NaN samples
// sort first (Go's sort.Float64s orders NaN before other values, so
// q=0 surfaces the NaN and q=1 still reaches the true maximum), and
// the input slice is never reordered in place.
func TestQuantileEdgeCases(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := Quantile(xs, -0.5); got != 1 {
		t.Errorf("Quantile(q=-0.5) = %v, want clamp to min 1", got)
	}
	if got := Quantile(xs, 1.5); got != 3 {
		t.Errorf("Quantile(q=1.5) = %v, want clamp to max 3", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Quantile reordered its input: %v", xs)
	}

	for _, q := range []float64{0, 0.25, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile(single, q=%v) = %v, want 7", q, got)
		}
	}
	if got := Quantile(nil, 0); got != 0 {
		t.Errorf("Quantile(empty, 0) = %v, want 0", got)
	}

	withNaN := []float64{math.NaN(), 1, 2}
	if got := Quantile(withNaN, 0); !math.IsNaN(got) {
		t.Errorf("Quantile(NaN sample, q=0) = %v, want NaN (NaNs sort first)", got)
	}
	if got := Quantile(withNaN, 1); got != 2 {
		t.Errorf("Quantile(NaN sample, q=1) = %v, want 2", got)
	}
}
