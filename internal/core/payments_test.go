package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dlsbl/internal/dlt"
)

// outcomeTol is the agreement required between the O(m) engine and the
// naive per-agent re-solve. The only component computed along a different
// floating-point path is MakespanWithout (splice of prefix/suffix
// aggregates vs a fresh chain solve), which agrees to ~1e-13 relative;
// everything downstream inherits that.
const outcomeTol = 1e-10

func requireClose(t *testing.T, what string, got, want, scaleFloor float64) {
	t.Helper()
	scale := math.Max(scaleFloor, math.Max(1, math.Abs(want)))
	if math.IsNaN(got) || math.Abs(got-want) > outcomeTol*scale {
		t.Fatalf("%s: fast %v vs naive %v (diff %v)", what, got, want, got-want)
	}
}

func requireOutcomesMatch(t *testing.T, fast, naive *Outcome) {
	t.Helper()
	// Bonus = MakespanWithout − MakespanRealized cancels when the two are
	// close, so its absolute error is bounded by tol × the makespan
	// magnitude, not tol × the (tiny) difference. Payments, utilities and
	// the user cost inherit that. Scale the comparison by the largest
	// intermediate magnitude — on the paper's regime instances this floor
	// is O(1) and the check is the plain 1e-10 bar.
	scale := 0.0
	for i := range naive.Alloc {
		scale = math.Max(scale, math.Abs(naive.MakespanWithout[i]))
		scale = math.Max(scale, math.Abs(naive.Compensation[i]))
	}
	requireClose(t, "MakespanBid", fast.MakespanBid, naive.MakespanBid, 0)
	requireClose(t, "UserCost", fast.UserCost, naive.UserCost, float64(len(naive.Alloc))*scale)
	for i := range naive.Alloc {
		requireClose(t, fmt.Sprintf("Alloc[%d]", i), fast.Alloc[i], naive.Alloc[i], 0)
		requireClose(t, fmt.Sprintf("MakespanWithout[%d]", i), fast.MakespanWithout[i], naive.MakespanWithout[i], 0)
		requireClose(t, fmt.Sprintf("MakespanRealized[%d]", i), fast.MakespanRealized[i], naive.MakespanRealized[i], 0)
		requireClose(t, fmt.Sprintf("Compensation[%d]", i), fast.Compensation[i], naive.Compensation[i], 0)
		requireClose(t, fmt.Sprintf("Bonus[%d]", i), fast.Bonus[i], naive.Bonus[i], scale)
		requireClose(t, fmt.Sprintf("Payment[%d]", i), fast.Payment[i], naive.Payment[i], scale)
		requireClose(t, fmt.Sprintf("Valuation[%d]", i), fast.Valuation[i], naive.Valuation[i], 0)
		requireClose(t, fmt.Sprintf("Utility[%d]", i), fast.Utility[i], naive.Utility[i], scale)
	}
}

// randomProfile draws a bid/exec profile with bids perturbed off the true
// values and executions at least as slow as physically possible given the
// bid, mirroring what strategic play can produce.
func randomProfile(rng *rand.Rand, in dlt.Instance) (bids, exec []float64) {
	m := in.M()
	bids = make([]float64, m)
	exec = make([]float64, m)
	for i := 0; i < m; i++ {
		bids[i] = in.W[i] * (0.25 + rng.Float64()*3.75)
		exec[i] = math.Max(bids[i], in.W[i]) * (1 + rng.Float64())
	}
	return bids, exec
}

// TestEngineMatchesNaive sweeps all three network classes, both payment
// rules, and m = 2..64 with random bid/exec profiles, asserting the O(m)
// engine and the O(m²) naive path agree on every Outcome component.
func TestEngineMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, net := range dlt.Networks {
		for _, rule := range []PaymentRule{WithVerification, WithoutVerification} {
			for m := 2; m <= 64; m++ {
				for trial := 0; trial < 4; trial++ {
					// Unconstrained z relative to w: the engine must mirror
					// the paper-verbatim algorithms outside the z < w_m
					// regime too (dlt.Optimal's caveat), not only on
					// regime-safe instances.
					in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 2.0)
					bids, exec := randomProfile(rng, in)
					mech := Mechanism{Network: net, Z: in.Z}
					fast, err := mech.RunWithRule(bids, exec, rule)
					if err != nil {
						t.Fatalf("%v m=%d rule=%v: fast: %v", net, m, rule, err)
					}
					naive, err := mech.RunNaiveWithRule(bids, exec, rule)
					if err != nil {
						t.Fatalf("%v m=%d rule=%v: naive: %v", net, m, rule, err)
					}
					requireOutcomesMatch(t, fast, naive)
				}
			}
		}
	}
}

// TestEngineMatchesNaiveLarge spot-checks parity at the scales the
// engine exists for, including past the raw-product underflow point of
// the unrenormalized recursion (m ≈ 500 on a fast bus).
func TestEngineMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, net := range dlt.Networks {
		for _, m := range []int{128, 512, 2048} {
			in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
			bids, exec := randomProfile(rng, in)
			mech := Mechanism{Network: net, Z: in.Z}
			fast, err := mech.Run(bids, exec)
			if err != nil {
				t.Fatalf("%v m=%d: fast: %v", net, m, err)
			}
			naive, err := mech.RunNaive(bids, exec)
			if err != nil {
				t.Fatalf("%v m=%d: naive: %v", net, m, err)
			}
			requireOutcomesMatch(t, fast, naive)
		}
	}
}

// TestEngineValidation checks the engine rejects what the naive path
// rejects.
func TestEngineValidation(t *testing.T) {
	eng := NewPaymentEngine(dlt.NCPFE, 0.2)
	var out Outcome
	cases := []struct {
		name       string
		bids, exec []float64
	}{
		{"one agent", []float64{1}, []float64{1}},
		{"length mismatch", []float64{1, 2}, []float64{1}},
		{"zero bid", []float64{0, 2}, []float64{1, 2}},
		{"negative bid", []float64{-1, 2}, []float64{1, 2}},
		{"NaN bid", []float64{math.NaN(), 2}, []float64{1, 2}},
		{"inf exec", []float64{1, 2}, []float64{1, math.Inf(1)}},
		{"zero exec", []float64{1, 2}, []float64{1, 0}},
	}
	for _, c := range cases {
		if err := eng.RunInto(c.bids, c.exec, WithVerification, &out); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := (&PaymentEngine{Network: dlt.NCPFE, Z: -1}).RunInto([]float64{1, 2}, []float64{1, 2}, WithVerification, &out); err == nil {
		t.Error("negative z: expected error")
	}
	if err := (&PaymentEngine{Network: dlt.Network(9), Z: 0.1}).RunInto([]float64{1, 2}, []float64{1, 2}, WithVerification, &out); err == nil {
		t.Error("unknown network: expected error")
	}
}

// TestRunIntoZeroAllocs is the allocs-per-op guard of the scratch-buffer
// path: after the first run at a given m, RunInto must not allocate.
func TestRunIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, net := range dlt.Networks {
		for _, m := range []int{2, 16, 64, 512} {
			in := dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
			bids, exec := randomProfile(rng, in)
			eng := NewPaymentEngine(net, in.Z)
			var out Outcome
			// Warm-up run sizes every buffer.
			if err := eng.RunInto(bids, exec, WithVerification, &out); err != nil {
				t.Fatalf("%v m=%d: %v", net, m, err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := eng.RunInto(bids, exec, WithVerification, &out); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v m=%d: RunInto allocated %.1f times per run, want 0", net, m, allocs)
			}
		}
	}
}

// TestReserve checks that one warm-up RunInto reserves the engine's
// scratch (and the Outcome's buffers) for its size, so every later
// RunInto at that size performs no allocation at all.
func TestReserve(t *testing.T) {
	eng := NewPaymentEngine(dlt.CP, 0.1)
	bids := make([]float64, 32)
	exec := make([]float64, 32)
	for i := range bids {
		bids[i] = 1 + float64(i%7)
		exec[i] = bids[i]
	}
	var out Outcome
	if err := eng.RunInto(bids, exec, WithVerification, &out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := eng.RunInto(bids, exec, WithVerification, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RunInto after a warm-up run allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzEngineParity is the native-fuzz form of the differential test: any
// positive bid/exec profile the fuzzer can construct must produce
// matching payments on the fast and naive paths.
func FuzzEngineParity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), 0.2)
	f.Add(int64(7), uint8(1), uint8(13), 0.05)
	f.Add(int64(42), uint8(2), uint8(64), 1.5)
	f.Fuzz(func(t *testing.T, seed int64, netRaw, mRaw uint8, z float64) {
		if math.IsNaN(z) || math.IsInf(z, 0) || z < 0 || z > 1e6 {
			t.Skip()
		}
		net := dlt.Networks[int(netRaw)%len(dlt.Networks)]
		m := 2 + int(mRaw)%63
		rng := rand.New(rand.NewSource(seed))
		w := make([]float64, m)
		for i := range w {
			w[i] = math.Ldexp(1+rng.Float64(), rng.Intn(21)-10) // w ∈ [2^-10, 2^11)
		}
		in := dlt.Instance{Network: net, Z: z, W: w}
		bids, exec := randomProfile(rng, in)
		mech := Mechanism{Network: net, Z: z}
		fast, errFast := mech.Run(bids, exec)
		naive, errNaive := mech.RunNaive(bids, exec)
		if (errFast == nil) != (errNaive == nil) {
			t.Fatalf("error mismatch: fast %v, naive %v", errFast, errNaive)
		}
		if errFast != nil {
			return
		}
		requireOutcomesMatch(t, fast, naive)
	})
}
