package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"dlsbl/internal/dlt"
)

// variants are the four centralized extensions of DLS-BL, each run on a
// bid/exec profile with its remaining parameters drawn from rng: links
// for the star, z for the chain, the class, z and both overheads for the
// affine costs, and true links with some lied about for the two-parameter
// bids.
var variants = []struct {
	name string
	run  func(rng *rand.Rand, bids, exec []float64) (*Outcome, error)
}{
	{"star", func(rng *rand.Rand, bids, exec []float64) (*Outcome, error) {
		return StarMechanism{Z: drawLinks(rng, len(bids))}.Run(bids, exec)
	}},
	{"chain", func(rng *rand.Rand, bids, exec []float64) (*Outcome, error) {
		return LinearMechanism{Z: 0.02 + rng.Float64()*0.4}.Run(bids, exec)
	}},
	{"affine", func(rng *rand.Rand, bids, exec []float64) (*Outcome, error) {
		mech := AffineMechanism{Network: dlt.Networks[rng.Intn(len(dlt.Networks))], Z: 0.02 + rng.Float64()*0.47}
		mech.Scm, mech.Scp = rng.Float64()*0.3, rng.Float64()*0.2
		return mech.Run(bids, exec)
	}},
	{"two-param", func(rng *rand.Rand, bids, exec []float64) (*Outcome, error) {
		wire := drawLinks(rng, len(bids))
		bidZ := append([]float64(nil), wire...)
		for i := range bidZ {
			if rng.Intn(3) == 0 {
				bidZ[i] *= 0.25 + rng.Float64()*3.75
			}
		}
		return TwoParamStarMechanism{}.RunTwoParam(bids, bidZ, exec, wire)
	}},
}

func drawLinks(rng *rand.Rand, m int) []float64 {
	z := make([]float64, m)
	for i := range z {
		z[i] = 0.02 + rng.Float64()*0.4
	}
	return z
}

// sweepVariants runs every variant on 100 profiles drawn from a source
// seeded with seed: m from 2 to 12, and an execution value at or above
// each bid (half of them slower than the bid).
func sweepVariants(t *testing.T, seed int64, check func(variant string, out *Outcome)) {
	t.Helper()
	for _, v := range variants {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 100; k++ {
			m := 2 + rng.Intn(11)
			bids := make([]float64, m)
			exec := make([]float64, m)
			for i := range bids {
				bids[i] = 0.5 + rng.Float64()*7.5
				exec[i] = bids[i]
				if rng.Intn(2) == 0 {
					exec[i] *= 1 + rng.Float64()
				}
			}
			out, err := v.run(rng, bids, exec)
			if err != nil {
				t.Fatalf("%s profile %d: %v", v.name, k, err)
			}
			check(v.name, out)
		}
	}
}

// hashOutcome writes the bits of every float of out but Utility into h.
func hashOutcome(h hash.Hash, out *Outcome) {
	var buf [8]byte
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	put(out.Alloc...)
	put(out.Compensation...)
	put(out.Bonus...)
	put(out.Payment...)
	put(out.Valuation...)
	put(out.MakespanBid)
	put(out.MakespanWithout...)
	put(out.MakespanRealized...)
	put(out.UserCost)
}

// variantDigests are the SHA-256 digests of sweepVariants(3100) per
// variant, taken when each variant still priced its agents in a loop of
// its own. Utility is left out: it was Q + V then and is B now.
var variantDigests = map[string]string{
	"star":      "042ca957da6702a950b1e11d9b947c36b22db0125b979cb9af1a7d3d575c6c1c",
	"chain":     "08b3612498501d5ed39f9798289c7cc934fa5a1e9d55a6d18af9c018060511bc",
	"affine":    "0b70bb6c6615ad8d18befded869e241230d3bb9911a8c464aeea372f58193080",
	"two-param": "5c0553ca35be8f279f4aa33b9565714da963c9a9f9263dafd56f79de7006a738",
}

// TestVariantsParityDigest pins every allocation share, payment
// component, makespan and user cost the four variants return, bit for
// bit, on a seeded sweep.
func TestVariantsParityDigest(t *testing.T) {
	hashes := map[string]hash.Hash{}
	sweepVariants(t, 3100, func(variant string, out *Outcome) {
		if hashes[variant] == nil {
			hashes[variant] = sha256.New()
		}
		hashOutcome(hashes[variant], out)
	})
	for _, v := range variants {
		if got := hex.EncodeToString(hashes[v.name].Sum(nil)); got != variantDigests[v.name] {
			t.Errorf("%s: digest %s, want %s", v.name, got, variantDigests[v.name])
		}
	}
}

// checkVariantOutcome holds a priced outcome to Section 3's recipe: every
// float finite, Q_i = C_i + B_i and U_i = B_i bit for bit.
func checkVariantOutcome(out *Outcome) error {
	all := [][]float64{out.Alloc, out.Compensation, out.Bonus, out.Payment, out.Valuation,
		out.Utility, out.MakespanWithout, out.MakespanRealized, {out.MakespanBid, out.UserCost}}
	for _, xs := range all {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("non-finite output %v with a nil error: %+v", x, out)
			}
		}
	}
	for i := range out.Payment {
		if q := out.Compensation[i] + out.Bonus[i]; math.Float64bits(out.Payment[i]) != math.Float64bits(q) {
			return fmt.Errorf("Q[%d] = %v, C + B = %v", i, out.Payment[i], q)
		}
		if math.Float64bits(out.Utility[i]) != math.Float64bits(out.Bonus[i]) {
			return fmt.Errorf("U[%d] = %v, B = %v", i, out.Utility[i], out.Bonus[i])
		}
	}
	return nil
}

// TestVariantsUtilityIsBonus: every variant reports U_i = B_i bit for
// bit, the collapse Section 3 proves, not Q_i + V_i rounded twice.
func TestVariantsUtilityIsBonus(t *testing.T) {
	sweepVariants(t, 3101, func(variant string, out *Outcome) {
		if err := checkVariantOutcome(out); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	})
}

// TestVariantsFailClosed: a variant whose solver overflows, or whose
// overheads are infinite, returns an error instead of a NaN payment.
func TestVariantsFailClosed(t *testing.T) {
	bids := []float64{1, 2, 3}
	for _, mech := range []AffineMechanism{
		{Network: dlt.CP, Z: 0.1, Scm: math.Inf(1)},
		{Network: dlt.NCPFE, Z: 0.1, Scp: math.Inf(1)},
	} {
		if out, err := mech.Run(bids, bids); err == nil {
			t.Errorf("%+v priced: α=%v Q=%v", mech, out.Alloc, out.Payment)
		}
	}
	if out, err := (LinearMechanism{Z: 1e155}).Run(bids, bids); err == nil {
		t.Errorf("overflowing chain priced: α=%v Q=%v", out.Alloc, out.Payment)
	}
	out, err := LinearMechanism{Z: 1e150}.Run(bids, bids)
	if err != nil {
		t.Fatalf("z = 1e150: %v", err)
	}
	if err := checkVariantOutcome(out); err != nil {
		t.Errorf("z = 1e150: %v", err)
	}
}

// fuzzFloats encodes FuzzVariants' raw vectors.
func fuzzFloats(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzVariants runs all four variants on one decoded input: shape picks
// m ∈ [2, 16] and the affine class; raw holds the bids, then the
// execution values, the star's links and the two-parameter agents' true
// links, m floats each (missing ones default to 1…m, the bids, z and the
// links). No variant may panic, return a non-finite output with a nil
// error, or break Q = C + B or U = B in the last bit.
func FuzzVariants(f *testing.F) {
	f.Add(uint8(1), 0.1, 0.1, 0.05, fuzzFloats(1, 2, 3, 1.5, 2, 3.5, 0.1, 0.3, 0.2, 0.1, 0.3, 0.4))
	f.Add(uint8(1), 0.1, math.Inf(1), 0.0, fuzzFloats(1, 2, 3, 1, 2, 3))
	f.Add(uint8(1), 1e155, 0.0, 0.0, fuzzFloats(1, 2, 3, 1, 2, 3))
	f.Add(uint8(40), 0.3, 0.0, 1e300, fuzzFloats(1e300, 5e-324))
	f.Fuzz(func(t *testing.T, shape uint8, z, scm, scp float64, raw []byte) {
		m := 2 + int(shape)%15
		net := dlt.Networks[int(shape)/15%len(dlt.Networks)]
		vec := func(def func(i int) float64) []float64 {
			xs := make([]float64, m)
			for i := range xs {
				xs[i] = def(i)
				if len(raw) >= 8 {
					xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
					raw = raw[8:]
				}
			}
			return xs
		}
		bids := vec(func(i int) float64 { return float64(i + 1) })
		exec := vec(func(i int) float64 { return bids[i] })
		links := vec(func(int) float64 { return z })
		wire := vec(func(i int) float64 { return links[i] })
		runs := []struct {
			name string
			run  func() (*Outcome, error)
		}{
			{"star", func() (*Outcome, error) { return StarMechanism{Z: links}.Run(bids, exec) }},
			{"chain", func() (*Outcome, error) { return LinearMechanism{Z: z}.Run(bids, exec) }},
			{"affine", func() (*Outcome, error) {
				return AffineMechanism{Network: net, Z: z, Scm: scm, Scp: scp}.Run(bids, exec)
			}},
			{"two-param", func() (*Outcome, error) {
				return TwoParamStarMechanism{}.RunTwoParam(bids, links, exec, wire)
			}},
		}
		for _, r := range runs {
			out, err := r.run()
			if err != nil {
				continue
			}
			if err := checkVariantOutcome(out); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
	})
}
