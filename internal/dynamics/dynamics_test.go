package dynamics

import (
	"math/rand"
	"testing"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
)

// lazyFirstSlack lists slack candidates laziest-first so that ties expose
// indifference (see the tie-resolution comment in Run).
var lazyFirstSlack = []float64{2, 1.5, 1.25, 1}

var bidGrid = []float64{0.5, 0.75, 1, 1.25, 1.5, 2}

// converged reports whether the final profile is fully truthful in bids
// and fully full-speed.
func converged(tr *Trace) bool {
	for _, b := range tr.Final.BidFactors {
		if b != 1 {
			return false
		}
	}
	for _, s := range tr.Final.SlackFactors {
		if s != 1 {
			return false
		}
	}
	return true
}

func baseConfig(rule core.PaymentRule, seed int64) Config {
	return Config{
		Network:   dlt.NCPFE,
		Z:         0.2,
		TrueW:     []float64{1, 1.5, 2, 2.5, 3},
		Rule:      rule,
		BidGrid:   bidGrid,
		SlackGrid: lazyFirstSlack,
		Rounds:    4 * 5, // four full sweeps
		Seed:      seed,
	}
}

func TestValidation(t *testing.T) {
	ok := baseConfig(core.WithVerification, 1)
	bad := []func(Config) Config{
		func(c Config) Config { c.TrueW = []float64{1}; return c },
		func(c Config) Config { c.BidGrid = nil; return c },
		func(c Config) Config { c.SlackGrid = nil; return c },
		func(c Config) Config { c.SlackGrid = []float64{0.5}; return c },
		func(c Config) Config { c.BidGrid = []float64{0}; return c },
		func(c Config) Config { c.Rounds = 0; return c },
	}
	for i, mut := range bad {
		if _, err := Run(mut(ok)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestVerifiedConvergesToTruth: under the paper's rule, best response
// lands every agent at bid factor 1 AND slack 1, from any random start.
func TestVerifiedConvergesToTruth(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tr, err := Run(baseConfig(core.WithVerification, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !converged(tr) {
			t.Errorf("seed %d: final state %+v not truthful", seed, tr.Final)
		}
		last := tr.Stats[len(tr.Stats)-1]
		if last.MeanBidDev != 0 || last.MeanSlack != 1 {
			t.Errorf("seed %d: final stats %+v", seed, last)
		}
	}
}

// TestUnverifiedRaceToTheBottom: without the meter, honesty collapses
// completely. An underbid claims more speed, grabs more load, and the
// realized makespan is evaluated at the (unexposed) lie, so the bonus
// only grows: every agent best-responds to the LOWEST bid factor on the
// grid. Slack is payoff-indifferent, so lazy-first tie-breaking parks it
// at the lazy cap. Verification is what anchors both knobs to the truth.
func TestUnverifiedRaceToTheBottom(t *testing.T) {
	minBid := bidGrid[0]
	for _, b := range bidGrid {
		if b < minBid {
			minBid = b
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		tr, err := Run(baseConfig(core.WithoutVerification, seed))
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range tr.Final.BidFactors {
			if b != minBid {
				t.Errorf("seed %d: agent %d bid factor %v, expected the race-to-the-bottom %v",
					seed, i, b, minBid)
			}
		}
		for i, s := range tr.Final.SlackFactors {
			if s != lazyFirstSlack[0] {
				t.Errorf("seed %d: agent %d slack %v, expected the lazy cap %v",
					seed, i, s, lazyFirstSlack[0])
			}
		}
	}
}

// TestOnePassSuffices: strategyproofness means best response against ANY
// profile is truthful, so a single sweep already fixes every bid.
func TestOnePassSuffices(t *testing.T) {
	cfg := baseConfig(core.WithVerification, 3)
	cfg.Rounds = len(cfg.TrueW) // exactly one sweep
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !converged(tr) {
		t.Errorf("one sweep did not suffice: %+v", tr.Final)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Run(baseConfig(core.WithVerification, 9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(core.WithVerification, 9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stats {
		if a.Stats[i] != b.Stats[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

// TestTraceShape: stats recorded per round with sensible bounds.
func TestTraceShape(t *testing.T) {
	cfg := baseConfig(core.WithVerification, 5)
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stats) != cfg.Rounds {
		t.Fatalf("%d stats for %d rounds", len(tr.Stats), cfg.Rounds)
	}
	for _, s := range tr.Stats {
		if s.MeanBidDev < 0 || s.MeanSlack < 1 || s.TruthfulBids < 0 || s.TruthfulBids > len(cfg.TrueW) {
			t.Errorf("implausible stat %+v", s)
		}
	}
}

// TestRandomInstances: convergence holds on random regime-safe instances,
// not just the fixture.
func TestRandomInstancesConverge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		in := core.RegimeSafeInstance(rng, dlt.NCPFE, 2+rng.Intn(5))
		cfg := Config{
			Network:   dlt.NCPFE,
			Z:         in.Z,
			TrueW:     in.W,
			Rule:      core.WithVerification,
			BidGrid:   bidGrid,
			SlackGrid: lazyFirstSlack,
			Rounds:    2 * in.M(),
			Seed:      int64(trial),
		}
		tr, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !converged(tr) {
			t.Errorf("trial %d: no convergence on %+v: %+v", trial, in, tr.Final)
		}
	}
}
