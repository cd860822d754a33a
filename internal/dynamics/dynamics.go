// Package dynamics runs best-response bidding dynamics on top of the
// DLS-BL mechanism: agents repeatedly re-optimize their bid and execution
// strategies against everyone else's current strategies. Strategyproofness
// (Theorem 3.1) says truth-telling is a dominant strategy, so the
// truthful profile is the unique fixed point and best response should
// converge to it in one pass per agent; the verification ablation says
// the execution knob loses its anchor without the meter. This package
// measures both claims instead of assuming them.
package dynamics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
)

// Config describes one dynamics run.
type Config struct {
	Network dlt.Network
	Z       float64
	TrueW   []float64
	// Rule selects the payment rule (the E12 ablation knob).
	Rule core.PaymentRule
	// BidGrid are the candidate bid factors b/t an updating agent
	// considers; it must contain 1 for the truthful fixed point to be
	// reachable.
	BidGrid []float64
	// SlackGrid are the candidate execution factors w̃/t (values < 1 are
	// physically impossible and rejected).
	SlackGrid []float64
	// Rounds is the number of best-response updates (one agent per
	// round, round-robin).
	Rounds int
	// Seed drives the random initial strategies.
	Seed int64
}

func (c Config) validate() error {
	if len(c.TrueW) < 2 {
		return errors.New("dynamics: need at least two agents")
	}
	if len(c.BidGrid) == 0 || len(c.SlackGrid) == 0 {
		return errors.New("dynamics: empty strategy grids")
	}
	for _, g := range c.BidGrid {
		if !(g > 0) || math.IsInf(g, 0) {
			return fmt.Errorf("dynamics: invalid bid factor %v", g)
		}
	}
	for _, s := range c.SlackGrid {
		if !(s >= 1) || math.IsInf(s, 0) {
			return fmt.Errorf("dynamics: invalid slack factor %v (must be ≥ 1)", s)
		}
	}
	if c.Rounds <= 0 {
		return errors.New("dynamics: rounds must be positive")
	}
	return nil
}

// State is the strategy profile at some instant.
type State struct {
	BidFactors   []float64
	SlackFactors []float64
}

// RoundStat summarizes the profile after one update round.
type RoundStat struct {
	Round        int
	MeanBidDev   float64 // mean |bid factor − 1|
	MeanSlack    float64 // mean slack factor
	TruthfulBids int     // agents with bid factor exactly 1
}

// Trace is the full history of a dynamics run.
type Trace struct {
	Stats []RoundStat
	Final State
}

// Run executes the best-response dynamics.
func Run(cfg Config) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := len(cfg.TrueW)
	rng := rand.New(rand.NewSource(cfg.Seed))

	state := State{
		BidFactors:   make([]float64, m),
		SlackFactors: make([]float64, m),
	}
	for i := 0; i < m; i++ {
		state.BidFactors[i] = cfg.BidGrid[rng.Intn(len(cfg.BidGrid))]
		state.SlackFactors[i] = cfg.SlackGrid[rng.Intn(len(cfg.SlackGrid))]
	}

	// Best-response dynamics run the mechanism rounds·|grid|² times; one
	// payment engine with reused buffers keeps the whole loop free of
	// per-run allocations.
	eng := core.NewPaymentEngine(cfg.Network, cfg.Z)
	var payOut core.Outcome
	bids := make([]float64, m)
	exec := make([]float64, m)
	utility := func(st State, agent int) (float64, error) {
		for j := 0; j < m; j++ {
			bids[j] = cfg.TrueW[j] * st.BidFactors[j]
			exec[j] = math.Max(cfg.TrueW[j], cfg.TrueW[j]*st.SlackFactors[j])
		}
		if err := eng.RunInto(bids, exec, cfg.Rule, &payOut); err != nil {
			return 0, err
		}
		return payOut.Utility[agent], nil
	}

	tr := &Trace{}
	for round := 0; round < cfg.Rounds; round++ {
		i := round % m
		bestU := math.Inf(-1)
		bestBid, bestSlack := state.BidFactors[i], state.SlackFactors[i]
		for _, bf := range cfg.BidGrid {
			for _, sf := range cfg.SlackGrid {
				cand := state
				cand.BidFactors = append([]float64(nil), state.BidFactors...)
				cand.SlackFactors = append([]float64(nil), state.SlackFactors...)
				cand.BidFactors[i] = bf
				cand.SlackFactors[i] = sf
				u, err := utility(cand, i)
				if err != nil {
					return nil, err
				}
				// Ties resolve to the EARLIEST grid candidate, so the
				// grid order encodes the agent's lexicographic
				// preference among payoff-equal strategies. Listing lazy
				// strategies first exposes indifference: under the
				// unverified rule slacking costs nothing, and the agent
				// will happily sit at the laziest tied option.
				if u > bestU+1e-12 {
					bestU = u
					bestBid, bestSlack = bf, sf
				}
			}
		}
		state.BidFactors[i] = bestBid
		state.SlackFactors[i] = bestSlack

		stat := RoundStat{Round: round}
		for j := 0; j < m; j++ {
			stat.MeanBidDev += math.Abs(state.BidFactors[j] - 1)
			stat.MeanSlack += state.SlackFactors[j]
			if state.BidFactors[j] == 1 {
				stat.TruthfulBids++
			}
		}
		stat.MeanBidDev /= float64(m)
		stat.MeanSlack /= float64(m)
		tr.Stats = append(tr.Stats, stat)
	}
	tr.Final = state
	return tr, nil
}
