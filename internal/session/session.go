// Package session runs a SEQUENCE of divisible-load jobs over the same
// processor pool — the setting a real deployment lives in. One-shot
// DLS-BL-NCP already makes a single deviation unprofitable (the fine);
// repeated play adds the second deterrent the paper's economics imply but
// never spell out: a processor caught cheating can be excluded from
// future jobs, forfeiting its stream of bonuses. The session tracks the
// cumulative ledger across rounds and implements pluggable reputation
// policies.
//
// The package exposes two granularities. Run plays a fixed slice of jobs
// and returns an aggregate Report — the one-shot experiment shape. State
// and Step expose the same machinery one round at a time, so a
// long-running owner (internal/service keeps one State per named pool)
// can interleave rounds with other work while the reputation state and
// the warm Keys ring persist between jobs.
package session

import (
	"errors"
	"fmt"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/pipeline"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

// Policy decides what happens to processors the referee fined.
type Policy int

const (
	// Forgive keeps fined processors in the pool: every job stands alone
	// and the fine is the only deterrent.
	Forgive Policy = iota
	// BanDeviants excludes a fined processor from all subsequent jobs:
	// it also forfeits its future bonuses.
	BanDeviants
)

// String names the policy.
func (p Policy) String() string {
	if p == Forgive {
		return "forgive"
	}
	return "ban-deviants"
}

// Job is one round: the communication rate of this job's bus session, a
// seed, and per-processor behaviors for the round (nil = all honest).
type Job struct {
	Z         float64
	Seed      int64
	Behaviors []agent.Behavior
	// NBlocks overrides the number of blocks the round's load is divided
	// into; zero selects the protocol default (64·m blocks).
	NBlocks int
	// Faults, when non-nil, runs this round over an unreliable bus (see
	// bus.FaultPlan); Retry bounds the round's retransmission machinery.
	// A processor EVICTED for unreachability is not a deviant: it is not
	// fined, and BanDeviants does not exclude it from later rounds — a
	// transient outage must not carry the permanent penalty reserved for
	// strategic cheating. In a Multiload pool, a member evicted during
	// Bidding leaves the pool's bid session for good (later jobs are
	// served without it); a member evicted by a later crash (a
	// Crashes entry, fired during Processing) misses only that job and
	// keeps its cached bid.
	Faults *bus.FaultPlan
	Retry  protocol.RetryPolicy
	// Tracer receives this round's span and event records (see
	// protocol.Config.Tracer); nil costs nothing.
	Tracer obs.Tracer
	// Installments pipelines this job: > 1 serves the load in that many
	// installment sub-rounds (pipeline.RunLoad) under InstallmentPolicy,
	// overlapping communication with computation. Requires Multiload (the
	// sub-rounds ride the pool's cached bids) and an overlap-capable
	// network class; 0 or 1 serves the load whole, unchanged.
	Installments      int
	InstallmentPolicy dlt.RoundPolicy
}

// Session is a processor pool playing repeated jobs.
type Session struct {
	// Network is NCPFE or NCPNFE (DLS-BL-NCP classes).
	Network dlt.Network
	// TrueW are the pool's private processing rates.
	TrueW []float64
	// Fine is the per-job fine magnitude F (0 = derived per job).
	Fine float64
	// Policy is the reputation rule.
	Policy Policy
	// Keys, when non-nil, keeps the pool warm between rounds: every round
	// reuses the ring's cached Ed25519 pairs instead of regenerating
	// them, cutting the dominant per-run cost. Payments are unaffected
	// (see protocol.Config.Keys).
	Keys *sig.Keyring
	// Multiload amortizes the Bidding phase across the pool's rounds via
	// a protocol.BidSession: the pool bids once and every later round is
	// served from the cached signed bids — Θ(m) control-plane traffic per
	// job instead of Θ(m²) — re-bidding automatically when the effective
	// bid profile changes (a ban forcing abstention, a behavior change
	// that moves a bid, an eviction). The first multiload round's Z
	// founds the bid session; later rounds must carry the same Z. The
	// economics are identical either way (see TestBidReuseParityProperty).
	Multiload bool
	// Memo, when non-nil, is the pool's shared verified-envelope memo
	// (see protocol.Config.Memo). Non-multiload rounds thread it into
	// each protocol.Run, which otherwise gets a fresh memo per round;
	// multiload pools pass it to the BidSession, which otherwise creates
	// its own.
	Memo *sig.VerifyMemo
}

// State is the reputation state a pool carries between rounds. Step
// mutates it in place; a fresh NewState starts a pool with a clean
// record.
type State struct {
	// Round counts the jobs played so far.
	Round int
	// CumulativeUtility[i] sums processor i's utility over all rounds.
	CumulativeUtility []float64
	// Banned[i] is true if processor i was excluded at some point;
	// BannedAfter[i] is the round index whose verdict banned it (-1 if
	// never).
	Banned      []bool
	BannedAfter []int
	// Traffic accumulates the pool's control-plane bus traffic across
	// rounds, and — under Multiload — the traffic bid reuse avoided.
	Traffic TrafficStats

	// bid is the pool's amortized bidding session (Multiload only),
	// created lazily on the first Step; bidZ is the Z it was founded
	// with.
	bid  *protocol.BidSession
	bidZ float64
}

// TrafficStats totals a pool's control-plane traffic across rounds.
type TrafficStats struct {
	// Messages / Deliveries / Units are what actually crossed the bus
	// (bus.Stats semantics: Messages counts a broadcast once, Deliveries
	// counts receiver-side arrivals — the Θ(m²) term).
	Messages   int
	Deliveries int
	Units      int
	// MessagesSaved / DeliveriesSaved / UnitsSaved total the Bidding
	// exchanges that bid reuse avoided; zero outside Multiload.
	MessagesSaved   int
	DeliveriesSaved int
	UnitsSaved      int
}

// BidStats reports the pool's amortized-bidding counters (zero value
// outside Multiload or before the first round).
func (st *State) BidStats() protocol.SessionStats {
	if st.bid == nil {
		return protocol.SessionStats{}
	}
	return st.bid.Stats()
}

// Report aggregates a session.
type Report struct {
	// Rounds holds each job's protocol outcome, in order.
	Rounds []*protocol.Outcome
	// CumulativeUtility[i] sums processor i's utility over all rounds.
	CumulativeUtility []float64
	// Banned[i] is true if processor i was excluded at some point;
	// BannedAfter[i] is the round index whose verdict banned it (-1 if
	// never).
	Banned      []bool
	BannedAfter []int
}

// NewState validates the pool and returns a clean reputation state.
func (s *Session) NewState() (*State, error) {
	m := len(s.TrueW)
	if m < 2 {
		return nil, errors.New("session: need at least two processors")
	}
	if s.Network != dlt.NCPFE && s.Network != dlt.NCPNFE {
		return nil, fmt.Errorf("session: DLS-BL-NCP requires an NCP class, got %v", s.Network)
	}
	st := &State{
		CumulativeUtility: make([]float64, m),
		Banned:            make([]bool, m),
		BannedAfter:       make([]int, m),
	}
	for i := range st.BannedAfter {
		st.BannedAfter[i] = -1
	}
	return st, nil
}

// Step plays one job against the pool, forcing processors st has banned
// to abstain, and folds the outcome into st. Under BanDeviants a fined
// processor is banned from subsequent rounds; banning the
// load-originating processor returns the round's outcome together with an
// error (the pool has no load source without it) and leaves the ban
// unrecorded, exactly as Run ends the session there. A protocol-level
// failure returns a nil outcome and leaves st untouched.
func (s *Session) Step(st *State, job Job) (*protocol.Outcome, error) {
	m := len(s.TrueW)
	origIdx := s.Network.Originator(m)
	behaviors := make([]agent.Behavior, m)
	for i := 0; i < m; i++ {
		if i < len(job.Behaviors) {
			behaviors[i] = job.Behaviors[i]
		}
		if st.Banned[i] {
			behaviors[i] = agent.Behavior{Name: "banned", Abstain: true}
		}
	}
	var out *protocol.Outcome
	var err error
	if job.Installments > 1 && !s.Multiload {
		return nil, fmt.Errorf("session: round %d: installment pipelining requires a Multiload pool", st.Round)
	}
	if s.Multiload {
		out, err = s.stepMultiload(st, job, behaviors)
	} else {
		out, err = protocol.Run(protocol.Config{
			Network:   s.Network,
			Z:         job.Z,
			TrueW:     s.TrueW,
			Behaviors: behaviors,
			Fine:      s.Fine,
			NBlocks:   job.NBlocks,
			Seed:      job.Seed,
			Faults:    job.Faults,
			Retry:     job.Retry,
			Keys:      s.Keys,
			Tracer:    job.Tracer,
			Memo:      s.Memo,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("session: round %d: %w", st.Round, err)
	}
	st.Traffic.Messages += out.BusStats.Messages
	st.Traffic.Deliveries += out.BusStats.Deliveries
	st.Traffic.Units += out.BusStats.Units
	if st.bid != nil {
		bs := st.bid.Stats()
		st.Traffic.MessagesSaved = bs.SavedMessages
		st.Traffic.DeliveriesSaved = bs.SavedDeliveries
		st.Traffic.UnitsSaved = bs.SavedUnits
	}
	round := st.Round
	st.Round++
	for i := 0; i < m; i++ {
		st.CumulativeUtility[i] += out.Utilities[i]
	}
	if s.Policy == BanDeviants {
		for i := 0; i < m; i++ {
			if out.Fines[i] > 0 && !st.Banned[i] {
				if i == origIdx {
					return out, fmt.Errorf("session: round %d banned the load-originating processor P%d; the pool has no load source", round, i+1)
				}
				st.Banned[i] = true
				st.BannedAfter[i] = round
			}
		}
	}
	return out, nil
}

// stepMultiload serves one round from the pool's BidSession, founding it
// on first use. Bans flow in as Abstain behaviors, so a freshly banned
// processor flips the bid profile and the session re-bids on its own —
// Step never needs to tell it.
func (s *Session) stepMultiload(st *State, job Job, behaviors []agent.Behavior) (*protocol.Outcome, error) {
	if st.bid == nil {
		bid, err := protocol.NewBidSession(protocol.Config{
			Network: s.Network,
			Z:       job.Z,
			TrueW:   s.TrueW,
			Fine:    s.Fine,
			Keys:    s.Keys,
			Memo:    s.Memo,
		})
		if err != nil {
			return nil, err
		}
		st.bid, st.bidZ = bid, job.Z
	}
	if job.Z != st.bidZ {
		return nil, fmt.Errorf("session: multiload pool founded with z=%v cannot serve a job with z=%v", st.bidZ, job.Z)
	}
	jc := protocol.JobConfig{
		Seed:      job.Seed,
		NBlocks:   job.NBlocks,
		Behaviors: behaviors,
		Faults:    job.Faults,
		Retry:     job.Retry,
		Tracer:    job.Tracer,
	}
	if job.Installments > 1 {
		return pipeline.RunLoad(st.bid, pipeline.Load{
			Job:    jc,
			Rounds: job.Installments,
			Policy: job.InstallmentPolicy,
		})
	}
	return st.bid.Run(jc)
}

// Run plays the jobs in order. Under BanDeviants, a processor fined in
// round r is forced to abstain from rounds r+1…; banning the
// load-originating processor ends the session with an error (the pool
// has no load source without it).
func (s *Session) Run(jobs []Job) (*Report, error) {
	if len(jobs) == 0 {
		return nil, errors.New("session: no jobs")
	}
	st, err := s.NewState()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		CumulativeUtility: st.CumulativeUtility,
		Banned:            st.Banned,
		BannedAfter:       st.BannedAfter,
	}
	for _, job := range jobs {
		out, err := s.Step(st, job)
		if out != nil {
			rep.Rounds = append(rep.Rounds, out)
		}
		if err != nil {
			if out == nil {
				return nil, err
			}
			return rep, err
		}
	}
	return rep, nil
}
