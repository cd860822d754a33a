// Package session runs a SEQUENCE of divisible-load jobs over the same
// processor pool — the setting a real deployment lives in. One-shot
// DLS-BL-NCP already makes a single deviation unprofitable (the fine);
// repeated play adds the second deterrent the paper's economics imply but
// never spell out: a processor caught cheating can be excluded from
// future jobs, forfeiting its stream of bonuses. The session tracks the
// cumulative ledger across rounds and implements pluggable reputation
// policies.
//
// Every pool serves its jobs from one protocol.BidSession, founded on the
// first job: the pool bids once and later jobs reuse the verified bids,
// re-bidding only when the bid profile changes. A bid is a per-unit
// processing time, so one bid set serves every job whatever its z, and
// the economics of each job are those of a standalone protocol.Run.
//
// The package exposes two granularities. Run plays a fixed slice of jobs
// and returns an aggregate Report — the one-shot experiment shape. State
// and Step expose the same machinery one round at a time, so a
// long-running owner (internal/service keeps one State per named pool)
// can interleave rounds with other work while the reputation state, the
// bid cache and the warm Keys ring persist between jobs.
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
	// strategic cheating. An evicted member misses only this job. One
	// evicted during Bidding forces a full bid exchange on the next job
	// it plays; one evicted by a later crash (a Crashes entry, fired
	// during Processing) keeps its cached bid.
	Faults *bus.FaultPlan
	Retry  protocol.RetryPolicy
	// Tracer receives this round's span and event records (see
	// protocol.Config.Tracer); nil costs nothing.
	Tracer obs.Tracer
	// Installments pipelines this job: > 1 serves the load in that many
	// installment sub-rounds (pipeline.RunLoad) under InstallmentPolicy,
	// overlapping communication with computation; the sub-rounds ride the
	// pool's cached bids. Requires an overlap-capable network class
	// (NCP-FE); 0 or 1 serves the load whole, unchanged.
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
	// (see protocol.Config.Keys). Nil gives the bid session a ring of its
	// own.
	Keys *sig.Keyring
	// Memo, when non-nil, is the pool's shared verified-envelope memo
	// (see protocol.Config.Memo); nil gives the bid session a memo of its
	// own.
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
	// rounds, and the traffic bid reuse avoided.
	Traffic TrafficStats

	// bid is the pool's bid session, founded on the first Step with that
	// job's Z (the founding Z salts the round IDs; later jobs set their
	// own).
	bid *protocol.BidSession
}

// TrafficStats totals a pool's control-plane traffic across rounds.
type TrafficStats struct {
	// Messages / Deliveries / Units are what the settled rounds sent
	// (bus.Stats semantics: Messages counts a broadcast once, Deliveries
	// counts receiver-side arrivals — the Θ(m²) term). A cached attempt
	// that fell back to the full exchange is not counted here.
	Messages   int
	Deliveries int
	Units      int
	// MessagesSaved / DeliveriesSaved / UnitsSaved total the Bidding
	// exchanges that bid reuse avoided.
	MessagesSaved   int
	DeliveriesSaved int
	UnitsSaved      int
}

// BidStats reports the pool's amortized-bidding counters (zero value
// before the first round).
func (st *State) BidStats() protocol.SessionStats {
	if st.bid == nil {
		return protocol.SessionStats{}
	}
	return st.bid.Stats()
}

// DropBidCache discards the pool's cached bid set (see
// protocol.BidSession.DropCache), so its next job runs a full bid
// exchange; before the first job there is nothing to drop.
func (st *State) DropBidCache() {
	if st.bid != nil {
		st.bid.DropCache()
	}
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
	// Rates no round can serve fail here, not on every later job.
	if err := (dlt.Instance{Network: s.Network, W: s.TrueW}).Validate(); err != nil {
		return nil, fmt.Errorf("session: %w", err)
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
// to abstain, and folds the outcome into st. The job is served from the
// pool's BidSession, founded on the first Step. Bans flow in as Abstain
// behaviors, so a freshly banned processor flips the bid profile and the
// session re-bids on its own. Under BanDeviants a fined processor is
// banned from subsequent rounds; banning the load-originating processor
// returns the round's outcome together with an error (the pool has no
// load source without it) and leaves the ban unrecorded, exactly as Run
// ends the session there. A protocol-level failure returns a nil outcome
// and leaves the reputation state and traffic totals untouched.
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
	fail := func(err error) (*protocol.Outcome, error) {
		return nil, fmt.Errorf("session: round %d: %w", st.Round, err)
	}
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
			return fail(err)
		}
		st.bid = bid
	}
	st.bid.SetZ(job.Z)
	jc := protocol.JobConfig{
		Seed:      job.Seed,
		NBlocks:   job.NBlocks,
		Behaviors: behaviors,
		Faults:    job.Faults,
		Retry:     job.Retry,
		Tracer:    job.Tracer,
	}
	var out *protocol.Outcome
	var err error
	if job.Installments > 1 {
		out, err = pipeline.RunLoad(st.bid, pipeline.Load{
			Job:    jc,
			Rounds: job.Installments,
			Policy: job.InstallmentPolicy,
		})
	} else {
		out, err = st.bid.Run(jc)
	}
	if err != nil {
		return fail(err)
	}
	st.Traffic.Messages += out.BusStats.Messages
	st.Traffic.Deliveries += out.BusStats.Deliveries
	st.Traffic.Units += out.BusStats.Units
	bs := st.bid.Stats()
	st.Traffic.MessagesSaved = bs.SavedMessages
	st.Traffic.DeliveriesSaved = bs.SavedDeliveries
	st.Traffic.UnitsSaved = bs.SavedUnits
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
