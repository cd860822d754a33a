// Package protocol executes the DLS-BL-NCP mechanism end-to-end
// (Section 4 of the paper): m strategic processors on a bus network
// without a control processor run the five phases — Initialization,
// Bidding, Allocating Load, Processing Load, Computing Payments — with a
// passive referee adjudicating deviations and a payment ledger settling
// compensations, bonuses, fines and rewards.
//
// The processors follow pluggable strategies (internal/agent), so every
// deviation class the paper enumerates can be injected and its economic
// consequence measured. A Run produces a full Outcome: bids, allocation,
// realized schedule, meter readings, payments, fines, per-processor
// utilities and the bus traffic statistics behind the Θ(m²)
// communication-complexity theorem.
package protocol

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
	"dlsbl/internal/workload"
)

// Reserved ledger/bus identities.
const (
	UserID = "user"
)

// Config describes one protocol run.
type Config struct {
	// Network must be NCPFE or NCPNFE — the two classes DLS-BL-NCP
	// targets. (The CP class has a trusted control processor and runs
	// DLS-BL directly via internal/core.)
	Network dlt.Network
	// Z is the per-unit communication time of the bus.
	Z float64
	// TrueW are the private per-unit processing times t_i = w_i.
	TrueW []float64
	// Behaviors assigns a strategy to each processor; nil entries and a
	// short slice default to honest.
	Behaviors []agent.Behavior
	// Fine is the publicly known fine magnitude F. Zero selects
	// referee.SuggestedFine over the bids.
	Fine float64
	// NBlocks is the number of equal-sized blocks the load is divided
	// into; zero selects 64·m blocks.
	NBlocks int
	// Seed drives key generation.
	Seed int64
	// Faults, when non-nil, replaces the paper's reliable atomic-broadcast
	// bus with a seeded adversarial link layer (drops, duplicates, delays,
	// signature-breaking corruption, reordering, latency jitter, crashed
	// endpoints). The protocol then runs its reliable-transport machinery:
	// nonce-deduplicated retransmission with capped exponential backoff,
	// and eviction of unreachable processors with survivor re-allocation.
	// Nil keeps the reliable bus and costs nothing.
	Faults *bus.FaultPlan
	// Retry bounds the retransmission machinery; the zero value selects
	// the defaults documented on RetryPolicy. Ignored (but validated)
	// when Faults is nil, since a reliable bus never retries.
	Retry RetryPolicy
	// Keys, when non-nil, is a warm keypair cache shared across runs:
	// setup reuses cached pairs for the user, referee and processor
	// identities instead of generating fresh ones, and deposits newly
	// generated pairs back. Ed25519 key generation dominates Run's cost,
	// so a long-lived pool pays it once per identity, not once per job.
	// The economics are unaffected — payments, fines and utilities depend
	// on bids and meters, never on key bytes — so a warm run's ledger is
	// bit-identical to a cold run's with the same Seed.
	Keys *sig.Keyring
	// Tracer, when non-nil, receives structured span and event records for
	// the run: one span per protocol phase (with the session round ID and
	// bid epoch), and one event per bus delivery outcome, transport
	// decision (dedup hit, retransmit, timeout) and protocol incident
	// (eviction, bid reuse, conviction). A Tracer only observes — the nil
	// path executes the exact pre-tracing instruction stream, so payments
	// and audit transcripts are bit-identical with tracing on or off
	// (TestTracerNilParity).
	Tracer obs.Tracer
	// Medium, when non-nil, carries the run's control-plane traffic
	// instead of a freshly built simulated bus: every signed envelope
	// (bids, bid vectors, meters, payments) travels through it, with the
	// retry/dedup/eviction machinery of the reliable transport layered
	// on top unchanged. internal/netbus provides the real-socket (UDP)
	// implementation, so a Medium-backed run can span OS processes; the
	// simulated bus remains the deterministic default when Medium is
	// nil. The run attaches its processor and referee identities on
	// setup and detaches them when it ends (bus.Medium documents both),
	// so one long-lived Medium serves any number of runs in turn, each
	// reaching exactly its own participants. Mutually exclusive with
	// Faults — an external medium owns its own failure behavior.
	Medium bus.Medium
	// Memo is the verified-envelope memo behind every envelope
	// verification in the run (transport arrivals, cached bids, referee
	// re-opens), all routed through one sig.BatchVerifier. A memo hit is
	// possible only for a byte-identical envelope that already verified
	// against the same registered key, so adjudications are unchanged —
	// the memo is what lets a BidSession's reuse rounds skip re-verifying
	// bit-identical cached envelopes. Share one memo across the rounds of
	// a session or pool; nil gives the run a fresh memo of its own.
	Memo *sig.VerifyMemo
	// Standby arms a standby referee: a replica endpoint
	// (referee.StandbyAccount) attaches to the bus, the primary referee
	// streams every audit append, meter reading, eviction and installment
	// binding to it over the reliable transport, and the standby verifies
	// the stream against the incremental hash chain. The replication is
	// observation only — verdicts, payments and the primary's transcript
	// are bit-identical with Standby on or off — until FailoverIn promotes
	// the standby mid-round.
	Standby bool
	// FailoverIn, when non-empty, kills the primary referee at the start
	// of the named phase (obs.PhaseAllocating, obs.PhaseProcessing or
	// obs.PhasePayments) and promotes the standby: the promoted referee
	// adjudicates the rest of the round from the replicated state, with
	// verdicts and payments bit-identical to an uninterrupted primary's.
	// Requires Standby.
	FailoverIn string
}

func (c *Config) validate() error {
	if c.Network != dlt.NCPFE && c.Network != dlt.NCPNFE {
		return fmt.Errorf("protocol: DLS-BL-NCP requires an NCP network class, got %v", c.Network)
	}
	if len(c.TrueW) < 2 {
		return errors.New("protocol: need at least two processors")
	}
	for i, w := range c.TrueW {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("protocol: invalid true value w[%d]=%v", i, w)
		}
	}
	if !(c.Z >= 0) || math.IsInf(c.Z, 0) {
		return fmt.Errorf("protocol: invalid z=%v", c.Z)
	}
	if c.Fine < 0 || math.IsNaN(c.Fine) || math.IsInf(c.Fine, 0) {
		return fmt.Errorf("protocol: invalid fine %v", c.Fine)
	}
	if c.NBlocks < 0 {
		return errors.New("protocol: negative block count")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.Medium != nil && c.Faults != nil {
		return errors.New("protocol: Medium and Faults are mutually exclusive (an external medium owns its own failure behavior)")
	}
	if err := c.Retry.validate(); err != nil {
		return err
	}
	switch c.FailoverIn {
	case "", obs.PhaseAllocating, obs.PhaseProcessing, obs.PhasePayments:
	default:
		return fmt.Errorf("protocol: unknown failover phase %q", c.FailoverIn)
	}
	if c.FailoverIn != "" && !c.Standby {
		return errors.New("protocol: FailoverIn requires Standby")
	}
	return nil
}

// EvictionEvent records a processor's removal from a run for
// unreachability. An eviction is an availability failure, not an offense:
// no fine is assessed, the survivors re-solve the allocation over the
// reduced bid vector (any participant subset is still optimal by
// Theorem 2.2), and the referee's audit transcript carries a dedicated
// "eviction" entry so the event stays distinguishable from a strategic
// fine.
type EvictionEvent struct {
	Proc   string // processor id, e.g. "P3"
	Phase  string // phase that declared unreachability
	Reason string
}

// Outcome records everything a protocol run produced.
type Outcome struct {
	// Completed is true when all five phases finished; false when a
	// verdict terminated the run early.
	Completed bool
	// TerminatedIn names the phase a terminating verdict fired in.
	TerminatedIn string
	// Verdicts lists every adjudication, clean ones included.
	Verdicts []referee.Verdict

	// Procs names every configured processor (P1…Pm in config order).
	Procs []string
	// Participated[i] is false for processors that abstained (did not
	// broadcast a bid); all their per-processor entries below are zero
	// and their utility is 0, per the paper's Bidding phase.
	Participated []bool
	Bids         []float64
	Alloc        dlt.Allocation
	// Assignments are the block ranges the allocation maps to.
	Assignments []workload.Assignment
	// Exec are the execution values w̃ derived from the meters (only for
	// completed runs).
	Exec []float64
	// Phi are the raw meter readings φ_i = α_i·w̃_i.
	Phi []float64
	// Payments is the vector Q forwarded to the payment infrastructure.
	Payments []float64
	// Fines[i] is the total fines processor i paid.
	Fines []float64
	// Rewards[i] is the total fine redistributions processor i received.
	Rewards []float64
	// Utilities[i] is the processor's final economic position: every
	// ledger flow it saw (payments + rewards − fines) minus the cost of
	// the work it actually performed.
	Utilities []float64
	// WorkCost[i] is that cost, α_i·w̃_i over the work actually done.
	WorkCost []float64

	// Timeline is the realized schedule (completed runs only). Its
	// processor indices are in participant order — when processors
	// abstained, row k is the k-th participant, not config index k.
	Timeline dlt.Timeline
	// Makespan is the realized total execution time.
	Makespan float64
	// Invoice is the bill forwarded to the payment infrastructure
	// (completed runs only).
	Invoice payment.Invoice
	// UserCost is what the user paid in total.
	UserCost float64
	// Evicted[i] is true for processors removed mid-run for
	// unreachability (only possible under a FaultPlan). Their payments,
	// fines and utilities are zero; Evictions holds the audited events.
	Evicted []bool
	// Evictions lists the eviction events in occurrence order.
	Evictions []EvictionEvent
	// Fault counts what the reliable-transport layer did (retransmits,
	// dedup discards, backoff time, evictions); all zeros on a reliable
	// bus.
	Fault FaultStats
	// RoundID is the session-salted round identifier this outcome was
	// produced under; empty for standalone Run invocations.
	RoundID string
	// BidReused is true when the round was served from a BidSession's
	// cached bid set instead of a fresh Bidding phase.
	BidReused bool
	// BidSpliced is true when the round ran an incremental re-bid: a
	// single changed member broadcast a fresh bid and the referee spliced
	// it into the cached bid set (everyone else's bid stayed in its
	// original epoch). Mutually exclusive with BidReused.
	BidSpliced bool
	// Installment is the 1-based installment number when this outcome is
	// one sub-round of a pipelined load; 0 for whole-load rounds.
	Installment int
	// LoadFraction is the fraction of the full load this outcome covers:
	// 1 for whole-load rounds, the installment's share for sub-rounds,
	// and 1 again for an aggregated pipelined outcome (its installments
	// sum to the whole load).
	LoadFraction float64
	// Installments holds the per-installment outcomes of a pipelined
	// load, in installment order. Each carries its own sub-round ID and
	// independently verifiable Transcript; the aggregate's own Transcript
	// is nil (there is no single referee log spanning sub-rounds — that
	// separability is what keeps per-job and per-installment evidence
	// auditable in isolation). Nil for ordinary rounds.
	Installments []*Outcome
	// BusStats is the control-plane traffic (Theorem 5.4), including the
	// bus-level fault counters (drops, duplicates, …).
	BusStats bus.Stats
	// Transcript is the referee's hash-chained audit log; verify it with
	// referee.VerifyEntries.
	Transcript []referee.AuditEntry
	// FineMagnitude is the F in force.
	FineMagnitude float64
}

// run carries the mutable state threaded through the phases. All
// per-processor state inside the run is in PARTICIPANT space (abstainers
// filtered out); finish() expands it back to config space.
type run struct {
	cfg   Config
	fullM int
	part  []int // participant→config index
	// initialPart snapshots part before any eviction, for the
	// Participated expansion.
	initialPart []int
	// evictedCfg lists config indices of evicted processors.
	evictedCfg []int
	m          int
	procs      []string
	agents     []*agent.Agent
	reg        *sig.Registry
	net        bus.Medium
	// attached lists the endpoints this run attached to net; release
	// detaches them when the run ends.
	attached []string
	xp       *transport
	ledger   *payment.Ledger
	ref      *referee.Referee
	refKey   *sig.KeyPair
	// refAddr is the bus endpoint referee-bound traffic targets:
	// referee.Account until a failover promotes the standby, then
	// referee.StandbyAccount.
	refAddr string
	// standby / standbyKey exist when cfg.Standby armed replication;
	// failedOver latches once the standby has been promoted.
	standby    *referee.Standby
	standbyKey *sig.KeyPair
	failedOver bool
	mech       core.Mechanism
	// engine is the O(m) payment engine behind the Computing Payments
	// phase and payOut its scratch Outcome. Both belong to the round
	// state, so a BidSession's rounds reuse their buffers rather than
	// allocating payment state per round.
	engine  *core.PaymentEngine
	payOut  *core.Outcome
	outcome *Outcome
	// st is the round state the run was set up over (see roundState).
	st      *roundState
	bidEnvs []sig.Envelope // agreed signed bid of each processor, index order
	bids    []float64
	alloc   dlt.Allocation
	assigns []workload.Assignment
	nBlocks int
	origIdx int
	// roundID is the round's identifier (see roundBinding); empty for an
	// anonymous standalone Run.
	roundID string
	// loadFrac, inst, instOf and policy come from the round's
	// roundBinding: the fraction of the load this run serves, the
	// installment it serves (0/0 for whole-load rounds) and the load's
	// installment division policy, which only matters when instOf > 1.
	loadFrac float64
	inst     int
	instOf   int
	policy   dlt.RoundPolicy
	// epochs[i] is the round participant i's bid in force was signed in:
	// roundID for every participant after the round's own bid exchange,
	// the cache's per-member epochs on a cached round. Index-aligned with
	// procs once Bidding has run.
	epochs []string
	cached bool // served from the bid cache (see hearFromSeated)
	// ver is the round state's batch verifier, reset over cfg.Memo for
	// this run; the transport and the referee route verification
	// through it.
	ver *sig.BatchVerifier
	// tracer is cfg.Tracer, threaded here (and into the bus and the
	// transport) so phases can emit protocol-level events; nil when
	// tracing is off.
	tracer obs.Tracer
}

// roundBinding names the session round a protocol execution belongs to.
// round is the current round's ID, stamped on every signed per-round
// artifact (bids, bid vectors, payment vectors) and on every audit entry;
// epoch labels the round's trace spans and trace-context frames with the
// bid set's base epoch — round itself when a session round runs its own
// Bidding phase, the cache's base epoch when it is served from a
// BidSession cache. The per-participant epochs the referee checks are
// run.epochs. An empty round is the anonymous standalone case: no message
// carries a round.
type roundBinding struct {
	round string
	epoch string
	// frac is the fraction of the full load this execution serves: 1 for
	// a whole-load round, an installment's share on a pipelined
	// sub-round. The money flow scales with the work: the meters φ_i,
	// payments, fines-eligible work compensation and the user's invoice
	// all carry the factor, and the per-installment payments telescope
	// back to the single-round payment (exactly so at frac=1, where
	// every scaling multiplication is by the float constant 1 and
	// therefore bit-identical to the unscaled path).
	frac float64
	// inst / instOf, when instOf > 1, mark this execution as installment
	// inst of instOf sub-rounds of one pipelined load, priced by the
	// period rule; the referee enters an "installment" transcript entry,
	// naming the load's division policy, so the audit shows the
	// structure.
	inst   int
	instOf int
	policy dlt.RoundPolicy
}

// Run executes the protocol standalone: five full phases, no session.
func Run(cfg Config) (*Outcome, error) {
	out, _, err := executeRound(cfg, roundBinding{frac: 1}, nil, nil, nil)
	return out, err
}

// RunRound is Run with an explicit round identity. Sessions mint their
// own round IDs; a standalone round normally runs anonymously, which
// leaves trace-context-bearing media (the netbus) nothing to stamp into
// frames. Deployment drivers that want datagrams attributed to the
// round pass one here. The round runs its own bid exchange, so the ID
// stamps every signed artifact and is every bid's epoch; two runs
// differing only in it settle identically (same convictions, fines and
// payments), but their transcripts differ, so it must match across runs
// whose transcripts are compared for parity.
func RunRound(cfg Config, round string) (*Outcome, error) {
	out, _, err := executeRound(cfg, roundBinding{round: round, frac: 1}, nil, nil, nil)
	return out, err
}

// executeRound executes one protocol round over the round state st (nil
// for a one-shot run, which builds its own). With a nil cache it runs the
// full five phases and, when Bidding completes cleanly, captures the
// verified bid set into a fresh bidCache for reuse. With a non-nil cache
// it skips the Θ(m²) bid exchange entirely (cachedBidding): the cached,
// already-verified signed bids are re-checked against this round's PKI
// registry (an O(m) pass) and the remaining phases run against them.
// A non-nil splice additionally has one changed member bid afresh; the
// returned cache is then the spliced one.
func executeRound(cfg Config, rb roundBinding, cache *bidCache, splice *spliceOp, st *roundState) (*Outcome, *bidCache, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	// Phase spans. Every BeginPhase is paired with an EndPhase on every
	// exit path — including terminating verdicts and errors — so a trace
	// of a failed run still renders closed slices.
	tr := cfg.Tracer
	begin := func(name string) {
		if tr != nil {
			tr.BeginPhase(name, rb.round, rb.epoch)
		}
	}
	end := func(name string) {
		if tr != nil {
			tr.EndPhase(name)
		}
	}
	begin(obs.PhaseInit)
	r, err := setup(cfg, st)
	end(obs.PhaseInit)
	if err != nil {
		return nil, nil, err
	}
	defer r.release()
	r.roundID = rb.round
	r.loadFrac, r.inst, r.instOf, r.policy = rb.frac, rb.inst, rb.instOf, rb.policy
	// Media that carry a trace context on the wire (the netbus) get this
	// round's identity stamped into outgoing frames; the simulated bus
	// has no such method and is untouched. Independent of the local
	// tracer: remote nodes attribute datagrams to rounds even when the
	// driver itself records nothing.
	if rc, ok := r.net.(interface{ SetRoundContext(round, epoch string) }); ok {
		rc.SetRoundContext(rb.round, rb.epoch)
	}
	if tr != nil {
		r.tracer = tr
		r.net.SetTracer(tr)
		r.xp.tracer = tr
	}
	r.cached = cache != nil
	var fresh *bidCache
	finish := func(e error) (*Outcome, *bidCache, error) {
		out, ferr := r.finish(e)
		if ferr != nil {
			return nil, nil, ferr
		}
		out.RoundID = rb.round
		out.BidReused = cache != nil && splice == nil
		out.BidSpliced = cache != nil && splice != nil
		return out, fresh, nil
	}
	if cache != nil {
		begin(obs.PhaseBidding)
		fresh, err = r.cachedBidding(cache, splice)
		end(obs.PhaseBidding)
		if err != nil {
			return nil, nil, err
		}
	} else {
		begin(obs.PhaseBidding)
		terminated, err := r.phaseBidding()
		end(obs.PhaseBidding)
		if err != nil || terminated {
			// A terminated Bidding phase established no reusable bid set.
			return finish(err)
		}
		fresh = r.captureBidCache(r.roundID, r.net.Stats())
	}
	begin(obs.PhaseAllocating)
	terminated, err := r.phaseAllocating()
	if err == nil && terminated {
		err = r.hearFromSeated()
	}
	end(obs.PhaseAllocating)
	if err != nil || terminated {
		return finish(err)
	}
	begin(obs.PhaseProcessing)
	err = r.phaseProcessing()
	end(obs.PhaseProcessing)
	if err != nil {
		return finish(err)
	}
	begin(obs.PhasePayments)
	err = r.phasePayments()
	end(obs.PhasePayments)
	if err != nil {
		return finish(err)
	}
	r.outcome.Completed = true
	return finish(nil)
}

// setup builds the run for cfg over st, the round state a BidSession
// keeps between its rounds; a nil st gives the run a state of its own.
// The participants' names, keys, registry, batch verifier, ledger,
// payment engine and referee come from st, and so do the simulated bus
// (reset under cfg's fault plan) and its transport unless cfg carries an
// external medium or a standby referee (a one-shot run's own bus).
func setup(cfg Config, st *roundState) (*run, error) {
	fullM := len(cfg.TrueW)
	behaviorOf := func(i int) agent.Behavior {
		if i < len(cfg.Behaviors) {
			return cfg.Behaviors[i]
		}
		return agent.Behavior{}
	}
	// Abstainers never broadcast a bid; the protocol runs over the
	// participants only (Section 4: non-participants receive utility 0).
	var part []int
	for i := 0; i < fullM; i++ {
		if !behaviorOf(i).Abstain {
			part = append(part, i)
		}
	}
	if len(part) < 2 {
		return nil, errors.New("protocol: need at least two participating processors")
	}
	loadHolder := cfg.Network.Originator(fullM)
	if behaviorOf(loadHolder).Abstain {
		return nil, fmt.Errorf("protocol: the load-originating processor P%d cannot abstain", loadHolder+1)
	}
	if st == nil {
		st = &roundState{}
	}
	// Identities, keys, PKI, ledger. Participants keep their configured
	// names.
	if err := st.prepare(cfg, part); err != nil {
		return nil, err
	}
	m := len(part)
	r := &run{
		cfg:         cfg,
		fullM:       fullM,
		part:        part,
		initialPart: st.part,
		m:           m,
		procs:       append([]string(nil), st.procs...),
		reg:         st.reg,
		ledger:      st.ledger,
		mech:        core.Mechanism{Network: cfg.Network, Z: cfg.Z},
		engine:      st.engine,
		payOut:      &st.payOut,
		st:          st,
		outcome:     &Outcome{},
		origIdx:     cfg.Network.Originator(m),
		nBlocks:     cfg.NBlocks,
		refAddr:     referee.Account,
		refKey:      st.keys[0],
	}
	if r.nBlocks == 0 {
		r.nBlocks = 64 * m
	}
	if cap(st.agents) < m {
		st.agents = make([]agent.Agent, m)
	}
	st.agents = st.agents[:m]
	r.agents = make([]*agent.Agent, m)
	for i, id := range r.procs {
		orig := part[i]
		a := &st.agents[i]
		if err := a.Init(id, st.keys[1+i], cfg.TrueW[orig], behaviorOf(orig)); err != nil {
			return nil, err
		}
		r.agents[i] = a
	}
	if cfg.Standby {
		r.standbyKey = st.keys[len(st.keys)-1]
		r.standby = referee.NewStandby()
	}

	// Bus (reliable or fault-injected) and transport.
	// A typo'd Unresponsive name would otherwise be silently inert.
	if cfg.Faults != nil {
		known := make(map[string]bool, len(r.procs))
		for _, id := range r.procs {
			known[id] = true
		}
		for _, id := range cfg.Faults.Unresponsive {
			if !known[id] {
				return nil, fmt.Errorf("protocol: fault plan marks unknown processor %q unresponsive (have %v)", id, r.procs)
			}
		}
		for _, c := range cfg.Faults.Crashes {
			if !known[c.Proc] {
				return nil, fmt.Errorf("protocol: fault plan crashes unknown processor %q (have %v)", c.Proc, r.procs)
			}
		}
	}
	// One batch verifier per round state, reset for each run (it is not
	// concurrency-safe). A caller's memo outlives the run — that is what
	// makes reuse rounds' verifications collapse into memo hits; a nil
	// one becomes a fresh memo for this run alone.
	if st.ver == nil {
		st.ver = new(sig.BatchVerifier)
	}
	st.ver.Reset(r.reg, cfg.Memo)
	r.ver = st.ver
	var err error
	if cfg.Medium == nil {
		if r.net, r.xp, err = st.simBus(cfg.Z, cfg.Faults, r.ver, cfg.Retry); err != nil {
			return nil, err
		}
		return r, nil
	}
	r.net = cfg.Medium
	if r.xp, err = newTransport(r.net, r.ver, cfg.Retry); err != nil {
		return nil, err
	}
	endpoints := st.endpoints()
	for k, id := range endpoints {
		if err := r.net.Attach(id); err != nil {
			r.attached = endpoints[:k]
			r.release()
			return nil, err
		}
	}
	r.attached = endpoints
	return r, nil
}

// release detaches the endpoints the run attached to a medium
// (cfg.Medium), so a long-lived medium stops broadcasting to them and
// holds nothing for them once the run is over. The outcome has already
// read the medium's stats. The round state's bus keeps its endpoints for
// the next round.
func (r *run) release() {
	for _, id := range r.attached {
		r.net.Detach(id)
	}
	r.attached = nil
}

// loadKeys resolves the key pair of every identity, in ids order, and
// registers each with reg. ids[k] owns the key-seed slot Seed+2+k. Slot
// Seed+1 is the user's: the user signs nothing in a round and draws no
// key, and skipping its slot keeps every other identity's key fixed. A
// slot is taken whether or not the configured ring already holds the
// pair, so a partially warm ring yields the keys a cold run would. Pairs
// the ring lacks are generated in parallel and deposited back.
func loadKeys(cfg Config, reg *sig.Registry, ids []string) ([]*sig.KeyPair, error) {
	keys := make([]*sig.KeyPair, len(ids))
	generated := make([]bool, len(ids))
	var genIDs []string
	var genSeeds []int64
	for k, id := range ids {
		if kp, ok := cfg.Keys.Get(id); ok {
			keys[k] = kp
			continue
		}
		generated[k] = true
		genIDs = append(genIDs, id)
		genSeeds = append(genSeeds, cfg.Seed+2+int64(k))
	}
	fresh, err := sig.GenerateKeyPairs(genIDs, genSeeds)
	if err != nil {
		return nil, err
	}
	for k := range keys {
		if generated[k] {
			keys[k], fresh = fresh[0], fresh[1:]
		}
		if err := reg.Register(ids[k], keys[k].Public); err != nil {
			return nil, err
		}
		if generated[k] && cfg.Keys != nil {
			if err := cfg.Keys.Put(keys[k]); err != nil {
				return nil, err
			}
		}
	}
	return keys, nil
}

// finish assembles the Outcome from the run state and the ledger,
// expanding every per-processor series from participant space back to
// config space (abstainers get zero entries).
func (r *run) finish(err error) (*Outcome, error) {
	if err != nil {
		return nil, err
	}
	o := r.outcome
	o.Installment = r.inst
	o.LoadFraction = r.loadFrac
	o.BusStats = r.net.Stats()
	o.Fault = r.xp.stats
	if r.ref != nil {
		// The referee is done with this run: its log becomes the
		// outcome's without a copy.
		o.FineMagnitude = r.ref.Fine()
		o.Transcript = r.ref.TakeTranscript()
	}

	// Every per-processor series is built in config space: participant i
	// writes config slot r.part[i], and abstainers keep zero entries.
	full := func() []float64 { return make([]float64, r.fullM) }
	expand := func(sub []float64) []float64 {
		if sub == nil {
			return nil
		}
		out := full()
		for i, orig := range r.part {
			out[orig] = sub[i]
		}
		return out
	}
	fines, rewards, utilities := full(), full(), full()
	if r.st.index == nil {
		r.st.index = make(map[string]int, r.m)
	}
	index := r.st.index
	clear(index)
	for i, p := range r.procs {
		index[p] = r.part[i]
	}
	r.ledger.Flows(referee.Account, index, fines, rewards)
	for i, p := range r.procs {
		bal, berr := r.ledger.Balance(p)
		if berr != nil {
			return nil, berr
		}
		work := 0.0
		if o.WorkCost != nil {
			work = o.WorkCost[i]
		}
		utilities[r.part[i]] = bal - work
	}
	userBal, berr := r.ledger.Balance(UserID)
	if berr != nil {
		return nil, berr
	}
	o.UserCost = -userBal

	o.Procs = make([]string, r.fullM)
	o.Participated = make([]bool, r.fullM)
	for i := range o.Procs {
		o.Procs[i] = fmt.Sprintf("P%d", i+1)
	}
	o.Evicted = make([]bool, r.fullM)
	for _, orig := range r.initialPart {
		o.Participated[orig] = true
	}
	for _, orig := range r.evictedCfg {
		o.Evicted[orig] = true
	}
	workCost := expand(o.WorkCost)
	if workCost == nil {
		workCost = full()
	}
	o.Bids = expand(r.bids)
	o.Alloc = dlt.Allocation(expand(r.alloc))
	o.Exec = expand(o.Exec)
	o.Phi = expand(o.Phi)
	o.Payments = expand(o.Payments)
	o.Fines = fines
	o.Rewards = rewards
	o.Utilities = utilities
	o.WorkCost = workCost
	if r.assigns != nil {
		asg := make([]workload.Assignment, r.fullM)
		for i, orig := range r.part {
			asg[orig] = r.assigns[i]
		}
		o.Assignments = asg
	}
	return o, nil
}

// applyEvictions removes unreachable processors (participant indices →
// reason) from the run: the survivors carry on with the reduced bid
// vector, which phaseAllocating re-solves — optimal for any participant
// subset by Theorem 2.2. The load-originating processor cannot be
// evicted (without it there is no load), and at least two survivors must
// remain.
func (r *run) applyEvictions(evict map[int]string, phase string) error {
	if len(evict) == 0 {
		return nil
	}
	if reason, gone := evict[r.origIdx]; gone {
		return fmt.Errorf("protocol: load-originating processor %s unreachable (%s); no survivor can source the load",
			r.procs[r.origIdx], reason)
	}
	if r.m-len(evict) < 2 {
		return fmt.Errorf("protocol: only %d of %d processors reachable; need at least two", r.m-len(evict), r.m)
	}
	idxs := make([]int, 0, len(evict))
	for i := range evict {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r.outcome.Evictions = append(r.outcome.Evictions, EvictionEvent{
			Proc: r.procs[i], Phase: phase, Reason: evict[i],
		})
		r.evictedCfg = append(r.evictedCfg, r.part[i])
		r.xp.stats.Evictions++
		if r.tracer != nil {
			r.tracer.Event(obs.Event{
				Kind: obs.EvEviction, From: r.procs[i], Round: r.roundID, Detail: evict[i],
			})
		}
	}
	// Per-participant series established by earlier phases shrink with the
	// pool: an eviction after Bidding (a mid-computation crash) must keep
	// bids, envelopes, epochs, allocation and assignments index-aligned
	// with the survivors. dropEvicted is a no-op for not-yet-built slices.
	r.bids = dropEvicted(r.bids, r.m, evict)
	r.bidEnvs = dropEvicted(r.bidEnvs, r.m, evict)
	r.epochs = dropEvicted(r.epochs, r.m, evict)
	r.alloc = dlt.Allocation(dropEvicted([]float64(r.alloc), r.m, evict))
	r.assigns = dropEvicted(r.assigns, r.m, evict)
	part := r.part[:0]
	procs := r.procs[:0]
	agents := r.agents[:0]
	for i := 0; i < r.m; i++ {
		if _, gone := evict[i]; gone {
			continue
		}
		part = append(part, r.part[i])
		procs = append(procs, r.procs[i])
		agents = append(agents, r.agents[i])
	}
	r.part, r.procs, r.agents = part, procs, agents
	r.m = len(part)
	r.origIdx = r.cfg.Network.Originator(r.m)
	return nil
}

// dropEvicted filters a per-participant slice down to the survivors. A
// slice that is not m long (typically nil, not yet established by its
// phase) passes through untouched.
func dropEvicted[T any](s []T, m int, evict map[int]string) []T {
	if len(s) != m {
		return s
	}
	kept := s[:0]
	for i := range s {
		if _, gone := evict[i]; !gone {
			kept = append(kept, s[i])
		}
	}
	return kept
}

// seatReferee brings the round's referee into existence once the bid
// vector in force is established (by the round's own exchange or from the
// cache): F is the configured fine or, when zero, derived from the bids;
// the referee is bound to this round and to every participant's bid
// epoch, the standby is armed and the installment boundary recorded.
func (r *run) seatReferee() error {
	fine := r.cfg.Fine
	if fine == 0 {
		fine = referee.SuggestedFine(r.bids, 4)
	}
	if r.st.ref == nil {
		r.st.ref = new(referee.Referee)
	}
	if err := r.st.ref.Reseat(r.ver, r.ledger, r.mech, r.procs, fine); err != nil {
		return err
	}
	r.ref = r.st.ref
	if err := r.ref.BindRounds(r.roundID, r.epochs); err != nil {
		return err
	}
	if err := r.armStandby(); err != nil {
		return err
	}
	r.recordInstallment()
	r.outcome.FineMagnitude = fine
	return nil
}

// armStandby attaches the standby referee to the freshly created primary:
// the replication send seals each AuditReplicaPayload with the referee
// key, ships it over the reliable transport to the standby endpoint, and
// applies it to the standby's verified replica immediately. No-op when
// the run has no standby.
func (r *run) armStandby() error {
	if r.standby == nil {
		return nil
	}
	return r.ref.AttachStandby(func(p referee.AuditReplicaPayload) error {
		env, err := sig.Seal(r.refKey, referee.KindAuditReplica, p)
		if err != nil {
			return err
		}
		m, err := r.xp.sendReliable(r.refAddr, referee.StandbyAccount, referee.KindAuditReplica, env, 1)
		if err != nil {
			return err
		}
		return r.standby.Apply(r.reg, m.Env)
	})
}

// failover kills the primary referee and promotes the standby when the
// run is configured to fail over at the start of the given phase. The
// promoted referee adjudicates the rest of the round from the replicated
// state; RecordFailover is the single deliberate transcript divergence
// from an uninterrupted run.
func (r *run) failover(phase string) error {
	if r.standby == nil || r.failedOver || r.cfg.FailoverIn != phase || r.ref == nil {
		return nil
	}
	if err := r.ref.ReplicationErr(); err != nil {
		return fmt.Errorf("protocol: standby not promotable: %w", err)
	}
	if fb, ok := r.net.(*bus.Bus); ok {
		fb.MarkUnresponsive(referee.Account)
	}
	promoted, err := r.standby.Promote(r.ver, r.ledger, r.mech)
	if err != nil {
		return err
	}
	promoted.RecordFailover(referee.Account, referee.StandbyAccount)
	r.ref = promoted
	r.refKey = r.standbyKey
	r.refAddr = referee.StandbyAccount
	r.standby = nil
	r.failedOver = true
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind: obs.EvRefereeFailover, From: referee.Account, To: referee.StandbyAccount,
			Round:  r.roundID,
			Detail: fmt.Sprintf("standby promoted at the start of the %s phase", phase),
		})
	}
	return nil
}

// recordInstallment enters the installment boundary into the referee's
// transcript (and the trace) on sub-rounds; whole-load rounds skip it, so
// their transcripts are byte-identical to the pre-pipelining ones.
func (r *run) recordInstallment() {
	if r.instOf <= 1 || r.ref == nil {
		return
	}
	r.ref.RecordInstallment(r.inst, r.instOf, r.loadFrac, r.policy)
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind:   obs.EvInstallment,
			Round:  r.roundID,
			Detail: fmt.Sprintf("installment %d/%d carrying load fraction %.9g", r.inst, r.instOf, r.loadFrac),
		})
	}
}

// evidence traces one signed, referee-verified submission — the
// material grounding whatever verdict the subsequent judgment returns.
// The economic sentinel's conviction invariant keys on these events: a
// conviction with no preceding evidence event in its round means the
// stream (or the implementation) convicted without adjudicating
// anything verifiable.
func (r *run) evidence(from, kind string) {
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind: obs.EvEvidence, From: from, To: r.refAddr, Msg: kind, Round: r.roundID,
		})
	}
}

// settle is the one place a verdict meets the ledger: it records the
// verdict in the outcome (tracing each conviction), has the referee
// settle it — a clean verdict moves nothing — and reports whether it
// ends the round. workDone is the compensation owed for commenced work
// should the verdict terminate (see workDoneAt); nil outside Allocating.
func (r *run) settle(v referee.Verdict, workDone map[string]float64) (terminated bool, err error) {
	r.outcome.Verdicts = append(r.outcome.Verdicts, v)
	if v.Terminates {
		r.outcome.TerminatedIn = v.Phase
	}
	if r.tracer != nil {
		for _, g := range v.Guilty {
			r.tracer.Event(obs.Event{
				Kind: obs.EvConviction, From: g, Round: r.roundID, Detail: v.Reason,
			})
		}
	}
	if err := r.ref.Settle(v, workDone); err != nil {
		return false, err
	}
	return v.Terminates, nil
}
