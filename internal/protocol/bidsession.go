package protocol

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// Bid reuse across a stream of loads. The paper re-runs the full Θ(m²)
// signed bid exchange for every load, but Theorem 2.2 (order-independence)
// and the strategyproofness argument (Theorem 3.1) hold for ANY load size
// once the bid vector is fixed: the bids are per-unit processing times,
// independent of how much load arrives. A BidSession therefore runs the
// Bidding phase once, keeps the verified signed bids, and serves any
// number of Allocation/Processing/Payment rounds against them — re-bidding
// only when the member set changes (join, leave, eviction, abstention) or
// a processor announces a different rate. Per-job traffic drops from
// Θ(m²) to Θ(m) after round one: Θ(m² + k·m) across k jobs.
//
// Every round gets a fresh session-salted round ID folded into the signed
// per-round artifacts and the referee's audit transcript, so a message
// captured in round j and replayed in round j+1 is detectable (its round
// stamp no longer matches). The cached bid envelopes carry the ID of the
// round they were signed in — their "bid epoch" — and the referee is bound
// to both IDs each round (referee.BindRounds).

// bidCache is the product of one clean Bidding phase: the agreed bid
// vector, the signed envelopes behind it, and the bus traffic the exchange
// cost (what every reuse round saves). It is valid for exactly the member
// set and bid values it was captured with; BidSession re-bids the moment
// either changes, and executeRound independently re-verifies every cached
// envelope before serving a round from it.
type bidCache struct {
	epoch   string   // base epoch: round ID of the last full bid exchange
	procs   []string // participant ids, index order
	bids    []float64
	bidEnvs []sig.Envelope
	// epochs, when non-nil, holds the per-participant epoch each cached
	// bid was actually signed in — a spliced cache mixes the base epoch
	// with the splice rounds' fresh IDs. Nil means epoch applies
	// uniformly (a cache straight from a full exchange).
	epochs  []string
	fine    float64   // F in force when the bids were established
	bidding bus.Stats // traffic the bid exchange cost
	served  int       // reuse rounds served so far
}

// epochFor returns the epoch cached bid i was signed in.
func (c *bidCache) epochFor(i int) string {
	if c.epochs != nil {
		return c.epochs[i]
	}
	return c.epoch
}

// captureBidCache snapshots the verified bid set right after a clean
// Bidding phase. Bidding is the first traffic on the bus, so the stats at
// this instant are exactly the exchange's cost.
func (r *run) captureBidCache() *bidCache {
	return &bidCache{
		epoch:   r.roundID,
		procs:   append([]string(nil), r.procs...),
		bids:    append([]float64(nil), r.bids...),
		bidEnvs: append([]sig.Envelope(nil), r.bidEnvs...),
		fine:    r.ref.Fine(),
		bidding: r.net.Stats(),
	}
}

// reuseBidding stands in for phaseBidding on a reuse round: it installs
// the cached bid set after re-verifying every envelope against this
// round's fresh PKI registry — the cache is trusted for liveness, never
// for authenticity — and brings the referee into existence bound to the
// current round and the cache's bid epoch. An O(m) pass instead of the
// Θ(m²) exchange.
func (r *run) reuseBidding(c *bidCache) error {
	r.xp.beginPhase()
	if r.bidEpoch != c.epoch {
		return fmt.Errorf("protocol: round bound to bid epoch %q but cache holds epoch %q", r.bidEpoch, c.epoch)
	}
	if len(c.procs) != r.m {
		return fmt.Errorf("protocol: bid cache holds %d processors, round has %d (stale member set)", len(c.procs), r.m)
	}
	for i, p := range r.procs {
		if c.procs[i] != p {
			return fmt.Errorf("protocol: bid cache processor %d is %s, round has %s (stale member set)", i, c.procs[i], p)
		}
	}
	if err := r.checkCachedBids(c); err != nil {
		return err
	}
	r.bids = append([]float64(nil), c.bids...)
	r.bidEnvs = append([]sig.Envelope(nil), c.bidEnvs...)
	if c.epochs != nil {
		r.epochs = append([]string(nil), c.epochs...)
	}
	var err error
	r.ref, err = referee.New(r.ver, r.ledger, r.mech, r.procs, c.fine)
	if err != nil {
		return err
	}
	if c.epochs != nil {
		if err := r.ref.BindRoundsSpliced(r.roundID, r.bidEpoch, c.epochs); err != nil {
			return err
		}
	} else {
		r.ref.BindRounds(r.roundID, r.bidEpoch)
	}
	if err := r.armStandby(); err != nil {
		return err
	}
	r.recordInstallment()
	r.outcome.FineMagnitude = c.fine
	c.served++
	r.ref.RecordBidReuse(c.epoch, c.served)
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind:   obs.EvBidReused,
			Round:  r.roundID,
			Detail: fmt.Sprintf("epoch %s, reuse round %d", c.epoch, c.served),
		})
	}
	return nil
}

// checkCachedBids re-verifies every cached envelope against this round's
// fresh PKI registry and re-checks its binding to the cache — sender,
// epoch, bid value and the agent's current announced bid. The batch
// verification collapses into memo hits for bit-identical envelopes that
// verified in an earlier round; the payload decodes and the value checks
// run in full.
func (r *run) checkCachedBids(c *bidCache) error {
	memoBefore := r.ver.Stats().MemoHits
	for i, err := range r.ver.VerifyEach(c.bidEnvs) {
		if err != nil {
			return fmt.Errorf("protocol: cached bid of %s failed re-verification: %w", c.procs[i], err)
		}
	}
	if r.tracer != nil {
		st := r.ver.Stats()
		r.tracer.Event(obs.Event{
			Kind:   obs.EvVerifyBatch,
			Round:  r.roundID,
			Detail: fmt.Sprintf("%d cached bids, %d memo hits", len(c.bidEnvs), st.MemoHits-memoBefore),
		})
		if h := st.MemoHits - memoBefore; h > 0 {
			r.tracer.Event(obs.Event{
				Kind:   obs.EvVerifyMemoHit,
				Round:  r.roundID,
				Detail: fmt.Sprintf("%d verifications skipped", h),
			})
		}
	}
	for i := range c.bidEnvs {
		env := &c.bidEnvs[i]
		var bp referee.BidPayload
		if err := r.open(env, &bp); err != nil {
			return fmt.Errorf("protocol: cached bid of %s failed re-verification: %w", c.procs[i], err)
		}
		if env.Sender != c.procs[i] || bp.Proc != c.procs[i] {
			return fmt.Errorf("protocol: cached bid %d signed by %q, want %q", i, env.Sender, c.procs[i])
		}
		if bp.Round != c.epochFor(i) {
			return fmt.Errorf("protocol: cached bid of %s carries round %q, epoch is %q", c.procs[i], bp.Round, c.epochFor(i))
		}
		if bp.Bid != c.bids[i] {
			return fmt.Errorf("protocol: cached bid of %s is %v in the envelope, %v in the cache", c.procs[i], bp.Bid, c.bids[i])
		}
		if got := r.agents[i].Bid(); got != c.bids[i] {
			return fmt.Errorf("protocol: %s now bids %v but the cache holds %v; a rebid round is required", c.procs[i], got, c.bids[i])
		}
	}
	return nil
}

// ---- Incremental re-bid (bid splicing) ------------------------------------
//
// A full re-bid costs the Θ(m²) exchange even when only ONE member's
// conduct changed — a rate announcement, a join, a leave. For those
// single-member deltas the session runs an incremental re-bid instead:
// the changed member broadcasts one fresh bid (Θ(m) deliveries), every
// other member's cached envelope is re-verified and spliced in unchanged,
// and the referee is bound to per-processor epochs
// (referee.BindRoundsSpliced) so each bid is checked against the round it
// was actually signed in. Any deviation from the happy path — deviants in
// either profile, an unreachable peer, a stale cache — falls back to the
// full exchange.

// spliceKind classifies the single-member delta an incremental re-bid
// absorbs.
type spliceKind int

const (
	spliceRate  spliceKind = iota // one member announced a different rate
	spliceJoin                    // one member joined (appended config index)
	spliceLeave                   // one member left
)

// String names the splice kind for transcript entries and logs.
func (k spliceKind) String() string {
	switch k {
	case spliceRate:
		return "rate-change"
	case spliceJoin:
		return "join"
	default:
		return "leave"
	}
}

// spliceOp names the changed member in participant space: oldIdx indexes
// the cached participant list (-1 for a join), newIdx this round's (-1
// for a leave).
type spliceOp struct {
	kind   spliceKind
	oldIdx int
	newIdx int
}

// spliceDelta compares the cached bid profile with this round's and
// reports the single-member delta between them, if that is all that
// separates them. Profiles with bidding-phase deviants (equivocators,
// false accusers) are never spliceable — their exchanges are not made of
// independent per-member broadcasts.
func spliceDelta(old, new []bidProfile) (spliceOp, bool) {
	clean := func(ps []bidProfile) bool {
		for _, p := range ps {
			if p.present && (p.hasSecond || p.accuses || p.frames) {
				return false
			}
		}
		return true
	}
	if !clean(old) || !clean(new) {
		return spliceOp{}, false
	}
	// rank maps a config index to its participant index.
	rank := func(ps []bidProfile, idx int) int {
		n := 0
		for i := 0; i < idx; i++ {
			if ps[i].present {
				n++
			}
		}
		return n
	}
	if len(new) == len(old)+1 {
		for i := range old {
			if old[i] != new[i] {
				return spliceOp{}, false
			}
		}
		if !new[len(new)-1].present {
			return spliceOp{}, false
		}
		return spliceOp{kind: spliceJoin, oldIdx: -1, newIdx: rank(new, len(new)-1)}, true
	}
	if len(new) != len(old) {
		return spliceOp{}, false
	}
	diff := -1
	for i := range old {
		if old[i] != new[i] {
			if diff >= 0 {
				return spliceOp{}, false
			}
			diff = i
		}
	}
	if diff < 0 {
		return spliceOp{}, false
	}
	switch {
	case old[diff].present && new[diff].present:
		return spliceOp{kind: spliceRate, oldIdx: rank(old, diff), newIdx: rank(new, diff)}, true
	case old[diff].present && !new[diff].present:
		return spliceOp{kind: spliceLeave, oldIdx: rank(old, diff), newIdx: -1}, true
	default:
		// A member (re)appearing mid-list has no append position to splice
		// into; only appended joins are spliceable.
		return spliceOp{}, false
	}
}

// spliceBidding stands in for phaseBidding on an incremental re-bid
// round. It aligns this round's participants with the cache, re-verifies
// every kept envelope (memoized when the run has a memo), has the changed
// member broadcast its fresh bid under the current round ID, forwards the
// incumbent bids to a joining newcomer, and binds the referee to the
// resulting per-processor epochs. It returns the spliced cache future
// reuse rounds serve from.
func (r *run) spliceBidding(c *bidCache, sp spliceOp) (*bidCache, error) {
	r.xp.beginPhase()
	if r.bidEpoch != c.epoch {
		return nil, fmt.Errorf("protocol: round bound to bid epoch %q but cache holds epoch %q", r.bidEpoch, c.epoch)
	}
	// src[i] is the cached index serving participant i; -1 marks the
	// freshly bidding member.
	src := make([]int, r.m)
	switch sp.kind {
	case spliceRate:
		if r.m != len(c.procs) || sp.newIdx < 0 || sp.newIdx >= r.m {
			return nil, fmt.Errorf("protocol: splice: round has %d participants, cache holds %d (stale member set)", r.m, len(c.procs))
		}
		for i := range src {
			src[i] = i
		}
		src[sp.newIdx] = -1
	case spliceJoin:
		if r.m != len(c.procs)+1 || sp.newIdx != r.m-1 {
			return nil, fmt.Errorf("protocol: splice: join must append (round has %d participants, cache holds %d)", r.m, len(c.procs))
		}
		for i := 0; i < r.m-1; i++ {
			src[i] = i
		}
		src[r.m-1] = -1
	case spliceLeave:
		if r.m != len(c.procs)-1 || sp.oldIdx < 0 || sp.oldIdx >= len(c.procs) {
			return nil, fmt.Errorf("protocol: splice: round has %d participants, cache holds %d (stale member set)", r.m, len(c.procs))
		}
		for i := range src {
			if i < sp.oldIdx {
				src[i] = i
			} else {
				src[i] = i + 1
			}
		}
	}
	for i, s := range src {
		if s >= 0 && c.procs[s] != r.procs[i] {
			return nil, fmt.Errorf("protocol: splice: participant %d is %s, cache holds %s (stale member set)", i, r.procs[i], c.procs[s])
		}
	}

	// Kept envelopes: re-verified against this round's fresh registry and
	// re-checked against the cache, exactly as a reuse round would.
	r.bids = make([]float64, r.m)
	r.bidEnvs = make([]sig.Envelope, r.m)
	epochs := make([]string, r.m)
	for i, s := range src {
		if s < 0 {
			continue
		}
		env := &c.bidEnvs[s]
		var bp referee.BidPayload
		if err := r.open(env, &bp); err != nil {
			return nil, fmt.Errorf("protocol: cached bid of %s failed re-verification: %w", c.procs[s], err)
		}
		if env.Sender != c.procs[s] || bp.Proc != c.procs[s] {
			return nil, fmt.Errorf("protocol: cached bid %d signed by %q, want %q", s, env.Sender, c.procs[s])
		}
		if bp.Round != c.epochFor(s) {
			return nil, fmt.Errorf("protocol: cached bid of %s carries round %q, epoch is %q", c.procs[s], bp.Round, c.epochFor(s))
		}
		if bp.Bid != c.bids[s] {
			return nil, fmt.Errorf("protocol: cached bid of %s is %v in the envelope, %v in the cache", c.procs[s], bp.Bid, c.bids[s])
		}
		if got := r.agents[i].Bid(); got != c.bids[s] {
			return nil, fmt.Errorf("protocol: %s now bids %v but the cache holds %v; a full rebid is required", c.procs[s], got, c.bids[s])
		}
		r.bids[i] = c.bids[s]
		r.bidEnvs[i] = c.bidEnvs[s]
		epochs[i] = c.epochFor(s)
	}

	// The changed member broadcasts its fresh bid, signed in THIS round —
	// its new bid epoch. Θ(m) deliveries instead of the Θ(m²) exchange.
	changed := ""
	if sp.newIdx >= 0 {
		a := r.agents[sp.newIdx]
		changed = a.ID
		env, err := sig.SealBinary(a.Key, referee.KindBid, referee.BidPayload{Proc: a.ID, Bid: a.Bid(), Round: r.roundID})
		if err != nil {
			return nil, err
		}
		others := make([]string, 0, r.m-1)
		for i, p := range r.procs {
			if i != sp.newIdx {
				others = append(others, p)
			}
		}
		missing, err := r.xp.broadcastReliable(a.ID, referee.KindBid, env, 1, others)
		if err != nil {
			return nil, err
		}
		if len(missing) > 0 {
			return nil, fmt.Errorf("%w: spliced bid of %s undelivered to %v", ErrUnreachable, a.ID, missing)
		}
		r.bids[sp.newIdx] = a.Bid()
		r.bidEnvs[sp.newIdx] = env
		epochs[sp.newIdx] = r.roundID
	} else {
		changed = c.procs[sp.oldIdx]
	}
	// A joining newcomer holds none of the cached bids: each incumbent
	// forwards its own signed envelope point-to-point (Θ(m) unicasts).
	if sp.kind == spliceJoin {
		newcomer := r.procs[sp.newIdx]
		for i, s := range src {
			if s < 0 {
				continue
			}
			if _, err := r.xp.sendReliable(r.procs[i], newcomer, referee.KindBid, r.bidEnvs[i], 1); err != nil {
				return nil, err
			}
		}
	}

	// The spliced bid vector is a new public vector, so a derived fine is
	// re-derived from it exactly as a full exchange would — a join or a
	// rate change can move the suggested F. An explicitly configured fine
	// is fixed either way.
	fine := r.cfg.Fine
	if fine == 0 {
		fine = referee.SuggestedFine(r.bids, 4)
	}
	var err error
	r.ref, err = referee.New(r.ver, r.ledger, r.mech, r.procs, fine)
	if err != nil {
		return nil, err
	}
	if err := r.ref.BindRoundsSpliced(r.roundID, r.bidEpoch, epochs); err != nil {
		return nil, err
	}
	if err := r.armStandby(); err != nil {
		return nil, err
	}
	r.recordInstallment()
	r.epochs = epochs
	r.outcome.FineMagnitude = fine
	r.ref.RecordBidSplice(changed, sp.kind.String(), c.epoch)
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind:   obs.EvBidSpliced,
			Round:  r.roundID,
			Detail: fmt.Sprintf("%s of %s onto epoch %s", sp.kind, changed, c.epoch),
		})
	}
	return &bidCache{
		epoch:   c.epoch,
		procs:   append([]string(nil), r.procs...),
		bids:    append([]float64(nil), r.bids...),
		bidEnvs: append([]sig.Envelope(nil), r.bidEnvs...),
		epochs:  epochs,
		fine:    fine,
		// Future reuse rounds save (approximately) the last full
		// exchange's traffic; the splice itself cost only Θ(m).
		bidding: c.bidding,
	}, nil
}

// JobConfig describes one load served by a BidSession. The session owns
// the network class, bus rate z, member set, true rates, fine and keyring;
// a job brings everything load-specific. Behaviors are indexed by the
// session's member (config) index and default to honest; members that
// left or were evicted are forced to Abstain regardless.
type JobConfig struct {
	// Z overrides nothing — the bus rate is session state. (Field order
	// mirrors Config for the load-specific subset.)

	// Seed drives key generation (first round only — later rounds hit the
	// session keyring) and the synthetic dataset.
	Seed int64
	// NBlocks and BlockSize set the dataset granularity; zero selects the
	// protocol defaults.
	NBlocks   int
	BlockSize int
	// Behaviors assigns per-member strategies for this job.
	Behaviors []agent.Behavior
	// Faults and Retry configure the link layer for this job.
	Faults *bus.FaultPlan
	Retry  RetryPolicy
	// Tracer receives this round's span and event records (see
	// Config.Tracer); per-job because trace ownership follows the load,
	// not the pool.
	Tracer obs.Tracer
}

// bidProfile is what a member's Bidding-phase conduct would look like this
// round: whether it participates, what it would bid, and whether it would
// deviate during bidding (equivocate or raise a false accusation). Two
// rounds with element-wise equal profiles produce byte-identical bid
// exchanges, so the cached one can serve — the reuse decision is this
// comparison and nothing else, which is what makes "never re-bids when
// nothing changed" and "always re-bids when something did" hold by
// construction.
type bidProfile struct {
	present   bool
	bid       float64
	hasSecond bool
	second    float64
	accuses   bool
	// frames marks a member that files a fabricated unreachability report
	// during Bidding. Framer rounds never serve from (or splice onto) the
	// cache: the framing attempt — and its conviction — belongs to every
	// round the framer actually runs a Bidding phase in.
	frames bool
}

// profileFrames reports whether any present member frames a rival this
// round; such rounds always run the full bid exchange.
func profileFrames(ps []bidProfile) bool {
	for _, p := range ps {
		if p.present && p.frames {
			return true
		}
	}
	return false
}

// SessionStats counts what a BidSession did and saved.
type SessionStats struct {
	// Rounds is the number of Run calls that produced an outcome or error.
	Rounds int
	// Rebids is the number of rounds that ran a full Bidding phase.
	Rebids int
	// IncrementalRebids is the number of rounds that spliced a single
	// changed member's fresh bid into the cached set instead of running
	// the full exchange.
	IncrementalRebids int
	// RoundsSinceRebid counts consecutive reuse rounds since the last
	// rebid.
	RoundsSinceRebid int
	// BidEpoch is the round ID the cached bids were signed in; empty
	// before the first successful bidding round.
	BidEpoch string
	// SavedMessages / SavedDeliveries / SavedUnits total the bus traffic
	// the reuse rounds avoided (the cached Bidding exchange's cost, once
	// per reuse round). Deliveries is the Θ(m²) term: m broadcasts × m−1
	// receivers each.
	SavedMessages   int
	SavedDeliveries int
	SavedUnits      int
}

// Member describes one active session member.
type Member struct {
	Index int     // config index, stable for the session's lifetime
	ID    string  // processor id, "P<Index+1>"
	W     float64 // announced per-unit processing time
}

// BidSession amortizes the Bidding phase across a stream of loads. It is
// not safe for concurrent use: callers (the service layer's per-pool
// runners, the session chainer) serialize rounds.
//
// Member indices are config indices: a member that leaves keeps its index
// (as a permanent abstainer) so later joins never alias an old identity —
// signed bids name "P<i+1>" and identity reuse would let an old member's
// envelopes verify for a new one. Note the load originator
// (Network.Originator) can never leave: NCP-FE pins P1, NCP-NFE pins the
// highest index, so under NCP-NFE each Join transfers the originator role
// to the newcomer.
type BidSession struct {
	base  Config // Network, Z, Fine, Keys; TrueW/Behaviors are per-round
	trueW []float64
	gone  []bool
	salt  string

	cache        *bidCache
	cacheProfile []bidProfile

	rounds     int
	rebids     int
	splices    int
	sinceRebid int
	saved      bus.Stats
}

// NewBidSession creates a session over cfg's network class, bus rate,
// initial member rates, fine policy and keyring. cfg.Behaviors, Seed,
// NBlocks, BlockSize, Faults and Retry are per-job (JobConfig) and must be
// zero here, as must Standby and FailoverIn: referee failover runs only
// through a one-shot Run. A nil cfg.Keys gets a fresh keyring — the ring is what lets a
// reuse round's fresh PKI registry verify envelopes signed rounds ago.
func NewBidSession(cfg Config) (*BidSession, error) {
	if cfg.Behaviors != nil || cfg.Faults != nil || cfg.NBlocks != 0 || cfg.BlockSize != 0 || cfg.Seed != 0 || (cfg.Retry != RetryPolicy{}) || cfg.Tracer != nil || cfg.LoadFrac != 0 || cfg.FailoverIn != "" || cfg.Standby {
		return nil, errors.New("protocol: per-job fields (Behaviors, Seed, NBlocks, BlockSize, Faults, Retry, Tracer, LoadFrac) belong in JobConfig and referee failover (Standby, FailoverIn) in a one-shot Run, not the session Config")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &BidSession{
		base:  cfg,
		trueW: append([]float64(nil), cfg.TrueW...),
		gone:  make([]bool, len(cfg.TrueW)),
		salt:  sessionSalt(cfg),
	}
	if s.base.Keys == nil {
		s.base.Keys = sig.NewKeyring()
	}
	if s.base.Memo == nil {
		// One memo for the session's lifetime: its whole point is reusing
		// the same envelopes round after round, which is exactly what the
		// verified-envelope memo collapses into hits. Outcomes are
		// unaffected (a hit only skips re-verifying a byte-identical,
		// already-verified envelope).
		s.base.Memo = sig.NewVerifyMemo()
	}
	return s, nil
}

// sessionSalt derives a deterministic session identifier from the
// founding configuration, so round IDs are reproducible for a given
// session history (no clock, no global RNG).
func sessionSalt(cfg Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%g|%v", cfg.Network, cfg.Z, cfg.TrueW)
	return fmt.Sprintf("s%016x", h.Sum64())
}

// Run serves one load. It decides reuse-vs-rebid by comparing this job's
// bid profile against the cached one, stamps the round with a fresh
// session-salted ID, and on a rebid round captures the new bid set. A
// round that errors changes no session state other than consuming its
// round number.
func (s *BidSession) Run(job JobConfig) (*Outcome, error) {
	s.rounds++
	return s.serve(job, RoundRef{Salt: s.salt, Round: s.rounds}, 1, 1, 1, 0)
}

// NextRound reserves and returns the next session round number. The
// pipelined scheduler (internal/pipeline) reserves a round up front and
// serves it in installment sub-rounds via RunSub; plain Run reserves its
// own round. A reserved round that is never served simply leaves a gap
// in the numbering — round IDs only ever need to be distinct.
func (s *BidSession) NextRound() int {
	s.rounds++
	return s.rounds
}

// RunSub serves installment k (1-based) of `of` sub-rounds of session
// round n (from NextRound), carrying frac of the load divided under the
// given policy. The sub-round is a full protocol round under the ID
// "<salt>:rN.iK" — served from the cached bid set when the profile
// allows, re-bidding otherwise, exactly like Run — with the money flow
// scaled by frac (Config.LoadFrac) and the allocation/payment rule
// switched to the installment class (dlt.PipelinedAllocation +
// multi-round makespan terms). With of=1 the ID collapses to the plain
// "<salt>:rN" and the round is byte-identical to a Run round, allocation
// rule included.
func (s *BidSession) RunSub(job JobConfig, n, k, of int, frac float64, policy dlt.RoundPolicy) (*Outcome, error) {
	if n < 1 || n > s.rounds {
		return nil, fmt.Errorf("protocol: sub-round of unreserved session round %d", n)
	}
	if k < 1 || of < 1 || k > of {
		return nil, fmt.Errorf("protocol: installment %d of %d out of range", k, of)
	}
	if !(frac > 0) || frac > 1 {
		return nil, fmt.Errorf("protocol: installment fraction %v outside (0,1]", frac)
	}
	rr := RoundRef{Salt: s.salt, Round: n}
	if of > 1 {
		rr.Installment = k
	}
	return s.serve(job, rr, k, of, frac, policy)
}

// serve executes one (sub-)round under the given round reference,
// deciding reuse vs incremental re-bid vs full exchange by bid-profile
// comparison. frac scales the money flow; inst/instOf/policy mark the
// installment for the referee's transcript and select the installment
// allocation rule (1/1 for whole-load rounds, which skip both).
func (s *BidSession) serve(job JobConfig, rr RoundRef, inst, instOf int, frac float64, policy dlt.RoundPolicy) (*Outcome, error) {
	round := rr.String()
	cfg := s.roundConfig(job)
	cfg.LoadFrac = frac
	prof := profileFor(cfg)
	rb := roundBinding{round: round}
	if instOf > 1 {
		rb.inst, rb.instOf, rb.policy = inst, instOf, policy
	}

	if s.cache != nil && profilesEqual(prof, s.cacheProfile) && !profileFrames(prof) {
		rb.epoch = s.cache.epoch
		out, _, err := executeRound(cfg, rb, s.cache, nil)
		if err != nil {
			return nil, err
		}
		s.sinceRebid++
		s.saved.Messages += s.cache.bidding.Messages
		s.saved.Deliveries += s.cache.bidding.Deliveries
		s.saved.Units += s.cache.bidding.Units
		return out, nil
	}

	// Single-member delta against the cached profile: try the incremental
	// re-bid first. Any failure on the spliced path — an unreachable peer,
	// a stale cache, a downstream phase error — falls back to the full
	// exchange below; the aborted attempt built only per-round state, so
	// nothing leaks into the retry (which reuses this round's ID).
	if s.cache != nil {
		if sp, ok := spliceDelta(s.cacheProfile, prof); ok {
			rb.epoch = s.cache.epoch
			out, spliced, err := executeRound(cfg, rb, s.cache, &sp)
			if err == nil {
				s.splices++
				s.sinceRebid = 0
				s.cache = spliced
				s.cacheProfile = prof
				return out, nil
			}
		}
	}

	rb.epoch = round
	out, cache, err := executeRound(cfg, rb, nil, nil)
	if err != nil {
		return nil, err
	}
	s.rebids++
	s.sinceRebid = 0
	// Bidding-phase evictions permanently remove members; the captured
	// cache (if any) already holds survivors only, so the profile it is
	// filed under must mark the evicted absent too.
	for i, ev := range out.Evicted {
		if ev && i < len(s.gone) {
			s.gone[i] = true
			prof[i] = bidProfile{}
		}
	}
	if cache != nil {
		// A terminated Bidding phase (equivocation verdict, unfounded
		// accusation) yields no cache; the previous cache — if its member
		// set still matches a future profile — remains serviceable.
		s.cache = cache
		s.cacheProfile = prof
	}
	return out, nil
}

// roundConfig assembles the per-round protocol Config: session state plus
// the job's load-specific fields, with departed members forced to Abstain.
func (s *BidSession) roundConfig(job JobConfig) Config {
	cfg := Config{
		Network:   s.base.Network,
		Z:         s.base.Z,
		TrueW:     append([]float64(nil), s.trueW...),
		Fine:      s.base.Fine,
		NBlocks:   job.NBlocks,
		BlockSize: job.BlockSize,
		Seed:      job.Seed,
		Faults:    job.Faults,
		Retry:     job.Retry,
		Keys:      s.base.Keys,
		Tracer:    job.Tracer,
		Memo:      s.base.Memo,
	}
	behaviors := make([]agent.Behavior, len(s.trueW))
	for i := range behaviors {
		if i < len(job.Behaviors) {
			behaviors[i] = job.Behaviors[i]
		}
		if s.gone[i] {
			behaviors[i] = agent.Behavior{Name: "departed", Abstain: true}
		}
	}
	cfg.Behaviors = behaviors
	return cfg
}

// profileFor derives the bid profile a Config would produce, mirroring
// agent.Bid/SecondBid exactly (same expressions, so float equality is
// sound).
func profileFor(cfg Config) []bidProfile {
	prof := make([]bidProfile, len(cfg.TrueW))
	for i, w := range cfg.TrueW {
		var b agent.Behavior
		if i < len(cfg.Behaviors) {
			b = cfg.Behaviors[i]
		}
		b = b.Normalize()
		if b.Abstain {
			continue
		}
		p := bidProfile{present: true, bid: b.BidFactor * w, accuses: b.FalseEquivocationReport, frames: b.FrameRival}
		if b.Equivocate {
			p.hasSecond = true
			p.second = p.bid * b.EquivocationFactor
		}
		prof[i] = p
	}
	return prof
}

func profilesEqual(a, b []bidProfile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Join adds a member with per-unit processing time w and returns its
// config index. The next Run re-bids (the profile grew). Under NCP-NFE the
// newcomer becomes the load originator (P_m originates).
func (s *BidSession) Join(w float64) (int, error) {
	if !(w > 0) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("protocol: invalid rate %v", w)
	}
	s.trueW = append(s.trueW, w)
	s.gone = append(s.gone, false)
	return len(s.trueW) - 1, nil
}

// Leave removes member i from all future rounds. The load originator
// cannot leave (without it there is no load source), and at least two
// members must remain. The next Run re-bids.
func (s *BidSession) Leave(i int) error {
	if i < 0 || i >= len(s.trueW) {
		return fmt.Errorf("protocol: no member %d", i)
	}
	if s.gone[i] {
		return fmt.Errorf("protocol: member P%d already left", i+1)
	}
	if i == s.base.Network.Originator(len(s.trueW)) {
		return fmt.Errorf("protocol: the load-originating processor P%d cannot leave", i+1)
	}
	active := 0
	for j, g := range s.gone {
		if !g && j != i {
			active++
		}
	}
	if active < 2 {
		return errors.New("protocol: need at least two remaining members")
	}
	s.gone[i] = true
	return nil
}

// AnnounceRate records member i's new per-unit processing time. If the
// value actually differs, the next Run re-bids; announcing the current
// rate changes nothing and triggers no rebid (the profile is unchanged).
func (s *BidSession) AnnounceRate(i int, w float64) error {
	if i < 0 || i >= len(s.trueW) {
		return fmt.Errorf("protocol: no member %d", i)
	}
	if s.gone[i] {
		return fmt.Errorf("protocol: member P%d has left", i+1)
	}
	if !(w > 0) || math.IsInf(w, 0) {
		return fmt.Errorf("protocol: invalid rate %v", w)
	}
	s.trueW[i] = w
	return nil
}

// Network returns the session's network class.
func (s *BidSession) Network() dlt.Network { return s.base.Network }

// Z returns the session's per-unit bus communication time.
func (s *BidSession) Z() float64 { return s.base.Z }

// Members lists the active members.
func (s *BidSession) Members() []Member {
	var out []Member
	for i, w := range s.trueW {
		if !s.gone[i] {
			out = append(out, Member{Index: i, ID: fmt.Sprintf("P%d", i+1), W: w})
		}
	}
	return out
}

// Stats reports the session counters.
func (s *BidSession) Stats() SessionStats {
	st := SessionStats{
		Rounds:            s.rounds,
		Rebids:            s.rebids,
		IncrementalRebids: s.splices,
		RoundsSinceRebid:  s.sinceRebid,
		SavedMessages:     s.saved.Messages,
		SavedDeliveries:   s.saved.Deliveries,
		SavedUnits:        s.saved.Units,
	}
	if s.cache != nil {
		st.BidEpoch = s.cache.epoch
	}
	return st
}
