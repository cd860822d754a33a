package protocol

import (
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

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
// only when a job changes who bids or what they bid: an abstention, a
// ban, an evictee's return, a changed bid factor. Per-job traffic drops from
// Θ(m²) to Θ(m) after round one: Θ(m² + k·m) across k jobs.
//
// Every round gets a fresh session-salted round ID folded into the signed
// per-round artifacts and the referee's audit transcript, so a message
// captured in round j and replayed in round j+1 is detectable (its round
// stamp no longer matches). Each cached bid envelope carries the ID of the
// round it was signed in — its "bid epoch" — and the referee is bound to
// the current round and to every participant's epoch (referee.BindRounds).

// bidCache is the product of one clean Bidding phase: the agreed bid
// vector, the signed envelopes behind it, and the bus traffic the exchange
// cost (what every reuse round saves). It is valid for exactly the member
// set and bid values it was captured with; BidSession re-bids the moment
// either changes, and cachedBidding independently re-verifies every cached
// envelope before serving a round from it.
type bidCache struct {
	epoch   string   // base epoch: round ID of the last full bid exchange
	procs   []string // participant ids, index order
	bids    []float64
	bidEnvs []sig.Envelope
	// epochs[i] is the round bid i was signed in: the base epoch after a
	// full exchange, a splice round's ID for the member it re-bid. The
	// cache owns the slice; no run aliases it.
	epochs  []string
	bidding bus.Stats // traffic the bid exchange cost
	served  int       // reuse rounds settled so far
}

// captureBidCache snapshots the run's verified bid set into a cache of its
// own (every slice copied, so a later eviction compacting the run's state
// cannot reach it). epoch is the cache's base epoch and bidding the
// exchange traffic its reuse rounds save.
func (r *run) captureBidCache(epoch string, bidding bus.Stats) *bidCache {
	return &bidCache{
		epoch:   epoch,
		procs:   append([]string(nil), r.procs...),
		bids:    append([]float64(nil), r.bids...),
		bidEnvs: append([]sig.Envelope(nil), r.bidEnvs...),
		epochs:  append([]string(nil), r.epochs...),
		bidding: bidding,
	}
}

// ---- Cached bidding: reuse and incremental re-bid (bid splicing) ---------
//
// A round whose bid profile equals the cached one is a reuse round: no
// member bids afresh. A full re-bid costs the Θ(m²) exchange even when
// only ONE member's conduct changed — a different bid, or an abstention
// or ban. For those single-member deltas the session runs an incremental
// re-bid instead: the changed member broadcasts one fresh bid (Θ(m)
// deliveries), every other member's cached envelope is re-verified and
// spliced in unchanged, and the referee is bound to per-participant epochs
// so each bid is checked against the round it was actually signed in. Any
// deviation from the happy path — deviants in either profile, an
// unreachable peer, a stale cache — falls back to the full exchange.

// spliceOp names the changed member in participant space: oldIdx indexes
// the cached participant list, newIdx this round's, or -1 when the member
// sits this round out.
type spliceOp struct {
	oldIdx int
	newIdx int
}

// kind names the single-member delta the splice absorbs, for transcript
// entries and logs: a member that bids a different value, or one that
// left.
func (sp spliceOp) kind() string {
	if sp.newIdx < 0 {
		return "leave"
	}
	return "rate-change"
}

// spliceDelta compares the cached bid profile with this round's and
// reports the single-member delta between them, if that is all that
// separates them. Profiles with bidding-phase deviants (equivocators,
// false accusers) are never spliceable — their exchanges are not made of
// independent per-member broadcasts — and neither is a member's return:
// it holds none of the cached bids, so it runs the full exchange.
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
	case !old[diff].present:
		return spliceOp{}, false
	case new[diff].present:
		return spliceOp{oldIdx: rank(old, diff), newIdx: rank(new, diff)}, true
	default:
		return spliceOp{oldIdx: rank(old, diff), newIdx: -1}, true
	}
}

// cachedBidding stands in for phaseBidding on a round served from the bid
// cache: an O(m) pass instead of the Θ(m²) exchange. A nil sp is a reuse
// round — this round's participants are exactly the cache's and nobody
// bids afresh. A non-nil sp is an incremental re-bid: the changed member
// broadcasts a fresh bid signed in this round (its new epoch), or a
// leaving member's bid is dropped. Either way every kept envelope is
// re-verified against this round's PKI registry, which holds exactly
// this round's participants (see roundState) — the cache is trusted for
// liveness, never for authenticity — and the referee is seated bound to
// each participant's epoch. It returns the cache later rounds serve
// from: c itself after a reuse round, the spliced cache after a splice.
func (r *run) cachedBidding(c *bidCache, sp *spliceOp) (*bidCache, error) {
	r.xp.beginPhase()
	src, err := r.alignCache(c, sp)
	if err != nil {
		return nil, err
	}
	if err := r.keepCachedBids(c, sp, src); err != nil {
		return nil, err
	}
	if sp != nil {
		if err := r.spliceFreshBid(*sp); err != nil {
			return nil, err
		}
	}
	// A spliced bid vector is a new public vector, so seatReferee derives
	// its fine exactly as a full exchange would.
	if err := r.seatReferee(); err != nil {
		return nil, err
	}
	if sp == nil {
		// The cache counts this reuse round only once the round settles
		// (BidSession.serve), so a failed attempt leaves it as it was.
		n := c.served + 1
		r.ref.RecordBidReuse(c.epoch, n)
		if r.tracer != nil {
			r.tracer.Event(obs.Event{
				Kind:   obs.EvBidReused,
				Round:  r.roundID,
				Detail: fmt.Sprintf("epoch %s, reuse round %d", c.epoch, n),
			})
		}
		return c, nil
	}
	changed := c.procs[sp.oldIdx]
	r.ref.RecordBidSplice(changed, sp.kind(), c.epoch)
	if r.tracer != nil {
		r.tracer.Event(obs.Event{
			Kind:   obs.EvBidSpliced,
			Round:  r.roundID,
			Detail: fmt.Sprintf("%s of %s onto epoch %s", sp.kind(), changed, c.epoch),
		})
	}
	// Future reuse rounds save (approximately) the last full exchange's
	// traffic; the splice itself cost only Θ(m).
	return r.captureBidCache(c.epoch, c.bidding), nil
}

// hearFromSeated has every participant of a cached round re-send its bid
// in force to the referee. A full exchange evicts a member that answers
// nothing during Bidding; a cached round exchanged no bids, so it must
// hear from every member before it settles without the meters broadcast
// (a verdict ends Allocating) or evicts a member that crashed. A silent
// member fails the round with ErrUnreachable, which BidSession.serve
// reruns as the full exchange. A full exchange sends nothing here.
func (r *run) hearFromSeated() error {
	if !r.cached {
		return nil
	}
	for i, p := range r.procs {
		if _, err := r.xp.sendReliable(p, r.refAddr, referee.KindBid, r.bidEnvs[i], 1); err != nil {
			return err
		}
	}
	return nil
}

// spliceFreshBid has the changed member of a splice broadcast its fresh
// bid, signed in THIS round — its new bid epoch: Θ(m) deliveries instead
// of the Θ(m²) exchange. A leave broadcasts nothing.
func (r *run) spliceFreshBid(sp spliceOp) error {
	if sp.newIdx < 0 {
		return nil
	}
	a := r.agents[sp.newIdx]
	env, err := sig.SealBinary(a.Key, referee.KindBid, referee.BidPayload{Proc: a.ID, Bid: a.Bid(), Round: r.roundID})
	if err != nil {
		return err
	}
	others := make([]string, 0, r.m-1)
	for i, p := range r.procs {
		if i != sp.newIdx {
			others = append(others, p)
		}
	}
	missing, err := r.xp.broadcastReliable(a.ID, referee.KindBid, env, 1, others)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("%w: spliced bid of %s undelivered to %v", ErrUnreachable, a.ID, missing)
	}
	r.bids[sp.newIdx] = a.Bid()
	r.bidEnvs[sp.newIdx] = env
	r.epochs[sp.newIdx] = r.roundID
	return nil
}

// alignCache maps this round's participants onto the cache: src[i] is the
// cached index serving participant i, or -1 for the member that bids
// afresh (sp.newIdx of a rate change, which takes the slot its cached bid
// leaves). A cached participant the splice drops (sp.oldIdx) serves
// nobody.
func (r *run) alignCache(c *bidCache, sp *spliceOp) ([]int, error) {
	fresh, drop := -1, -1
	if sp != nil {
		fresh, drop = sp.newIdx, sp.oldIdx
	}
	src := make([]int, 0, r.m)
	for s := range c.procs {
		if len(src) == fresh {
			src = append(src, -1)
		}
		if s != drop {
			src = append(src, s)
		}
	}
	if len(src) != r.m {
		return nil, fmt.Errorf("protocol: bid cache serves %d processors, round has %d (stale member set)", len(src), r.m)
	}
	for i, s := range src {
		if s >= 0 && c.procs[s] != r.procs[i] {
			return nil, fmt.Errorf("protocol: participant %d is %s, bid cache holds %s (stale member set)", i, r.procs[i], c.procs[s])
		}
	}
	return src, nil
}

// keepCachedBids installs the kept cached bids as this round's bid vector,
// envelopes and epochs, after verifying every kept envelope in one batch
// (memo hits for envelopes that verified in an earlier round), decoding
// each verified one without a second check, and re-checking each against
// the cache — sender, epoch, bid value — and against the agent's current
// announced bid. The fresh member's slot (src -1) is left for the caller.
func (r *run) keepCachedBids(c *bidCache, sp *spliceOp, src []int) error {
	// A reuse round keeps every cached envelope in place, so the cache's
	// own slice is the batch; a splice gathers the kept ones.
	kept := c.bidEnvs
	if sp != nil {
		kept = make([]sig.Envelope, 0, len(src))
		for _, s := range src {
			if s >= 0 {
				kept = append(kept, c.bidEnvs[s])
			}
		}
	}
	memoBefore := r.ver.Stats().MemoHits
	verified, errs := r.ver.VerifyEach(kept)
	if r.tracer != nil {
		h := r.ver.Stats().MemoHits - memoBefore
		r.tracer.Event(obs.Event{
			Kind:   obs.EvVerifyBatch,
			Round:  r.roundID,
			Detail: fmt.Sprintf("%d cached bids, %d memo hits", len(kept), h),
		})
		if h > 0 {
			r.tracer.Event(obs.Event{
				Kind:   obs.EvVerifyMemoHit,
				Round:  r.roundID,
				Detail: fmt.Sprintf("%d verifications skipped", h),
			})
		}
	}
	// The bid set goes into the round state's slices; every entry is
	// written below, the fresh member's slot zeroed for the caller.
	st := r.st
	st.bids = slices.Grow(st.bids[:0], r.m)[:r.m]
	st.bidEnvs = slices.Grow(st.bidEnvs[:0], r.m)[:r.m]
	st.epochs = slices.Grow(st.epochs[:0], r.m)[:r.m]
	r.bids, r.bidEnvs, r.epochs = st.bids, st.bidEnvs, st.epochs
	k := 0
	// Decoding writes every field, into the previous bid's strings.
	var bp referee.BidPayload
	for i, s := range src {
		if s < 0 {
			r.bids[i], r.bidEnvs[i], r.epochs[i] = 0, sig.Envelope{}, ""
			continue
		}
		env := &c.bidEnvs[s]
		err := errs[k]
		if err == nil {
			err = verified[k].Open(&bp)
		}
		k++
		if err != nil {
			return fmt.Errorf("protocol: cached bid of %s failed re-verification: %w", c.procs[s], err)
		}
		if env.Sender != c.procs[s] || bp.Proc != c.procs[s] {
			return fmt.Errorf("protocol: cached bid %d signed by %q, want %q", s, env.Sender, c.procs[s])
		}
		if bp.Round != c.epochs[s] {
			return fmt.Errorf("protocol: cached bid of %s carries round %q, epoch is %q", c.procs[s], bp.Round, c.epochs[s])
		}
		if bp.Bid != c.bids[s] {
			return fmt.Errorf("protocol: cached bid of %s is %v in the envelope, %v in the cache", c.procs[s], bp.Bid, c.bids[s])
		}
		if got := r.agents[i].Bid(); got != c.bids[s] {
			return fmt.Errorf("protocol: %s now bids %v but the cache holds %v; a rebid round is required", c.procs[s], got, c.bids[s])
		}
		r.bids[i], r.bidEnvs[i], r.epochs[i] = c.bids[s], *env, c.epochs[s]
	}
	return nil
}

// JobConfig describes one load served by a BidSession. The session owns
// the network class, bus rate z (see SetZ), member set, true rates, fine
// and keyring; a job brings everything load-specific. Behaviors are
// indexed by the session's member (config) index and default to honest.
type JobConfig struct {
	// Seed drives key generation (first round only — later rounds hit the
	// session keyring).
	Seed int64
	// NBlocks sets the number of blocks the load is divided into; zero
	// selects the protocol default.
	NBlocks int
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

// BidSession amortizes the Bidding phase across a stream of loads. It is
// not safe for concurrent use: callers (the service layer's per-pool
// runners, the session chainer) serialize rounds.
//
// Its members are the processors it was founded with, P1…Pm, at their
// founding rates, as in the paper, where Initialization registers every
// processor once. A job's Behaviors decide who bids and what: a member
// sits a job out by abstaining (or by a ban) and bids again the job
// after, so a signed bid's "P<i+1>" always names the same processor.
type BidSession struct {
	base Config // Network, Z, Fine, Keys, Memo and the founding TrueW
	salt string

	cache        *bidCache
	cacheProfile []bidProfile
	// prof is the buffer profileFor fills for the round in progress;
	// cacheProfile is always a copy of it.
	prof []bidProfile
	// state is the round state every round this session serves is set up
	// over (see roundState); nil until the first round, and after
	// DropCache. freshState, set only by tests, drops it before every
	// round, so a test can replay a history against rounds that build
	// everything afresh.
	state      *roundState
	freshState bool

	rounds     int
	rebids     int
	splices    int
	sinceRebid int
	saved      bus.Stats
}

// NewBidSession creates a session over cfg's network class, bus rate,
// initial member rates, fine policy and keyring. cfg.Behaviors, Seed,
// NBlocks, Faults and Retry are per-job (JobConfig) and must be
// zero here, as must Standby and FailoverIn: referee failover runs only
// through a one-shot Run. A nil cfg.Keys gets a fresh keyring — the
// ring is what lets the registry a round builds for a new participant set
// verify envelopes signed rounds ago.
func NewBidSession(cfg Config) (*BidSession, error) {
	if cfg.Behaviors != nil || cfg.Faults != nil || cfg.NBlocks != 0 || cfg.Seed != 0 || (cfg.Retry != RetryPolicy{}) || cfg.Tracer != nil || cfg.FailoverIn != "" || cfg.Standby {
		return nil, errors.New("protocol: per-job fields (Behaviors, Seed, NBlocks, Faults, Retry, Tracer) belong in JobConfig and referee failover (Standby, FailoverIn) in a one-shot Run, not the session Config")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &BidSession{base: cfg, salt: sessionSalt(cfg)}
	// The session keeps its own copy of the rates, so a caller's slice
	// never aliases them.
	s.base.TrueW = slices.Clone(cfg.TrueW)
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
// session history (no clock, no global RNG). A later SetZ does not move
// it.
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
// scaled by frac and the allocation/payment rule switched to the
// installment class (dlt.PipelinedAllocation priced by the period rule,
// core.PaymentEngine.RunPeriodInto). With of=1 the ID collapses to the
// plain "<salt>:rN" and the round is byte-identical to a Run round,
// allocation rule included.
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

// serve executes one (sub-)round under the given round reference. A
// profile equal to the cached one is a reuse round and a single-member
// delta a splice; both are served from the cache, and any failure on that
// path — an unreachable peer, a stale cache, a downstream phase error —
// falls back to the full exchange under the same round ID. The aborted
// attempt built only per-round state and the session commits nothing
// until a round settles, so the cache and Stats read as if it never ran.
// frac scales the money flow; inst/instOf/policy mark the installment for
// the referee's transcript and select the installment allocation rule
// (1/1 for whole-load rounds, which skip both).
func (s *BidSession) serve(job JobConfig, rr RoundRef, inst, instOf int, frac float64, policy dlt.RoundPolicy) (*Outcome, error) {
	round := rr.String()
	cfg := s.roundConfig(job)
	s.prof = profileFor(cfg, s.prof)
	prof := s.prof
	rb := roundBinding{round: round, frac: frac}
	if instOf > 1 {
		rb.inst, rb.instOf, rb.policy = inst, instOf, policy
	}

	if sp, ok := s.cachedDelta(prof); ok {
		rb.epoch = s.cache.epoch
		out, next, err := executeRound(cfg, rb, s.cache, sp, s.roundState())
		if err == nil {
			if sp == nil {
				s.cache.served++
				s.sinceRebid++
				s.saved.Messages += s.cache.bidding.Messages
				s.saved.Deliveries += s.cache.bidding.Deliveries
				s.saved.Units += s.cache.bidding.Units
			} else {
				s.splices++
				s.sinceRebid = 0
				s.cache = next
				s.cacheProfile = append(s.cacheProfile[:0], prof...)
			}
			return out, nil
		}
	}

	rb.epoch = round
	out, cache, err := executeRound(cfg, rb, nil, nil, s.roundState())
	if err != nil {
		return nil, err
	}
	s.rebids++
	s.sinceRebid = 0
	// A member evicted during Bidding misses this job only: it stays a
	// member, but the captured cache holds the survivors, so the profile
	// it is filed under marks the evictee absent. Its return is then a
	// profile change, and the next job runs a full exchange with it. A
	// member a later phase evicted (a crash during Processing) is still
	// in the cache, exactly as after a crash on a cached round.
	for _, ev := range out.Evictions {
		if ev.Phase != obs.PhaseBidding {
			continue
		}
		for i, p := range out.Procs {
			if p == ev.Proc {
				prof[i] = bidProfile{}
			}
		}
	}
	if cache != nil {
		// A terminated Bidding phase (equivocation verdict, unfounded
		// accusation) yields no cache; the previous cache — if its member
		// set still matches a future profile — remains serviceable.
		s.cache = cache
		s.cacheProfile = append(s.cacheProfile[:0], prof...)
	}
	return out, nil
}

// roundState returns the round state the next round is set up over.
func (s *BidSession) roundState() *roundState {
	if s.state == nil || s.freshState {
		s.state = &roundState{}
	}
	return s.state
}

// cachedDelta reports whether this round's profile can be served from the
// cache: with a nil op when it equals the cached profile (a reuse round),
// with the splice op when a single member changed. Rounds in which a
// member frames a rival always run the full exchange.
func (s *BidSession) cachedDelta(prof []bidProfile) (*spliceOp, bool) {
	if s.cache == nil || profileFrames(prof) {
		return nil, false
	}
	if profilesEqual(prof, s.cacheProfile) {
		return nil, true
	}
	sp, ok := spliceDelta(s.cacheProfile, prof)
	return &sp, ok
}

// roundConfig assembles the per-round protocol Config: session state plus
// the job's load-specific fields. The Config shares the session's rates
// and the job's behaviors; a round changes neither and keeps neither.
func (s *BidSession) roundConfig(job JobConfig) Config {
	return Config{
		Network:   s.base.Network,
		Z:         s.base.Z,
		TrueW:     s.base.TrueW,
		Behaviors: job.Behaviors,
		Fine:      s.base.Fine,
		NBlocks:   job.NBlocks,
		Seed:      job.Seed,
		Faults:    job.Faults,
		Retry:     job.Retry,
		Keys:      s.base.Keys,
		Tracer:    job.Tracer,
		Memo:      s.base.Memo,
	}
}

// profileFor derives the bid profile a Config would produce, in buf's
// storage, mirroring agent.Bid/SecondBid exactly (same expressions, so
// float equality is sound).
func profileFor(cfg Config, buf []bidProfile) []bidProfile {
	prof := append(buf[:0], make([]bidProfile, len(cfg.TrueW))...)
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

// DropCache discards the cached bid set and the profile it was filed
// under, so the next round runs a full bid exchange, and releases the
// round state, so the next round builds its names, keys, registry, bus
// and referee afresh: after a round stopped at an arbitrary point (a
// panic the service recovered), nothing it touched is reused. Round
// numbering and counters stay: the session salt is deterministic,
// so a session founded afresh would repeat round IDs this one has
// already signed under.
func (s *BidSession) DropCache() {
	s.cache, s.cacheProfile = nil, nil
	s.state = nil
}

// SetZ sets the per-unit bus communication time for the loads that
// follow. Bids are per-unit processing times, and envelopes, epochs and
// message counts carry no z; F is re-derived from the bids each round.
// So a change triggers no rebid, and the session salt keeps the founding
// z, so round IDs do not move either. Each round validates z.
func (s *BidSession) SetZ(z float64) { s.base.Z = z }

// Network returns the session's network class.
func (s *BidSession) Network() dlt.Network { return s.base.Network }

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
