// Package referee implements the minimally-trusted third party of
// DLS-BL-NCP (Section 4). The referee "is isolated and remains passive
// until signaled by a processor that presumes cheating"; it never holds
// the processor parameters unless a conflict arises. Its duties:
//
//   - adjudicate equivocation evidence from the Bidding phase;
//   - adjudicate misallocation claims in the Allocating Load phase,
//     including mediating short deliveries;
//   - read the tamper-proof execution meters and broadcast (φ_1,…,φ_m);
//   - referee the Computing Payments phase: detect contradictory or
//     incorrect payment vectors, recompute the truth when vectors
//     disagree, fine the deviants F each and redistribute the proceeds;
//   - settle all fines through the payment ledger: deviants pay F, any
//     processor that already commenced work is compensated α_i·w̃_i, and
//     the remainder is split evenly among the non-deviating processors.
package referee

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/payment"
	"dlsbl/internal/sig"
)

// Account is the ledger account name of the referee's fine escrow.
const Account = "referee"

// Verdict is the outcome of one adjudication.
type Verdict struct {
	Phase      string   // which protocol stage produced it
	Guilty     []string // parties fined F each (sorted, deduplicated)
	Reason     string
	Terminates bool // whether the protocol must stop immediately
}

// Clean reports whether nobody was fined.
func (v Verdict) Clean() bool { return len(v.Guilty) == 0 }

// Referee holds the adjudication state for one protocol run.
type Referee struct {
	// ver verifies every envelope the referee judges, through the run's
	// memoized batch verifier. A memo hit is possible only for a
	// byte-identical envelope that already verified against the same
	// registry (see sig.VerifyMemo), so the memo never changes a verdict.
	ver    *sig.BatchVerifier
	ledger *payment.Ledger
	mech   core.Mechanism
	procs  []string
	index  map[string]int
	fine   float64
	meters map[string]float64
	audit  AuditLog

	// Round binding for bid-reuse sessions. round is the current round's
	// session-salted ID; bidEpoch is the round ID the cached bids were
	// signed in (equal to round during a bidding round, older during a
	// reuse round). Both empty for standalone runs, which disables every
	// round check — legacy messages carry no Round field.
	round    string
	bidEpoch string
	// epochs, when non-nil, carries per-processor bid epochs (processor
	// index order) for rounds served from a spliced cache: after an
	// incremental re-bid the changed member's bid was signed in a newer
	// round than everyone else's. Nil means the uniform bidEpoch applies.
	epochs []string

	// instRounds/instPolicy, set by RecordInstallment, mark this round as
	// an installment sub-round of a pipelined load: payment recomputation
	// then uses the R-installment rule. Zero for whole-load rounds.
	instRounds int
	instPolicy dlt.RoundPolicy

	// send, when non-nil, streams every state change (audit entries,
	// meters, evictions, installment bindings) to a standby referee; see
	// AttachStandby. replErr latches the first replication failure.
	send    func(AuditReplicaPayload) error
	replErr error
}

// New creates a referee for the given participant list (in processor
// index order). fine is the publicly known magnitude F; the paper requires
// F ≥ Σ_j α_j·w̃_j, which CheckFineSufficient verifies once execution
// values are known. ver is the run's verifier over its PKI registry.
func New(ver *sig.BatchVerifier, ledger *payment.Ledger, mech core.Mechanism, procs []string, fine float64) (*Referee, error) {
	if ver == nil || ledger == nil {
		return nil, errors.New("referee: nil verifier or ledger")
	}
	if len(procs) < 2 {
		return nil, errors.New("referee: need at least two processors")
	}
	if !(fine > 0) || math.IsInf(fine, 0) {
		return nil, fmt.Errorf("referee: invalid fine %v", fine)
	}
	idx := make(map[string]int, len(procs))
	for i, p := range procs {
		if p == "" {
			return nil, errors.New("referee: empty processor id")
		}
		if _, dup := idx[p]; dup {
			return nil, fmt.Errorf("referee: duplicate processor %q", p)
		}
		idx[p] = i
	}
	return &Referee{
		ver:    ver,
		ledger: ledger,
		mech:   mech,
		procs:  append([]string(nil), procs...),
		index:  idx,
		fine:   fine,
		meters: make(map[string]float64, len(procs)),
	}, nil
}

// Fine returns the publicly known fine magnitude F.
func (r *Referee) Fine() float64 { return r.fine }

// BindRounds attaches the referee to a bid-reuse session round: round is
// the current round's session-salted ID (stamped on every audit entry and
// demanded of every per-round artifact — bid vectors, payment vectors);
// bidEpoch is the round the cached bids were signed in, demanded of every
// bid envelope inside a vector and of equivocation evidence. A bidding
// round passes round == bidEpoch; a reuse round passes the older epoch.
// Never calling BindRounds (both empty) keeps the legacy behavior where
// no message carries a Round field and none is checked.
func (r *Referee) BindRounds(round, bidEpoch string) {
	r.round = round
	r.bidEpoch = bidEpoch
	r.epochs = nil
}

// BindRoundsSpliced attaches the referee to a round served from a
// spliced bid cache: bidEpoch is the base epoch (the last full
// exchange), and epochs[j] is the epoch processor j's bid in force was
// actually signed in — newer than the base for members that re-bid
// incrementally. epochs must be in processor index order and cover every
// processor.
func (r *Referee) BindRoundsSpliced(round, bidEpoch string, epochs []string) error {
	if len(epochs) != len(r.procs) {
		return fmt.Errorf("referee: %d epochs for %d processors", len(epochs), len(r.procs))
	}
	r.round = round
	r.bidEpoch = bidEpoch
	r.epochs = append([]string(nil), epochs...)
	return nil
}

// epochFor returns the bid epoch in force for processor index j.
func (r *Referee) epochFor(j int) string {
	if r.epochs != nil {
		return r.epochs[j]
	}
	return r.bidEpoch
}

// replicate streams one state change to the attached standby, latching
// the first failure (surfaced by ReplicationErr and at promotion time).
func (r *Referee) replicate(p AuditReplicaPayload) {
	if r.send == nil {
		return
	}
	if err := r.send(p); err != nil && r.replErr == nil {
		r.replErr = err
	}
}

// appendAudit seals one transcript entry and mirrors it to the standby.
// Every audit append in this package funnels through here (or through a
// sibling that attaches extra replica state), so an attached standby
// sees the full chain.
func (r *Referee) appendAudit(action, phase string, guilty []string, detail string) AuditEntry {
	e := r.audit.AppendRound(r.round, action, phase, guilty, detail)
	r.replicate(AuditReplicaPayload{Entry: &e})
	return e
}

// RecordBidSplice enters an incremental re-bid into the transcript: this
// round spliced proc's freshly signed bid into the cached bid set, with
// every other member's bid left in its original epoch. The entry keeps
// the amortization auditable alongside RecordBidReuse's.
func (r *Referee) RecordBidSplice(proc, kind, baseEpoch string) AuditEntry {
	return r.appendAudit("bid-splice", "bidding", nil,
		fmt.Sprintf("%s of %s spliced into bid set of epoch %s", kind, proc, baseEpoch))
}

// RecordBidReuse enters a reuse decision into the transcript: this round
// is being served from bids signed in epoch, sinceRebid rounds ago. The
// entry makes the amortization auditable — a reviewer can check that the
// member set never changed between the epoch entry and this one.
func (r *Referee) RecordBidReuse(epoch string, sinceRebid int) AuditEntry {
	return r.appendAudit("bid-reuse", "bidding", nil,
		fmt.Sprintf("serving round from bids of epoch %s (%d rounds since rebid)", epoch, sinceRebid))
}

// RecordInstallment enters an installment boundary into the transcript:
// this round is sub-round k of `of` installments of one pipelined load,
// carrying the given fraction of it under the given division policy. The
// entry makes the pipelining auditable — a reviewer can check that a
// load's installment fractions sum to 1 and that every sub-round carried
// a distinct round ID (which is what keeps cross-installment replays
// convictable) — and arms the referee's payment recomputation with the
// installment rule, so a payment dispute in a pipelined sub-round is
// judged against the R-installment truth, not the single-round one.
func (r *Referee) RecordInstallment(k, of int, frac float64, policy dlt.RoundPolicy) AuditEntry {
	r.instRounds, r.instPolicy = of, policy
	e := r.audit.AppendRound(r.round, "installment", "bidding", nil,
		fmt.Sprintf("installment %d/%d (%s) carrying load fraction %.9g", k, of, policy, frac))
	r.replicate(AuditReplicaPayload{Entry: &e, Inst: &InstBinding{Rounds: of, Policy: policy}})
	return e
}

// audited appends a verdict to the hash-chained transcript and returns it.
func (r *Referee) audited(v Verdict) Verdict {
	r.appendAudit("verdict", v.Phase, v.Guilty, v.Reason)
	return v
}

// RecordEviction enters an availability failure into the transcript: a
// processor removed from the run because its traffic could not be
// delivered within the retry budget. An eviction is NOT a strategic
// offense — the processor is not fined and no Verdict is produced; the
// entry exists so the decision is auditable after the fact, clearly
// distinguished from the "verdict" entries that carry fines.
func (r *Referee) RecordEviction(proc, phase, reason string) AuditEntry {
	return r.appendAudit("eviction", phase, nil, fmt.Sprintf("%s evicted: %s", proc, reason))
}

// Evict removes a participant mid-run — the crash-recovery path: a
// processor that fail-stops after bidding (so the referee already holds
// its binding) is cut from the adjudication state, and the eviction is
// entered into the transcript like a bidding-phase one. Meters it may
// have reported are discarded; payment adjudication proceeds over the
// survivors, whose reduced instance stays optimal per Theorem 2.2.
func (r *Referee) Evict(proc, phase, reason string) (AuditEntry, error) {
	i, ok := r.index[proc]
	if !ok {
		return AuditEntry{}, fmt.Errorf("referee: cannot evict unknown processor %q", proc)
	}
	if len(r.procs) <= 2 {
		return AuditEntry{}, fmt.Errorf("referee: evicting %s would leave fewer than two processors", proc)
	}
	r.procs = append(r.procs[:i], r.procs[i+1:]...)
	if r.epochs != nil {
		r.epochs = append(r.epochs[:i], r.epochs[i+1:]...)
	}
	r.index = make(map[string]int, len(r.procs))
	for j, p := range r.procs {
		r.index[p] = j
	}
	delete(r.meters, proc)
	e := r.audit.AppendRound(r.round, "eviction", phase, nil, fmt.Sprintf("%s evicted: %s", proc, reason))
	r.replicate(AuditReplicaPayload{Entry: &e, Evict: proc})
	return e, nil
}

// RecordFailover enters a referee promotion into the transcript: the
// primary at fromAccount became unreachable and this referee (rebuilt
// from the replicated audit log by Standby.Promote) took over the round
// at toAccount. The entry is the one deliberate transcript divergence
// between a failed-over round and an uninterrupted one — verdicts and
// payments stay bit-identical, and the entry records why the chains
// differ.
func (r *Referee) RecordFailover(fromAccount, toAccount string) AuditEntry {
	return r.appendAudit("failover", "processing", nil,
		fmt.Sprintf("standby %s promoted; primary %s unreachable", toAccount, fromAccount))
}

// Transcript returns a copy of the audit log entries; VerifyEntries
// validates such a copy independently of the referee.
func (r *Referee) Transcript() []AuditEntry { return r.audit.Entries() }

// AuditString renders the transcript for humans.
func (r *Referee) AuditString() string { return r.audit.String() }

// SuggestedFine returns a fine magnitude that satisfies F ≥ Σ α_j·w̃_j for
// any feasible allocation as long as no processor slacks beyond
// slackFactor times the slowest bid: Σ α_j·w̃_j ≤ max_j w̃_j ≤
// slackFactor·max_j b_j. A safety factor of 2 is applied on top.
func SuggestedFine(bids []float64, slackFactor float64) float64 {
	mx := 0.0
	for _, b := range bids {
		if b > mx {
			mx = b
		}
	}
	if slackFactor < 1 {
		slackFactor = 1
	}
	return 2 * slackFactor * mx
}

// CheckFineSufficient verifies the paper's requirement F ≥ Σ_j α_j·w̃_j
// given the realized compensations.
func (r *Referee) CheckFineSufficient(compensations []float64) error {
	var sum float64
	for _, c := range compensations {
		sum += c
	}
	if r.fine < sum {
		return fmt.Errorf("referee: fine %v below total compensation %v", r.fine, sum)
	}
	return nil
}

// ---- Bidding phase ----------------------------------------------------

// JudgeEquivocation adjudicates a report that `accused` broadcast two
// contradictory signed bids. If the evidence holds the accused is fined
// and the protocol terminates; if it is unfounded the accuser is fined
// instead ("If the concerns are unfounded, P_j is penalized F").
//
// Under a bound session (BindRounds) both evidence envelopes must carry
// bids of the CURRENT bid epoch. Two contradictory bids from different
// epochs are not equivocation — a processor that announced a rate change
// legitimately signs a new, different bid in the new epoch, and the old
// one must not be usable to frame it. Cross-epoch "evidence" is therefore
// unfounded and fines the accuser.
func (r *Referee) JudgeEquivocation(accuser string, a, b sig.Envelope) (Verdict, error) {
	if _, ok := r.index[accuser]; !ok {
		return Verdict{}, fmt.Errorf("referee: unknown accuser %q", accuser)
	}
	if r.ver.IsEquivocation(a, b) && r.evidenceInEpoch(a) && r.evidenceInEpoch(b) {
		if _, ok := r.index[a.Sender]; !ok {
			return Verdict{}, fmt.Errorf("referee: equivocation by non-participant %q", a.Sender)
		}
		return r.audited(Verdict{
			Phase:      "bidding",
			Guilty:     []string{a.Sender},
			Reason:     fmt.Sprintf("%s broadcast contradictory signed bids", a.Sender),
			Terminates: true,
		}), nil
	}
	return r.audited(Verdict{
		Phase:      "bidding",
		Guilty:     []string{accuser},
		Reason:     fmt.Sprintf("%s raised an unfounded equivocation claim", accuser),
		Terminates: true,
	}), nil
}

// evidenceInEpoch reports whether an equivocation-evidence envelope is a
// bid of the sender's current bid epoch (per-processor after a splice).
// Outside a session (empty bidEpoch) every envelope qualifies. An
// envelope that fails to open also qualifies — sig.IsEquivocation has
// already vouched for both signatures by the time this runs, so an
// unopenable payload cannot occur on the true branch.
func (r *Referee) evidenceInEpoch(env sig.Envelope) bool {
	if r.bidEpoch == "" {
		return true
	}
	var bp BidPayload
	if err := r.ver.Open(&env, &bp); err != nil {
		return true
	}
	epoch := r.bidEpoch
	if j, ok := r.index[env.Sender]; ok {
		epoch = r.epochFor(j)
	}
	return bp.Round == epoch
}

// CorroborationThreshold returns the number of distinct witnesses that
// must report a bidder unreachable before the protocol may evict it:
// ⌈m/2⌉ over the pre-eviction participant count m. With m ≥ 3 a single
// strategic processor can never reach the threshold alone, so framing a
// rival requires corrupting a majority of the pool — at which point the
// "rival" really is partitioned from most of it.
func CorroborationThreshold(m int) int { return (m + 1) / 2 }

// WitnessEvidence is what the referee observed while handling one
// unreachability report that stayed BELOW the corroboration threshold:
// it fetched the accused's signed bid from a holder, relayed it to the
// witness, and noted whether the witness kept claiming unreachability.
type WitnessEvidence struct {
	// Corroborating is the number of distinct witnesses that reported the
	// same accused (including this one); Witnesses is the size of the
	// witness pool (the accused's m−1 peers before any eviction) and
	// Threshold is CorroborationThreshold of the pre-eviction count m.
	Corroborating int
	Witnesses     int
	Threshold     int
	// RelayDelivered: the referee's relay of the accused's verified bid
	// reached the witness.
	RelayDelivered bool
	// ClaimMaintained: after the verified relay the witness still alleged
	// it never received the bid — the framing attack.
	ClaimMaintained bool
}

// JudgeWitnessReport adjudicates one signed unreachability report that
// did not reach the corroboration threshold. The report itself is
// entered into the transcript; then, mirroring MediateShortDelivery's
// claimant logic: a witness that withdraws after the referee's verified
// bid relay is clean (a genuine transient loss, now healed), while a
// witness that MAINTAINS the claim is fined — the relay proves the bid
// is obtainable, so persisting is a convictable framing attempt. The
// fine does not terminate the round: the framer's own bid is still
// bound and the honest majority proceeds.
func (r *Referee) JudgeWitnessReport(report sig.Envelope, ev WitnessEvidence) (Verdict, error) {
	var wp WitnessReportPayload
	if err := r.ver.Open(&report, &wp); err != nil {
		return Verdict{}, fmt.Errorf("referee: witness report rejected: %w", err)
	}
	if wp.Witness != report.Sender {
		return Verdict{}, fmt.Errorf("referee: witness report names %q but was sent by %q", wp.Witness, report.Sender)
	}
	if _, ok := r.index[wp.Witness]; !ok {
		return Verdict{}, fmt.Errorf("referee: unknown witness %q", wp.Witness)
	}
	if _, ok := r.index[wp.Accused]; !ok {
		return Verdict{}, fmt.Errorf("referee: witness report accuses non-participant %q", wp.Accused)
	}
	if wp.Witness == wp.Accused {
		return Verdict{}, fmt.Errorf("referee: %s filed a witness report against itself", wp.Witness)
	}
	if wp.Round != r.round {
		return Verdict{}, fmt.Errorf("referee: witness report carries round %q, current round is %q (stale-round replay?)",
			wp.Round, r.round)
	}
	r.appendAudit("witness-report", "bidding", nil,
		fmt.Sprintf("%s reports %s unreachable (%d of %d witnesses, threshold %d)",
			wp.Witness, wp.Accused, ev.Corroborating, ev.Witnesses, ev.Threshold))
	switch {
	case !ev.RelayDelivered:
		return r.audited(Verdict{
			Phase: "bidding",
			Reason: fmt.Sprintf("bid relay of %s's bid to %s undeliverable; report unadjudicable",
				wp.Accused, wp.Witness),
		}), nil
	case ev.ClaimMaintained:
		return r.audited(Verdict{
			Phase:  "bidding",
			Guilty: []string{wp.Witness},
			Reason: fmt.Sprintf("%s maintained its unreachability claim against %s after a verified bid relay (%d of %d witnesses below threshold %d: framing attempt)",
				wp.Witness, wp.Accused, ev.Corroborating, ev.Witnesses, ev.Threshold),
		}), nil
	default:
		return r.audited(Verdict{
			Phase: "bidding",
			Reason: fmt.Sprintf("%s withdrew its report against %s after the verified bid relay",
				wp.Witness, wp.Accused),
		}), nil
	}
}

// ---- Allocating Load phase ---------------------------------------------

// VerifyBidVector checks one party's submitted vector of signed bids:
// correct length, every envelope authentic, position j signed by processor
// j, and payload consistent. It returns the plain bid values on success.
func (r *Referee) VerifyBidVector(env sig.Envelope) ([]float64, error) {
	var vec BidVectorPayload
	if err := r.ver.Open(&env, &vec); err != nil {
		return nil, err
	}
	if vec.Proc != env.Sender {
		return nil, fmt.Errorf("referee: vector payload names %q but was sent by %q", vec.Proc, env.Sender)
	}
	if vec.Round != r.round {
		return nil, fmt.Errorf("referee: vector from %s carries round %q, current round is %q (stale-round replay?)",
			env.Sender, vec.Round, r.round)
	}
	if len(vec.Bids) != len(r.procs) {
		return nil, fmt.Errorf("referee: vector has %d bids for %d processors", len(vec.Bids), len(r.procs))
	}
	bids := make([]float64, len(r.procs))
	for j := range vec.Bids {
		bidEnv := &vec.Bids[j]
		var bp BidPayload
		if err := r.ver.Open(bidEnv, &bp); err != nil {
			return nil, fmt.Errorf("referee: bid %d in %s's vector: %w", j, env.Sender, err)
		}
		if bidEnv.Sender != r.procs[j] || bp.Proc != r.procs[j] {
			return nil, fmt.Errorf("referee: bid %d in %s's vector signed by %q, want %q",
				j, env.Sender, bidEnv.Sender, r.procs[j])
		}
		if bp.Round != r.epochFor(j) {
			return nil, fmt.Errorf("referee: bid %d in %s's vector signed in epoch %q, current bid epoch is %q",
				j, env.Sender, bp.Round, r.epochFor(j))
		}
		if !(bp.Bid > 0) || math.IsInf(bp.Bid, 0) {
			return nil, fmt.Errorf("referee: bid %d in %s's vector is invalid (%v)", j, env.Sender, bp.Bid)
		}
		bids[j] = bp.Bid
	}
	return bids, nil
}

// JudgeAllocationClaim adjudicates a misallocation claim: the claimant
// says its delivered block count differs from the allocation everyone
// should have computed. Both the claimant and the load originator submit
// their signed bid-vectors. Outcomes, following Section 4:
//
//   - a party whose vector is inconsistent or fails authentication is
//     fined (possibly both);
//   - if the valid vectors disagree at position j, both entries are
//     correctly signed by processor j — equivocation — so j is fined;
//   - with an agreed vector the referee recomputes the expected counts.
//     If the claimant indeed received too much, the originator is fined;
//     if the claim is unfounded, the claimant is fined.
//
// Short deliveries (delivered < expected) go through MediateShortDelivery
// instead. expectedCounts are the per-processor block counts the referee
// recomputes from the agreed bids; the caller supplies the function to
// avoid a dependency cycle on the partitioning code.
func (r *Referee) JudgeAllocationClaim(
	claimant, originator string,
	claimantVec, originatorVec sig.Envelope,
	delivered int,
	recomputeCounts func(bids []float64) ([]int, error),
) (Verdict, error) {
	ci, ok := r.index[claimant]
	if !ok {
		return Verdict{}, fmt.Errorf("referee: unknown claimant %q", claimant)
	}
	if _, ok := r.index[originator]; !ok {
		return Verdict{}, fmt.Errorf("referee: unknown originator %q", originator)
	}
	guilty := map[string]string{}

	cBids, cErr := r.VerifyBidVector(claimantVec)
	if cErr != nil {
		guilty[claimant] = fmt.Sprintf("claimant vector rejected: %v", cErr)
	}
	oBids, oErr := r.VerifyBidVector(originatorVec)
	if oErr != nil {
		guilty[originator] = fmt.Sprintf("originator vector rejected: %v", oErr)
	}
	if len(guilty) > 0 {
		return r.audited(r.verdictFromMap("allocating", guilty, true)), nil
	}

	// Both vectors verified: any disagreement at position j is a pair of
	// authentic contradictory bids from processor j.
	for j := range cBids {
		if cBids[j] != oBids[j] {
			guilty[r.procs[j]] = fmt.Sprintf("contradictory signed bids (%v vs %v) surfaced during claim", cBids[j], oBids[j])
		}
	}
	if len(guilty) > 0 {
		return r.audited(r.verdictFromMap("allocating", guilty, true)), nil
	}

	counts, err := recomputeCounts(cBids)
	if err != nil {
		return Verdict{}, fmt.Errorf("referee: recomputing allocation: %w", err)
	}
	if len(counts) != len(r.procs) {
		return Verdict{}, fmt.Errorf("referee: recomputed %d counts for %d processors", len(counts), len(r.procs))
	}
	expected := counts[ci]
	switch {
	case delivered > expected:
		return r.audited(Verdict{
			Phase:      "allocating",
			Guilty:     []string{originator},
			Reason:     fmt.Sprintf("%s delivered %d blocks to %s, allocation says %d", originator, delivered, claimant, expected),
			Terminates: true,
		}), nil
	case delivered == expected:
		return r.audited(Verdict{
			Phase:      "allocating",
			Guilty:     []string{claimant},
			Reason:     fmt.Sprintf("%s's misallocation claim is unfounded (delivered = expected = %d)", claimant, expected),
			Terminates: true,
		}), nil
	default:
		return Verdict{}, fmt.Errorf("referee: short delivery (%d < %d) must go through MediateShortDelivery", delivered, expected)
	}
}

// ShortDeliveryEvidence describes what the referee observes while
// mediating an α'_i < α_i claim: it requests the missing blocks from the
// originator, verifies their integrity against the user's signatures and
// forwards them.
type ShortDeliveryEvidence struct {
	// OriginatorRefused: the originator did not transmit the requested
	// number of blocks.
	OriginatorRefused bool
	// IntegrityFailed: a forwarded block failed the user-signature check.
	IntegrityFailed bool
	// ClaimantStillClaims: after a verified complete delivery the
	// claimant still alleges shortage.
	ClaimantStillClaims bool
}

// MediateShortDelivery resolves the three cases of Section 4: "If P_lo
// refuses to transmit the correct number of load units or load unit
// integrity fails, P_lo is fined. If P_i [still] claims that it did not
// receive enough load units, P_i is fined." A clean mediation (originator
// cooperates, blocks verify, claimant satisfied) fines nobody and the
// protocol continues.
func (r *Referee) MediateShortDelivery(claimant, originator string, ev ShortDeliveryEvidence) (Verdict, error) {
	if _, ok := r.index[claimant]; !ok {
		return Verdict{}, fmt.Errorf("referee: unknown claimant %q", claimant)
	}
	if _, ok := r.index[originator]; !ok {
		return Verdict{}, fmt.Errorf("referee: unknown originator %q", originator)
	}
	switch {
	case ev.OriginatorRefused:
		return r.audited(Verdict{Phase: "allocating", Guilty: []string{originator},
			Reason: originator + " refused to transmit the correct number of load units", Terminates: true}), nil
	case ev.IntegrityFailed:
		return r.audited(Verdict{Phase: "allocating", Guilty: []string{originator},
			Reason: originator + " transmitted load units failing the integrity check", Terminates: true}), nil
	case ev.ClaimantStillClaims:
		return r.audited(Verdict{Phase: "allocating", Guilty: []string{claimant},
			Reason: claimant + " maintained an unfounded shortage claim after verified delivery", Terminates: true}), nil
	default:
		return r.audited(Verdict{Phase: "allocating", Reason: "short delivery remediated"}), nil
	}
}

// ---- Processing Load phase ----------------------------------------------

// RecordMeter stores the tamper-proof meter reading φ_i for a processor.
func (r *Referee) RecordMeter(proc string, phi float64) error {
	if _, ok := r.index[proc]; !ok {
		return fmt.Errorf("referee: unknown processor %q", proc)
	}
	if !(phi >= 0) || math.IsInf(phi, 0) {
		return fmt.Errorf("referee: invalid meter reading %v for %s", phi, proc)
	}
	r.meters[proc] = phi
	e := r.audit.AppendRound(r.round, "meter", "processing", nil, fmt.Sprintf("%s reported φ=%.9g", proc, phi))
	// The entry's rendered detail rounds φ; the replica carries the exact
	// bits so a promoted standby recomputes payments bit-identically.
	r.replicate(AuditReplicaPayload{Entry: &e, Meter: &MeterReading{Proc: proc, Phi: phi}})
	return nil
}

// Meters returns (φ_1, …, φ_m) in processor index order; it errors if any
// meter is missing.
func (r *Referee) Meters() ([]float64, error) {
	phi := make([]float64, len(r.procs))
	for i, p := range r.procs {
		v, ok := r.meters[p]
		if !ok {
			return nil, fmt.Errorf("referee: no meter reading for %s", p)
		}
		phi[i] = v
	}
	return phi, nil
}

// ---- Computing Payments phase -------------------------------------------

// paymentTol is the relative tolerance for comparing independently
// computed payment vectors. Honest processors compute bit-identical
// vectors from identical inputs; the tolerance only guards against
// platform-dependent floating-point quirks.
const paymentTol = 1e-9

// JudgePayments adjudicates the Computing Payments phase. submissions
// maps each processor to the signed payment-vector envelopes it sent to
// the referee (normally exactly one). Deviations fined F each:
//
//   - contradictory multiple submissions (equivocation);
//   - missing, unverifiable or malformed submissions;
//   - vectors that disagree with the recomputed truth when the
//     submissions are not unanimous.
//
// On success it returns the agreed payment vector Q alongside the verdict;
// the protocol then forwards Q to the payment infrastructure. Payment-
// phase fines never terminate the protocol — the work is already done and
// the user is still billed.
func (r *Referee) JudgePayments(bids, exec []float64, submissions map[string][]sig.Envelope) (Verdict, []float64, error) {
	m := len(r.procs)
	if len(bids) != m || len(exec) != m {
		return Verdict{}, nil, fmt.Errorf("referee: bids/exec have %d/%d entries for %d processors", len(bids), len(exec), m)
	}
	guilty := map[string]string{}
	vectors := make(map[string][]float64, m)

	for _, p := range r.procs {
		envs := submissions[p]
		if len(envs) == 0 {
			guilty[p] = "no payment vector submitted"
			continue
		}
		// Multiple contradictory submissions are equivocation.
		if len(envs) > 1 {
			contradictory := false
			for k := 1; k < len(envs); k++ {
				if r.ver.IsEquivocation(envs[0], envs[k]) {
					contradictory = true
					break
				}
			}
			if contradictory {
				guilty[p] = "submitted contradictory payment vectors"
				continue
			}
		}
		var pp PaymentPayload
		if err := r.ver.Open(&envs[0], &pp); err != nil {
			guilty[p] = fmt.Sprintf("payment vector rejected: %v", err)
			continue
		}
		if envs[0].Sender != p || pp.Proc != p {
			guilty[p] = "payment vector sender mismatch"
			continue
		}
		if pp.Round != r.round {
			guilty[p] = fmt.Sprintf("payment vector carries round %q, current round is %q (stale-round replay?)", pp.Round, r.round)
			continue
		}
		if len(pp.Q) != m {
			guilty[p] = fmt.Sprintf("payment vector has %d entries, want %d", len(pp.Q), m)
			continue
		}
		vectors[p] = pp.Q
	}

	// Unanimity check among the (so far) valid vectors.
	unanimous := true
	var reference []float64
	for _, p := range r.procs {
		v, ok := vectors[p]
		if !ok {
			unanimous = false
			continue
		}
		if reference == nil {
			reference = v
			continue
		}
		if !vectorsEqual(reference, v) {
			unanimous = false
		}
	}

	if unanimous && len(guilty) == 0 && reference != nil {
		return r.audited(Verdict{Phase: "payments", Reason: "unanimous payment vectors"}), reference, nil
	}

	// Disagreement (or prior guilt): the referee recomputes the truth
	// from the bids and the meter-derived execution values — under the
	// installment payment rule when this round is a pipelined sub-round.
	out, err := r.mech.RunRounds(bids, exec, r.instRounds, r.instPolicy, core.WithVerification)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("referee: recomputing payments: %w", err)
	}
	truth := out.Payment
	for p, v := range vectors {
		if !vectorsEqual(truth, v) {
			guilty[p] = "payment vector disagrees with recomputation"
		}
	}
	v := r.verdictFromMap("payments", guilty, false)
	if v.Clean() {
		v.Reason = "recomputed payments match all submissions"
	}
	return r.audited(v), truth, nil
}

func vectorsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		den := math.Max(math.Max(math.Abs(a[i]), math.Abs(b[i])), 1)
		if math.Abs(a[i]-b[i])/den > paymentTol {
			return false
		}
	}
	return true
}

// ---- Settlement -----------------------------------------------------------

// Settle executes a verdict on the ledger: every guilty party pays F into
// the referee's escrow; processors that already commenced work are
// compensated their α_i·w̃_i out of the escrow (workDone maps processor to
// that amount; nil when no work happened); the remainder is split evenly
// among the non-deviating processors. Settle is a no-op for a clean
// verdict.
func (r *Referee) Settle(v Verdict, workDone map[string]float64) error {
	if v.Clean() {
		return nil
	}
	guiltySet := make(map[string]bool, len(v.Guilty))
	for _, g := range v.Guilty {
		if _, ok := r.index[g]; !ok {
			return fmt.Errorf("referee: cannot fine non-participant %q", g)
		}
		guiltySet[g] = true
	}
	collected := 0.0
	for _, g := range v.Guilty {
		if err := r.ledger.Transfer(g, Account, r.fine, "fine: "+v.Reason); err != nil {
			return err
		}
		collected += r.fine
	}
	// Compensate commenced work first.
	paidWork := 0.0
	for _, p := range r.procs {
		amt := workDone[p]
		if amt < 0 || math.IsNaN(amt) || math.IsInf(amt, 0) {
			return fmt.Errorf("referee: invalid work compensation %v for %s", amt, p)
		}
		if amt == 0 || guiltySet[p] {
			continue
		}
		if err := r.ledger.Transfer(Account, p, amt, "work compensation on termination"); err != nil {
			return err
		}
		paidWork += amt
	}
	remainder := collected - paidWork
	if remainder < -1e-9 {
		return fmt.Errorf("referee: fine pool %v cannot cover work compensation %v (F too small)", collected, paidWork)
	}
	nonDeviating := len(r.procs) - len(guiltySet)
	if nonDeviating <= 0 {
		return errors.New("referee: every processor deviated; nobody to reward")
	}
	share := remainder / float64(nonDeviating)
	if share < 0 {
		share = 0
	}
	for _, p := range r.procs {
		if guiltySet[p] {
			continue
		}
		if err := r.ledger.Transfer(Account, p, share, "fine redistribution: "+v.Reason); err != nil {
			return err
		}
	}
	r.appendAudit("settlement", v.Phase, v.Guilty,
		fmt.Sprintf("collected %.6g, work compensation %.6g, share %.6g to each of %d non-deviants", collected, paidWork, share, nonDeviating))
	return nil
}

func (r *Referee) verdictFromMap(phase string, guilty map[string]string, terminates bool) Verdict {
	if len(guilty) == 0 {
		return Verdict{Phase: phase}
	}
	names := make([]string, 0, len(guilty))
	for g := range guilty {
		names = append(names, g)
	}
	sort.Strings(names)
	reason := ""
	for _, g := range names {
		if reason != "" {
			reason += "; "
		}
		reason += g + ": " + guilty[g]
	}
	return Verdict{Phase: phase, Guilty: names, Reason: reason, Terminates: terminates}
}
