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
	"slices"
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

// Referee holds the adjudication state for one protocol run. Reseat
// readies it for another run over its maps and buffers, so a long-lived
// owner (a BidSession) keeps one referee for every round it serves.
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

	// Round binding (see BindRounds). round is the current round's ID;
	// epochs[j] is the round processor j's bid in force was signed in, in
	// processor index order. An unbound referee is a standalone run's:
	// round and every epoch empty, matching messages that carry no round.
	round  string
	epochs []string

	// installment, set by RecordInstallment, marks this round as an
	// installment sub-round of a pipelined load: payment recomputation
	// then prices with the period rule (core.Mechanism.RunPeriod).
	installment bool

	// send, when non-nil, streams every state change (audit entries,
	// meters, evictions) to a standby referee; see AttachStandby.
	// replErr latches the first replication failure.
	send    func(AuditReplicaPayload) error
	replErr error

	// JudgePayments' decode buffers: pays[j] receives processor j's
	// payment vector, and vectors maps each valid submitter to its Q.
	pays    []PaymentPayload
	vectors map[string][]float64
}

// New creates a referee for the given participant list (in processor
// index order). fine is the publicly known magnitude F; the paper requires
// F ≥ Σ_j α_j·w̃_j, which CheckFineSufficient verifies once execution
// values are known. ver is the run's verifier over its PKI registry.
func New(ver *sig.BatchVerifier, ledger *payment.Ledger, mech core.Mechanism, procs []string, fine float64) (*Referee, error) {
	r := new(Referee)
	if err := r.Reseat(ver, ledger, mech, procs, fine); err != nil {
		return nil, err
	}
	return r, nil
}

// Reseat makes r the referee New(ver, ledger, mech, procs, fine) returns,
// reusing its maps and buffers: it forgets the previous run's binding,
// meters, installment rule and standby, and starts an empty audit log. A
// transcript handed out by TakeTranscript stays its taker's. On an error
// r is unusable until a Reseat succeeds.
func (r *Referee) Reseat(ver *sig.BatchVerifier, ledger *payment.Ledger, mech core.Mechanism, procs []string, fine float64) error {
	if ver == nil || ledger == nil {
		return errors.New("referee: nil verifier or ledger")
	}
	if len(procs) < 2 {
		return errors.New("referee: need at least two processors")
	}
	if !(fine > 0) || math.IsInf(fine, 0) {
		return fmt.Errorf("referee: invalid fine %v", fine)
	}
	if r.index == nil {
		r.index = make(map[string]int, len(procs))
		r.meters = make(map[string]float64, len(procs))
	}
	clear(r.index)
	for i, p := range procs {
		if p == "" {
			return errors.New("referee: empty processor id")
		}
		if _, dup := r.index[p]; dup {
			return fmt.Errorf("referee: duplicate processor %q", p)
		}
		r.index[p] = i
	}
	clear(r.meters)
	r.ver, r.ledger, r.mech, r.fine = ver, ledger, mech, fine
	r.procs = append(r.procs[:0], procs...)
	r.epochs = append(r.epochs[:0], make([]string, len(procs))...)
	r.audit.reset(auditReserve(len(procs)))
	r.round = ""
	r.installment = false
	r.send, r.replErr = nil, nil
	return nil
}

// Fine returns the publicly known fine magnitude F.
func (r *Referee) Fine() float64 { return r.fine }

// BindRounds attaches the referee to a round: round is the round's ID,
// stamped on every audit entry and demanded of every per-round artifact
// (bid vectors, payment vectors, witness reports); epochs[j] is the round
// processor j's bid in force was signed in, demanded of j's envelope
// inside a bid vector and of equivocation evidence against j. A round
// that runs its own bid exchange passes its own ID for every processor; a
// round served from a BidSession cache passes the epochs the cache holds,
// which differ per processor after an incremental re-bid. epochs must be
// in processor index order and cover every processor; the referee keeps
// its own copy.
func (r *Referee) BindRounds(round string, epochs []string) error {
	if len(epochs) != len(r.procs) {
		return fmt.Errorf("referee: %d epochs for %d processors", len(epochs), len(r.procs))
	}
	r.round = round
	r.epochs = append(r.epochs[:0], epochs...)
	return nil
}

// replicate streams one audit entry to the attached standby, with the
// replica state p carries beside it (a meter, an eviction), latching the
// first failure (surfaced by ReplicationErr and at promotion time). Callers build p only when a
// standby is attached (r.send non-nil), so a run without one allocates
// no replica.
func (r *Referee) replicate(e AuditEntry, p AuditReplicaPayload) {
	entry := e
	p.Entry = &entry
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
	if r.send != nil {
		r.replicate(e, AuditReplicaPayload{})
	}
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
// period rule, so a payment dispute in a pipelined sub-round is judged
// against the installment truth, not the single-round one. The rule
// depends on neither the installment count nor the policy.
func (r *Referee) RecordInstallment(k, of int, frac float64, policy dlt.RoundPolicy) AuditEntry {
	r.installment = true
	return r.appendAudit("installment", "bidding", nil,
		fmt.Sprintf("installment %d/%d (%s) carrying load fraction %.9g", k, of, policy, frac))
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
	r.epochs = append(r.epochs[:i], r.epochs[i+1:]...)
	clear(r.index)
	for j, p := range r.procs {
		r.index[p] = j
	}
	delete(r.meters, proc)
	e := r.audit.AppendRound(r.round, "eviction", phase, nil, fmt.Sprintf("%s evicted: %s", proc, reason))
	if r.send != nil {
		r.replicate(e, AuditReplicaPayload{Evict: proc})
	}
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

// TakeTranscript hands the audit log's entries to the caller without
// copying them and leaves the log empty. It is for a caller done with
// this run's referee, such as a protocol run settling its outcome.
func (r *Referee) TakeTranscript() []AuditEntry { return r.audit.take() }

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
// Both evidence envelopes must carry bids of the accused's CURRENT bid
// epoch (BindRounds). Two contradictory bids from different epochs are
// not equivocation — a processor that changes its bid legitimately
// signs a new, different bid in the new epoch, and the old
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
// bid of its sender's current bid epoch. An envelope from a
// non-participant qualifies (JudgeEquivocation rejects it outright), as
// does one that fails to open — BatchVerifier.IsEquivocation has already
// vouched for both signatures by the time this runs, so an unopenable
// payload cannot occur on the true branch.
func (r *Referee) evidenceInEpoch(env sig.Envelope) bool {
	j, ok := r.index[env.Sender]
	if !ok {
		return true
	}
	var bp BidPayload
	if err := r.ver.Open(&env, &bp); err != nil {
		return true
	}
	return bp.Round == r.epochs[j]
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
		if bp.Round != r.epochs[j] {
			return nil, fmt.Errorf("referee: bid %d in %s's vector signed in epoch %q, current bid epoch is %q",
				j, env.Sender, bp.Round, r.epochs[j])
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
	if r.send != nil {
		r.replicate(e, AuditReplicaPayload{Meter: &MeterReading{Proc: proc, Phi: phi}})
	}
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

// JudgePayments adjudicates the Computing Payments phase. submissions
// maps each processor to the signed payment-vector envelopes it sent to
// the referee (normally exactly one). Deviations fined F each:
//
//   - contradictory multiple submissions (equivocation);
//   - missing, unverifiable or malformed submissions;
//   - vectors that disagree with the recomputed truth when the
//     submissions are not unanimous.
//
// Vectors are compared exactly: honest processors and the referee's
// recomputation run the same payment engine on the same bids and
// execution values, so honest vectors are bit-identical, and any
// difference, however small, is a deviation.
//
// On success it returns the agreed payment vector Q alongside the verdict;
// the protocol then forwards Q to the payment infrastructure. A unanimous
// Q lives in the referee's decode buffers: it stays valid until the next
// JudgePayments or Reseat, so a caller that keeps it copies it. Payment-
// phase fines never terminate the protocol — the work is already done and
// the user is still billed.
func (r *Referee) JudgePayments(bids, exec []float64, submissions map[string][]sig.Envelope) (Verdict, []float64, error) {
	m := len(r.procs)
	if len(bids) != m || len(exec) != m {
		return Verdict{}, nil, fmt.Errorf("referee: bids/exec have %d/%d entries for %d processors", len(bids), len(exec), m)
	}
	guilty := map[string]string{}
	if r.vectors == nil {
		r.vectors = make(map[string][]float64, m)
	}
	vectors := r.vectors
	clear(vectors)
	if len(r.pays) < m {
		r.pays = append(r.pays, make([]PaymentPayload, m-len(r.pays))...)
	}

	for j, p := range r.procs {
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
		// Every field of a payment payload is decoded afresh, into the
		// previous round's strings and vector capacity.
		pp := &r.pays[j]
		if err := r.ver.Open(&envs[0], pp); err != nil {
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
		if !slices.Equal(reference, v) {
			unanimous = false
		}
	}

	if unanimous && len(guilty) == 0 && reference != nil {
		return r.audited(Verdict{Phase: "payments", Reason: "unanimous payment vectors"}), reference, nil
	}

	// Disagreement (or prior guilt): the referee recomputes the truth
	// from the bids and the meter-derived execution values — under the
	// period rule when this round is a pipelined sub-round.
	recompute := r.mech.RunWithRule
	if r.installment {
		recompute = r.mech.RunPeriod
	}
	out, err := recompute(bids, exec, core.WithVerification)
	if err != nil {
		return Verdict{}, nil, fmt.Errorf("referee: recomputing payments: %w", err)
	}
	truth := out.Payment
	for p, v := range vectors {
		if !slices.Equal(truth, v) {
			guilty[p] = "payment vector disagrees with recomputation"
		}
	}
	v := r.verdictFromMap("payments", guilty, false)
	if v.Clean() {
		v.Reason = "recomputed payments match all submissions"
	}
	return r.audited(v), truth, nil
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
