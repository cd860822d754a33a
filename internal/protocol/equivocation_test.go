package protocol

import (
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// TestEquivocationSurvivesDedup pins down an interaction between the
// reliable transport and the paper's equivocation defense: (sender,
// nonce) deduplication must not launder a re-signed, contradictory bid
// into silence. When a processor transmits a second, different bid under
// the nonce of its first one — disguising the cheat as a retransmission —
// the transport keeps the first verified copy (so the protocol's view is
// unchanged) and the discarded copy's signature remains independently
// verifiable equivocation evidence that convicts the signer.
func TestEquivocationSurvivesDedup(t *testing.T) {
	net, err := bus.New(0.1)
	if err != nil {
		t.Fatal(err)
	}
	reg := sig.NewRegistry()
	keys := map[string]*sig.KeyPair{}
	for i, id := range []string{"P1", "P2", referee.Account} {
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(id, k.Public); err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(id); err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	xp, err := newTransport(net, sig.NewBatchVerifier(reg, nil), RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	// P1 signs two different bids and sends both under ONE nonce: the
	// honest-looking original, then the contradiction dressed up as a
	// retransmission.
	first, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 3.5})
	if err != nil {
		t.Fatal(err)
	}
	nonce := net.NextNonce()
	for _, env := range []sig.Envelope{first, second} {
		if _, err := net.SendTagged("P1", referee.Account, referee.KindBid, env, 1, nonce); err != nil {
			t.Fatal(err)
		}
	}

	// The transport delivers exactly one copy — the first verified one.
	if err := xp.pull(referee.Account); err != nil {
		t.Fatal(err)
	}
	if xp.stats.DupDiscards != 1 {
		t.Fatalf("DupDiscards = %d, want 1", xp.stats.DupDiscards)
	}
	m, ok := xp.takeNonce(referee.Account, "P1", nonce)
	if !ok {
		t.Fatal("deduplicated message not delivered at all")
	}
	var bp referee.BidPayload
	if err := m.Env.Open(reg, &bp); err != nil {
		t.Fatal(err)
	}
	if bp.Bid != 2 {
		t.Fatalf("delivered bid = %v, want the FIRST copy (2)", bp.Bid)
	}
	if _, again := xp.takeNonce(referee.Account, "P1", nonce); again {
		t.Fatal("second copy leaked through deduplication")
	}

	// The discarded envelope is still a valid signature over a different
	// payload — exactly the evidence pair sig.IsEquivocation defines.
	if !sig.IsEquivocation(reg, first, second) {
		t.Fatal("contradictory signed bids not recognized as equivocation")
	}

	// And the referee convicts on it: P2 presents both envelopes, P1 is
	// found guilty and the run terminates.
	ledger, err := payment.NewLedger(UserID, referee.Account, "P1", "P2")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referee.New(sig.NewBatchVerifier(reg, nil), ledger, core.Mechanism{Network: dlt.NCPFE, Z: 0.1}, []string{"P1", "P2"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.JudgeEquivocation("P2", first, second)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" || !v.Terminates {
		t.Fatalf("verdict = %+v, want P1 guilty and termination", v)
	}
}

// roundTestRig builds a two-processor referee rig with a keyring-style
// fixed PKI, for the cross-round adjudication tests below.
func roundTestRig(t *testing.T) (*sig.Registry, map[string]*sig.KeyPair, *referee.Referee) {
	t.Helper()
	reg := sig.NewRegistry()
	keys := map[string]*sig.KeyPair{}
	for i, id := range []string{"P1", "P2", referee.Account} {
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(id, k.Public); err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	ledger, err := payment.NewLedger(UserID, referee.Account, "P1", "P2")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referee.New(sig.NewBatchVerifier(reg, nil), ledger, core.Mechanism{Network: dlt.NCPFE, Z: 0.1}, []string{"P1", "P2"}, 100)
	if err != nil {
		t.Fatal(err)
	}
	return reg, keys, ref
}

// TestStaleRoundReplayRejected: the round-ID binding that makes bid reuse
// safe. An attacker records P1's signed Allocation-phase bid vector (and
// its signed payment vector) in round j and replays them in round j+1.
// The signatures still verify — the envelopes are authentic — but the
// round stamp inside the signed payload no longer matches the round the
// referee is bound to, so both replays are rejected/fined.
func TestStaleRoundReplayRejected(t *testing.T) {
	reg, keys, _ := roundTestRig(t)
	const epoch = "s1:r1"

	bid1, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 2, Round: epoch})
	if err != nil {
		t.Fatal(err)
	}
	bid2, err := sig.SealBinary(keys["P2"], referee.KindBid, referee.BidPayload{Proc: "P2", Bid: 3, Round: epoch})
	if err != nil {
		t.Fatal(err)
	}
	// Round j (== the bid epoch): P1's vector is accepted.
	vecJ, err := sig.SealBinary(keys["P1"], referee.KindBidVector,
		referee.BidVectorPayload{Proc: "P1", Bids: []sig.Envelope{bid1, bid2}, Round: epoch})
	if err != nil {
		t.Fatal(err)
	}
	_, _, refJ := roundTestRig(t)
	refJ.BindRounds(epoch, epoch)
	if _, err := refJ.VerifyBidVector(vecJ); err != nil {
		t.Fatalf("current-round vector rejected: %v", err)
	}

	// Round j+1 reuses the same bid epoch but carries a new round ID: the
	// replayed round-j vector must fail verification.
	_, _, refJ1 := roundTestRig(t)
	refJ1.BindRounds("s1:r2", epoch)
	if _, err := refJ1.VerifyBidVector(vecJ); err == nil {
		t.Fatal("bid vector captured in round j accepted in round j+1")
	}
	// A fresh vector over the SAME cached epoch bids, stamped with the
	// new round, is what an honest submitter sends — and it passes.
	vecJ1, err := sig.SealBinary(keys["P1"], referee.KindBidVector,
		referee.BidVectorPayload{Proc: "P1", Bids: []sig.Envelope{bid1, bid2}, Round: "s1:r2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refJ1.VerifyBidVector(vecJ1); err != nil {
		t.Fatalf("honest round-j+1 vector over cached epoch bids rejected: %v", err)
	}
	// A vector whose INNER bid was signed outside the epoch (a replay of
	// a superseded bid) also fails, even with a current round stamp.
	staleBid, err := sig.SealBinary(keys["P2"], referee.KindBid, referee.BidPayload{Proc: "P2", Bid: 9, Round: "s1:r0"})
	if err != nil {
		t.Fatal(err)
	}
	vecStale, err := sig.SealBinary(keys["P1"], referee.KindBidVector,
		referee.BidVectorPayload{Proc: "P1", Bids: []sig.Envelope{bid1, staleBid}, Round: "s1:r2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refJ1.VerifyBidVector(vecStale); err == nil {
		t.Fatal("vector smuggling an off-epoch bid accepted")
	}

	// Payment phase: a round-j payment vector replayed in round j+1 is a
	// finable deviation for its nominal sender. P2 submits the correct
	// vector (the mechanism's own output) stamped with the current round.
	bids, exec := []float64{2, 3}, []float64{2, 3}
	mout, err := (core.Mechanism{Network: dlt.NCPFE, Z: 0.1}).Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	payJ, err := sig.SealBinary(keys["P1"], referee.KindPayment,
		referee.PaymentPayload{Proc: "P1", Q: mout.Payment, Round: epoch})
	if err != nil {
		t.Fatal(err)
	}
	payJ1, err := sig.SealBinary(keys["P2"], referee.KindPayment,
		referee.PaymentPayload{Proc: "P2", Q: mout.Payment, Round: "s1:r2"})
	if err != nil {
		t.Fatal(err)
	}
	_ = reg
	v, _, err := refJ1.JudgePayments(bids, exec, map[string][]sig.Envelope{
		"P1": {payJ}, "P2": {payJ1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" {
		t.Fatalf("verdict = %+v, want only the replayer P1 fined", v)
	}
}

// TestEquivocatedRebidStillConvicts: amortization must not weaken the
// equivocation defense. During a REBID round (round n of a session, not
// round one), a processor broadcasts two contradictory bids — both
// stamped with the new epoch's round ID. The referee, bound to that
// epoch, convicts exactly as in the single-shot protocol. End-to-end via
// BidSession: a rate change forces the rebid, the equivocator cheats in
// it, and the conviction lands mid-session.
func TestEquivocatedRebidStillConvicts(t *testing.T) {
	// Referee-level: current-epoch contradictory pair convicts the signer.
	_, keys, ref := roundTestRig(t)
	ref.BindRounds("s1:r5", "s1:r5")
	a, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 2, Round: "s1:r5"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 4, Round: "s1:r5"})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ref.JudgeEquivocation("P2", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" || !v.Terminates {
		t.Fatalf("verdict = %+v, want P1 convicted in the rebid epoch", v)
	}

	// Session-level: rounds 1–2 honest, round 3 is a rate-change rebid in
	// which P2 equivocates.
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 2, NBlocks: 48}
	for k := 0; k < 2; k++ {
		if _, err := s.Run(job); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AnnounceRate(1, 2.5); err != nil {
		t.Fatal(err)
	}
	cheat := job
	cheat.Behaviors = []agent.Behavior{{}, agent.Equivocator, {}}
	out, err := s.Run(cheat)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidReused {
		t.Fatal("rate-change round reused stale bids")
	}
	if out.Completed || len(out.Verdicts) == 0 || out.Verdicts[0].Guilty[0] != "P2" {
		t.Fatalf("rebid-round equivocator not convicted: completed=%v verdicts=%+v", out.Completed, out.Verdicts)
	}
	if out.Fines[1] == 0 {
		t.Fatal("convicted equivocator paid no fine")
	}
}

// TestCrossEpochEvidenceIsUnfounded guards honest re-bidders: after a
// legitimate rate change, a processor's old and new signed bids differ —
// a valid sig.IsEquivocation pair. Under round binding that pair is NOT
// convictable: the old bid belongs to a superseded epoch, so the referee
// rules the accusation unfounded and fines the accuser, exactly the
// paper's penalty for unsubstantiated claims.
func TestCrossEpochEvidenceIsUnfounded(t *testing.T) {
	_, keys, ref := roundTestRig(t)
	oldBid, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 2, Round: "s1:r1"})
	if err != nil {
		t.Fatal(err)
	}
	newBid, err := sig.SealBinary(keys["P1"], referee.KindBid, referee.BidPayload{Proc: "P1", Bid: 2.5, Round: "s1:r4"})
	if err != nil {
		t.Fatal(err)
	}
	if !sig.IsEquivocation(sigRegistryOf(t, keys), oldBid, newBid) {
		t.Fatal("cross-epoch pair should look like raw equivocation to the signature layer")
	}
	ref.BindRounds("s1:r4", "s1:r4")
	v, err := ref.JudgeEquivocation("P2", oldBid, newBid)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Fatalf("verdict = %+v, want the accuser P2 fined for framing an honest re-bidder", v)
	}
}

func sigRegistryOf(t *testing.T, keys map[string]*sig.KeyPair) *sig.Registry {
	t.Helper()
	reg := sig.NewRegistry()
	for id, k := range keys {
		if err := reg.Register(id, k.Public); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}
