package referee

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/payment"
	"dlsbl/internal/sig"
	"dlsbl/internal/workload"
)

// fixture bundles everything a referee test needs: m processors with
// keys, a registry, the batch verifier over it (the production path every
// protocol run takes), a ledger and the referee itself.
type fixture struct {
	procs  []string
	keys   map[string]*sig.KeyPair
	reg    *sig.Registry
	ver    *sig.BatchVerifier
	ledger *payment.Ledger
	ref    *Referee
	mech   core.Mechanism
}

func newFixture(t *testing.T, m int, fine float64) *fixture {
	t.Helper()
	f := &fixture{
		keys: make(map[string]*sig.KeyPair),
		reg:  sig.NewRegistry(),
		mech: core.Mechanism{Network: dlt.NCPFE, Z: 0.2},
	}
	accounts := []string{Account, "user"}
	for i := 0; i < m; i++ {
		id := procName(i)
		f.procs = append(f.procs, id)
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(int64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		f.keys[id] = k
		if err := f.reg.Register(id, k.Public); err != nil {
			t.Fatal(err)
		}
		accounts = append(accounts, id)
	}
	var err error
	f.ledger, err = payment.NewLedger(accounts...)
	if err != nil {
		t.Fatal(err)
	}
	f.ver = sig.NewBatchVerifier(f.reg, nil)
	f.ref, err = New(f.ver, f.ledger, f.mech, f.procs, fine)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func procName(i int) string { return "P" + string(rune('1'+i)) }

// bind binds the referee to round with every processor's bid signed in
// epoch.
func (f *fixture) bind(t *testing.T, round, epoch string) {
	t.Helper()
	epochs := make([]string, len(f.procs))
	for i := range epochs {
		epochs[i] = epoch
	}
	if err := f.ref.BindRounds(round, epochs); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) signedBid(t *testing.T, proc string, bid float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[proc], KindBid, BidPayload{Proc: proc, Bid: bid})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func (f *fixture) signedVector(t *testing.T, proc string, bids []sig.Envelope) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[proc], KindBidVector, BidVectorPayload{Proc: proc, Bids: bids})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func (f *fixture) bidEnvelopes(t *testing.T, bids []float64) []sig.Envelope {
	t.Helper()
	out := make([]sig.Envelope, len(bids))
	for i, b := range bids {
		out[i] = f.signedBid(t, f.procs[i], b)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	f := newFixture(t, 3, 100)
	if _, err := New(nil, f.ledger, f.mech, f.procs, 10); err == nil {
		t.Error("nil verifier accepted")
	}
	if _, err := New(f.ver, nil, f.mech, f.procs, 10); err == nil {
		t.Error("nil ledger accepted")
	}
	if _, err := New(f.ver, f.ledger, f.mech, []string{"P1"}, 10); err == nil {
		t.Error("single processor accepted")
	}
	if _, err := New(f.ver, f.ledger, f.mech, []string{"P1", "P1"}, 10); err == nil {
		t.Error("duplicate processors accepted")
	}
	if _, err := New(f.ver, f.ledger, f.mech, []string{"P1", ""}, 10); err == nil {
		t.Error("empty processor id accepted")
	}
	if _, err := New(f.ver, f.ledger, f.mech, f.procs, 0); err == nil {
		t.Error("zero fine accepted")
	}
	if _, err := New(f.ver, f.ledger, f.mech, f.procs, math.Inf(1)); err == nil {
		t.Error("infinite fine accepted")
	}
	if f.ref.Fine() != 100 {
		t.Errorf("Fine() = %v", f.ref.Fine())
	}
}

func TestSuggestedFine(t *testing.T) {
	fine := SuggestedFine([]float64{1, 3, 2}, 1.5)
	if fine != 2*1.5*3 {
		t.Errorf("SuggestedFine = %v, want 9", fine)
	}
	// slackFactor below 1 is clamped.
	if got := SuggestedFine([]float64{2}, 0); got != 4 {
		t.Errorf("clamped SuggestedFine = %v, want 4", got)
	}
}

func TestCheckFineSufficient(t *testing.T) {
	f := newFixture(t, 3, 2)
	if err := f.ref.CheckFineSufficient([]float64{0.5, 0.5, 0.5}); err != nil {
		t.Errorf("sufficient fine rejected: %v", err)
	}
	if err := f.ref.CheckFineSufficient([]float64{1, 1, 1}); err == nil {
		t.Error("insufficient fine accepted")
	}
}

func TestJudgeEquivocationGenuine(t *testing.T) {
	f := newFixture(t, 3, 100)
	a := f.signedBid(t, "P2", 1.5)
	b := f.signedBid(t, "P2", 9.5)
	v, err := f.ref.JudgeEquivocation("P1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" || !v.Terminates || v.Phase != "bidding" {
		t.Errorf("verdict = %+v", v)
	}
}

func TestJudgeEquivocationUnfounded(t *testing.T) {
	f := newFixture(t, 3, 100)
	a := f.signedBid(t, "P2", 1.5)
	same := f.signedBid(t, "P2", 1.5)
	v, err := f.ref.JudgeEquivocation("P1", a, same)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" || !v.Terminates {
		t.Errorf("verdict = %+v", v)
	}
	// A forged pair is also unfounded.
	forged := f.signedBid(t, "P2", 7)
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	v2, err := f.ref.JudgeEquivocation("P3", a, forged)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Guilty) != 1 || v2.Guilty[0] != "P3" {
		t.Errorf("forged-evidence verdict = %+v", v2)
	}
}

func TestJudgeEquivocationUnknownParties(t *testing.T) {
	f := newFixture(t, 2, 100)
	a := f.signedBid(t, "P1", 1)
	if _, err := f.ref.JudgeEquivocation("ghost", a, a); err == nil {
		t.Error("unknown accuser accepted")
	}
	// Equivocation by a registered non-participant.
	outsider, err := sig.GenerateKeyPair("outsider", sig.DeterministicSource(999))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Register(outsider.ID, outsider.Public); err != nil {
		t.Fatal(err)
	}
	oa, _ := sig.SealBinary(outsider, KindBid, BidPayload{Proc: "outsider", Bid: 1})
	ob, _ := sig.SealBinary(outsider, KindBid, BidPayload{Proc: "outsider", Bid: 2})
	if _, err := f.ref.JudgeEquivocation("P1", oa, ob); err == nil {
		t.Error("non-participant equivocation accepted")
	}
}

func TestVerifyBidVector(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	vec := f.signedVector(t, "P1", f.bidEnvelopes(t, bids))
	got, err := f.ref.VerifyBidVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bids {
		if got[i] != bids[i] {
			t.Errorf("bids = %v, want %v", got, bids)
		}
	}

	short := f.signedVector(t, "P1", f.bidEnvelopes(t, bids)[:2])
	if _, err := f.ref.VerifyBidVector(short); err == nil {
		t.Error("short vector accepted")
	}

	// Entry j signed by the wrong processor.
	swapped := f.bidEnvelopes(t, bids)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := f.ref.VerifyBidVector(f.signedVector(t, "P1", swapped)); err == nil {
		t.Error("wrong-signer entry accepted")
	}

	// Tampered inner bid.
	tampered := f.bidEnvelopes(t, bids)
	tampered[2].Payload = []byte(strings.Replace(string(tampered[2].Payload), "3", "8", 1))
	if _, err := f.ref.VerifyBidVector(f.signedVector(t, "P1", tampered)); err == nil {
		t.Error("tampered inner bid accepted")
	}

	// Vector claiming to be from someone else.
	imposter, err := sig.SealBinary(f.keys["P2"], KindBidVector, BidVectorPayload{Proc: "P1", Bids: f.bidEnvelopes(t, bids)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ref.VerifyBidVector(imposter); err == nil {
		t.Error("sender/payload mismatch accepted")
	}

	// Non-positive bid inside a correctly signed envelope.
	zeroBids := f.bidEnvelopes(t, []float64{1, 2, 3})
	z, err := sig.SealBinary(f.keys["P2"], KindBid, BidPayload{Proc: "P2", Bid: 0})
	if err != nil {
		t.Fatal(err)
	}
	zeroBids[1] = z
	if _, err := f.ref.VerifyBidVector(f.signedVector(t, "P1", zeroBids)); err == nil {
		t.Error("zero bid accepted")
	}
}

func countsFromBids(ref *Referee, nBlocks int) func([]float64) ([]int, error) {
	return func(bids []float64) ([]int, error) {
		alloc, err := dlt.Optimal(dlt.Instance{Network: dlt.NCPFE, Z: 0.2, W: bids})
		if err != nil {
			return nil, err
		}
		asg, err := workload.Partition(alloc, nBlocks)
		if err != nil {
			return nil, err
		}
		counts := make([]int, len(asg))
		for i, a := range asg {
			counts[i] = a.Count()
		}
		return counts, nil
	}
}

func TestJudgeAllocationClaimOverDelivery(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	envs := f.bidEnvelopes(t, bids)
	claimVec := f.signedVector(t, "P2", envs)
	origVec := f.signedVector(t, "P1", envs)
	recompute := countsFromBids(f.ref, 100)
	counts, err := recompute(bids)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.ref.JudgeAllocationClaim("P2", "P1", claimVec, origVec, counts[1]+5, recompute)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" || !v.Terminates {
		t.Errorf("over-delivery verdict = %+v", v)
	}
}

func TestJudgeAllocationClaimUnfounded(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	envs := f.bidEnvelopes(t, bids)
	recompute := countsFromBids(f.ref, 100)
	counts, err := recompute(bids)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.ref.JudgeAllocationClaim("P2", "P1",
		f.signedVector(t, "P2", envs), f.signedVector(t, "P1", envs), counts[1], recompute)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Errorf("unfounded-claim verdict = %+v", v)
	}
}

func TestJudgeAllocationClaimShortGoesToMediation(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	envs := f.bidEnvelopes(t, bids)
	recompute := countsFromBids(f.ref, 100)
	counts, _ := recompute(bids)
	if _, err := f.ref.JudgeAllocationClaim("P2", "P1",
		f.signedVector(t, "P2", envs), f.signedVector(t, "P1", envs), counts[1]-1, recompute); err == nil {
		t.Error("short delivery adjudicated without mediation")
	}
}

func TestJudgeAllocationClaimBadVectors(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	good := f.bidEnvelopes(t, bids)
	recompute := countsFromBids(f.ref, 100)

	// Claimant's vector fails (short).
	v, err := f.ref.JudgeAllocationClaim("P2", "P1",
		f.signedVector(t, "P2", good[:2]), f.signedVector(t, "P1", good), 5, recompute)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Errorf("bad claimant vector verdict = %+v", v)
	}

	// Both vectors fail.
	v2, err := f.ref.JudgeAllocationClaim("P2", "P1",
		f.signedVector(t, "P2", good[:2]), f.signedVector(t, "P1", good[:1]), 5, recompute)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Guilty) != 2 {
		t.Errorf("both-bad verdict = %+v", v2)
	}

	// Unknown parties.
	if _, err := f.ref.JudgeAllocationClaim("ghost", "P1", sig.Envelope{}, sig.Envelope{}, 0, recompute); err == nil {
		t.Error("unknown claimant accepted")
	}
	if _, err := f.ref.JudgeAllocationClaim("P2", "ghost", sig.Envelope{}, sig.Envelope{}, 0, recompute); err == nil {
		t.Error("unknown originator accepted")
	}
}

// TestJudgeAllocationClaimSurfacesEquivocation: if the two submitted
// vectors differ at position j with both entries authentic, processor j
// signed two different bids and is the one fined.
func TestJudgeAllocationClaimSurfacesEquivocation(t *testing.T) {
	f := newFixture(t, 3, 100)
	envsA := f.bidEnvelopes(t, []float64{1, 2, 3})
	envsB := f.bidEnvelopes(t, []float64{1, 2, 3})
	envsB[2] = f.signedBid(t, "P3", 7) // P3 signed a second bid
	recompute := countsFromBids(f.ref, 100)
	v, err := f.ref.JudgeAllocationClaim("P2", "P1",
		f.signedVector(t, "P2", envsA), f.signedVector(t, "P1", envsB), 5, recompute)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P3" {
		t.Errorf("equivocation-in-claim verdict = %+v", v)
	}
}

func TestMediateShortDelivery(t *testing.T) {
	f := newFixture(t, 3, 100)
	cases := []struct {
		ev     ShortDeliveryEvidence
		guilty string
	}{
		{ShortDeliveryEvidence{OriginatorRefused: true}, "P1"},
		{ShortDeliveryEvidence{IntegrityFailed: true}, "P1"},
		{ShortDeliveryEvidence{ClaimantStillClaims: true}, "P2"},
		{ShortDeliveryEvidence{}, ""},
	}
	for _, tc := range cases {
		v, err := f.ref.MediateShortDelivery("P2", "P1", tc.ev)
		if err != nil {
			t.Fatal(err)
		}
		if tc.guilty == "" {
			if !v.Clean() || v.Terminates {
				t.Errorf("clean mediation verdict = %+v", v)
			}
			continue
		}
		if len(v.Guilty) != 1 || v.Guilty[0] != tc.guilty || !v.Terminates {
			t.Errorf("evidence %+v verdict = %+v", tc.ev, v)
		}
	}
	if _, err := f.ref.MediateShortDelivery("ghost", "P1", ShortDeliveryEvidence{}); err == nil {
		t.Error("unknown claimant accepted")
	}
	if _, err := f.ref.MediateShortDelivery("P2", "ghost", ShortDeliveryEvidence{}); err == nil {
		t.Error("unknown originator accepted")
	}
}

func TestMeters(t *testing.T) {
	f := newFixture(t, 3, 100)
	if _, err := f.ref.Meters(); err == nil {
		t.Error("missing meters accepted")
	}
	if err := f.ref.RecordMeter("ghost", 1); err == nil {
		t.Error("unknown processor metered")
	}
	if err := f.ref.RecordMeter("P1", -1); err == nil {
		t.Error("negative reading accepted")
	}
	if err := f.ref.RecordMeter("P1", math.NaN()); err == nil {
		t.Error("NaN reading accepted")
	}
	for i, phi := range []float64{0.5, 0.25, 0.75} {
		if err := f.ref.RecordMeter(f.procs[i], phi); err != nil {
			t.Fatal(err)
		}
	}
	phi, err := f.ref.Meters()
	if err != nil {
		t.Fatal(err)
	}
	if phi[0] != 0.5 || phi[1] != 0.25 || phi[2] != 0.75 {
		t.Errorf("meters = %v", phi)
	}
}

func (f *fixture) paymentSubmission(t *testing.T, proc string, q []float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[proc], KindPayment, PaymentPayload{Proc: proc, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestJudgePaymentsUnanimous(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{}
	for _, p := range f.procs {
		subs[p] = []sig.Envelope{f.paymentSubmission(t, p, out.Payment)}
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Clean() || v.Terminates {
		t.Errorf("unanimous verdict = %+v", v)
	}
	for i := range q {
		if q[i] != out.Payment[i] {
			t.Errorf("Q = %v, want %v", q, out.Payment)
		}
	}
}

func TestJudgePaymentsWrongVector(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]float64(nil), out.Payment...)
	wrong[0] *= 2
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentSubmission(t, "P1", out.Payment)},
		"P2": {f.paymentSubmission(t, "P2", wrong)},
		"P3": {f.paymentSubmission(t, "P3", out.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" || v.Terminates {
		t.Errorf("wrong-vector verdict = %+v", v)
	}
	for i := range q {
		if q[i] != out.Payment[i] {
			t.Errorf("recomputed Q = %v, want %v", q, out.Payment)
		}
	}
}

// TestJudgePaymentsExact: payment vectors are compared bit for bit. A
// submitter that shades its own entry by a relative 5e-10 — far inside
// any float tolerance — disagrees with the truthful vectors, so the
// referee recomputes, pays the truth and fines the shader.
func TestJudgePaymentsExact(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	shaded := append([]float64(nil), out.Payment...)
	shaded[0] *= 1 + 5e-10
	if shaded[0] == out.Payment[0] {
		t.Fatal("shading did not change the entry")
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentSubmission(t, "P1", shaded)},
		"P2": {f.paymentSubmission(t, "P2", out.Payment)},
		"P3": {f.paymentSubmission(t, "P3", out.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" {
		t.Errorf("shading verdict = %+v, want P1 fined", v)
	}
	for i := range q {
		if q[i] != out.Payment[i] {
			t.Fatalf("paid Q = %v, want the recomputed truth %v", q, out.Payment)
		}
	}
}

func TestJudgePaymentsEquivocationAndMissing(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	other := append([]float64(nil), out.Payment...)
	other[1] += 1
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentSubmission(t, "P1", out.Payment), f.paymentSubmission(t, "P1", other)},
		// P2 submits nothing.
		"P3": {f.paymentSubmission(t, "P3", out.Payment)},
	}
	v, _, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 2 || v.Guilty[0] != "P1" || v.Guilty[1] != "P2" {
		t.Errorf("verdict = %+v", v)
	}
	// Duplicate identical submissions are NOT equivocation.
	subs2 := map[string][]sig.Envelope{
		"P1": {f.paymentSubmission(t, "P1", out.Payment), f.paymentSubmission(t, "P1", out.Payment)},
		"P2": {f.paymentSubmission(t, "P2", out.Payment)},
		"P3": {f.paymentSubmission(t, "P3", out.Payment)},
	}
	v2, _, err := f.ref.JudgePayments(bids, exec, subs2)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Clean() {
		t.Errorf("duplicate identical submissions fined: %+v", v2)
	}
}

func TestJudgePaymentsMalformed(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	// P2's vector has the wrong length; P3 signs a vector naming P1.
	imposter, err := sig.SealBinary(f.keys["P3"], KindPayment, PaymentPayload{Proc: "P1", Q: out.Payment})
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentSubmission(t, "P1", out.Payment)},
		"P2": {f.paymentSubmission(t, "P2", out.Payment[:2])},
		"P3": {imposter},
	}
	v, _, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 2 {
		t.Errorf("verdict = %+v", v)
	}
	if _, _, err := f.ref.JudgePayments([]float64{1}, exec, subs); err == nil {
		t.Error("mismatched bids length accepted")
	}
}

func TestSettleFineFlow(t *testing.T) {
	f := newFixture(t, 4, 100)
	v := Verdict{Phase: "bidding", Guilty: []string{"P2"}, Reason: "equivocation", Terminates: true}
	if err := f.ref.Settle(v, nil); err != nil {
		t.Fatal(err)
	}
	// P2 pays 100; P1, P3, P4 receive 100/3 each; escrow empties.
	for account, want := range map[string]float64{
		"P2": -100, "P1": 100.0 / 3, "P3": 100.0 / 3, "P4": 100.0 / 3, Account: 0,
	} {
		got, err := f.ledger.Balance(account)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s balance = %v, want %v", account, got, want)
		}
	}
	if math.Abs(f.ledger.NetDrift()) > 1e-9 {
		t.Errorf("ledger drift %v", f.ledger.NetDrift())
	}
}

func TestSettleWithWorkCompensation(t *testing.T) {
	f := newFixture(t, 3, 100)
	v := Verdict{Phase: "allocating", Guilty: []string{"P1"}, Reason: "misallocation", Terminates: true}
	work := map[string]float64{"P2": 10, "P3": 4}
	if err := f.ref.Settle(v, work); err != nil {
		t.Fatal(err)
	}
	// Pool 100: P2 gets 10 + 43, P3 gets 4 + 43.
	for account, want := range map[string]float64{
		"P1": -100, "P2": 53, "P3": 47, Account: 0,
	} {
		got, _ := f.ledger.Balance(account)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s balance = %v, want %v", account, got, want)
		}
	}
}

func TestSettleGuiltyWorkNotCompensated(t *testing.T) {
	f := newFixture(t, 3, 100)
	v := Verdict{Phase: "allocating", Guilty: []string{"P1"}, Reason: "x", Terminates: true}
	// P1 did work but is guilty: no compensation for it.
	if err := f.ref.Settle(v, map[string]float64{"P1": 50, "P2": 10}); err != nil {
		t.Fatal(err)
	}
	got, _ := f.ledger.Balance("P1")
	if got != -100 {
		t.Errorf("guilty P1 balance = %v, want -100", got)
	}
}

func TestSettleErrors(t *testing.T) {
	f := newFixture(t, 2, 10)
	if err := f.ref.Settle(Verdict{Guilty: []string{"ghost"}}, nil); err == nil {
		t.Error("non-participant fined")
	}
	if err := f.ref.Settle(Verdict{Guilty: []string{"P1", "P2"}}, nil); err == nil {
		t.Error("all-guilty settlement accepted")
	}
	if err := f.ref.Settle(Verdict{Guilty: []string{"P1"}}, map[string]float64{"P2": 50}); err == nil {
		t.Error("work compensation exceeding the pool accepted (F too small)")
	}
	if err := f.ref.Settle(Verdict{Guilty: []string{"P1"}}, map[string]float64{"P2": -1}); err == nil {
		t.Error("negative work compensation accepted")
	}
	// Clean verdict: no-op.
	before := f.ledger.History()
	if err := f.ref.Settle(Verdict{}, nil); err != nil {
		t.Fatal(err)
	}
	if len(f.ledger.History()) != len(before) {
		t.Error("clean verdict moved money")
	}
}

func TestVerdictClean(t *testing.T) {
	if !(Verdict{}).Clean() {
		t.Error("empty verdict not clean")
	}
	if (Verdict{Guilty: []string{"x"}}).Clean() {
		t.Error("guilty verdict clean")
	}
}

// TestReseatMatchesNew adjudicates one round with a new referee and with
// one reseated after a different round (another processor set, its own
// binding, meters, an installment rule, an eviction, a standby and
// decoded payment vectors): the verdicts, agreed vectors, ledger flows
// and transcripts must match, the earlier standby must hear nothing more,
// and the transcript taken before the reseat must stay as it was.
func TestReseatMatchesNew(t *testing.T) {
	play := func(ref *Referee, g *fixture) ([]Verdict, [][]float64) {
		t.Helper()
		g.ref = ref
		g.bind(t, "r2", "r2")
		bids := []float64{1, 2, 3}
		exec := []float64{1, 2.5, 3}
		for i, p := range g.procs {
			if err := ref.RecordMeter(p, 0.1*float64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		out, err := g.mech.Run(bids, exec)
		if err != nil {
			t.Fatal(err)
		}
		wrong := append([]float64(nil), out.Payment...)
		wrong[2] *= 2
		var verdicts []Verdict
		var agreed [][]float64
		for _, q2 := range [][]float64{out.Payment, wrong} {
			subs := map[string][]sig.Envelope{}
			for _, p := range g.procs {
				q := out.Payment
				if p == "P3" {
					q = q2
				}
				env, err := sig.SealBinary(g.keys[p], KindPayment, PaymentPayload{Proc: p, Q: q, Round: "r2"})
				if err != nil {
					t.Fatal(err)
				}
				subs[p] = []sig.Envelope{env}
			}
			v, q, err := ref.JudgePayments(bids, exec, subs)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Settle(v, nil); err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, v)
			agreed = append(agreed, append([]float64(nil), q...))
		}
		return verdicts, agreed
	}

	f := newFixture(t, 4, 100)
	f.bind(t, "r1", "r1")
	f.ref.RecordInstallment(1, 2, 0.5, dlt.GeometricRounds)
	replicas := 0
	if err := f.ref.AttachStandby(func(AuditReplicaPayload) error { replicas++; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, p := range f.procs {
		if err := f.ref.RecordMeter(p, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ref.Evict("P4", "processing", "crashed"); err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{}
	for _, p := range f.procs[:3] {
		subs[p] = []sig.Envelope{f.paymentSubmission(t, p, []float64{9, 9, 9})}
	}
	if _, _, err := f.ref.JudgePayments([]float64{1, 1, 1}, []float64{1, 1, 1}, subs); err != nil {
		t.Fatal(err)
	}
	earlier := f.ref.TakeTranscript()
	kept := append([]AuditEntry(nil), earlier...)
	sent := replicas

	g := newFixture(t, 3, 50)
	other, err := payment.NewLedger(g.ledger.Accounts()...)
	if err != nil {
		t.Fatal(err)
	}
	reseated := f.ref
	if err := reseated.Reseat(g.ver, g.ledger, g.mech, g.procs, 50); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(g.ver, other, g.mech, g.procs, 50)
	if err != nil {
		t.Fatal(err)
	}
	vr, qr := play(reseated, g)
	vf, qf := play(fresh, g)
	if !reflect.DeepEqual(vr, vf) || !reflect.DeepEqual(qr, qf) {
		t.Errorf("reseated verdicts %+v and vectors %v, new referee %+v and %v", vr, qr, vf, qf)
	}
	if !reflect.DeepEqual(reseated.TakeTranscript(), fresh.TakeTranscript()) {
		t.Error("the reseated referee's transcript differs from a new one's")
	}
	if !reflect.DeepEqual(g.ledger.History(), other.History()) {
		t.Error("the reseated referee's ledger flows differ from a new one's")
	}
	if replicas != sent {
		t.Errorf("the standby attached before the reseat received %d more replicas", replicas-sent)
	}
	if !reflect.DeepEqual(earlier, kept) {
		t.Error("reseating changed the transcript taken before it")
	}
	if err := reseated.Reseat(g.ver, g.ledger, g.mech, []string{"P1", "P1"}, 50); err == nil {
		t.Error("Reseat accepted a duplicate processor")
	}
}
