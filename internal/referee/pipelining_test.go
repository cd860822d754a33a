package referee

import (
	"strings"
	"testing"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/sig"
)

// Conviction tests for the pipelined scheduler's sub-rounds: installment
// round IDs keep stale-installment replays and cross-installment
// equivocation convictable, and a payment dispute inside a sub-round is
// judged against the installment payment rule.

func (f *fixture) paymentAt(t *testing.T, proc, round string, q []float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[proc], KindPayment, PaymentPayload{Proc: proc, Q: q, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func (f *fixture) bidAt(t *testing.T, proc, round string, bid float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[proc], KindBid, BidPayload{Proc: proc, Bid: bid, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestJudgePaymentsStaleInstallmentReplay: a payment vector signed for
// installment rN.i1 and replayed in rN.i2 is convicted as a stale-round
// replay — installments of one load stamp distinct round IDs, so the
// whole-round replay check covers sub-rounds with no extra machinery.
func TestJudgePaymentsStaleInstallmentReplay(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	const rounds, cur, prev = 4, "s01:r3.i2", "s01:r3.i1"

	f.ref.BindRounds(cur, "s01:r1")
	f.ref.RecordInstallment(2, rounds, 0.25, dlt.EqualRounds)
	out, err := f.mech.RunRounds(bids, exec, rounds, dlt.EqualRounds, core.WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentAt(t, "P1", cur, out.Payment)},
		"P2": {f.paymentAt(t, "P2", prev, out.Payment)}, // replayed from i1
		"P3": {f.paymentAt(t, "P3", cur, out.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Fatalf("guilty = %v, want the replayer P2", v.Guilty)
	}
	if !strings.Contains(v.Reason, "stale-round replay") {
		t.Errorf("reason %q does not name the replay", v.Reason)
	}
	if !vectorsEqual(q, out.Payment) {
		t.Errorf("agreed Q = %v, want the installment truth %v", q, out.Payment)
	}
}

// TestJudgePaymentsInstallmentRecompute: a disputed payment vector in a
// pipelined sub-round is judged against the R-installment payment rule —
// a deviant submitting the single-round payment vector (the truth of the
// unpipelined mechanism, but not of this load) is convicted.
func TestJudgePaymentsInstallmentRecompute(t *testing.T) {
	f := newFixture(t, 3, 100)
	bids := []float64{1, 2, 3}
	exec := []float64{1, 2, 3}
	const rounds, cur = 4, "s01:r3.i2"

	f.ref.BindRounds(cur, "s01:r1")
	f.ref.RecordInstallment(2, rounds, 0.25, dlt.EqualRounds)
	truth, err := f.mech.RunRounds(bids, exec, rounds, dlt.EqualRounds, core.WithVerification)
	if err != nil {
		t.Fatal(err)
	}
	single, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	if vectorsEqual(truth.Payment, single.Payment) {
		t.Fatal("test needs the installment and single-round payments to differ")
	}
	subs := map[string][]sig.Envelope{
		"P1": {f.paymentAt(t, "P1", cur, truth.Payment)},
		"P2": {f.paymentAt(t, "P2", cur, single.Payment)},
		"P3": {f.paymentAt(t, "P3", cur, truth.Payment)},
	}
	v, q, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" {
		t.Fatalf("guilty = %v, want P2 (submitted the single-round vector)", v.Guilty)
	}
	if !vectorsEqual(q, truth.Payment) {
		t.Errorf("agreed Q = %v, want the installment truth %v", q, truth.Payment)
	}
}

// TestJudgeEquivocationAcrossInstallments: installments of one load are
// served from bids of one shared epoch, so contradictory signed bids of
// that epoch convict the equivocator no matter which installment the
// evidence surfaces in — and evidence from outside the epoch (a stale
// bid from an earlier load) stays unusable, turning the accusation back
// on the accuser.
func TestJudgeEquivocationAcrossInstallments(t *testing.T) {
	f := newFixture(t, 3, 100)
	const epoch = "s01:r1"
	a := f.bidAt(t, "P2", epoch, 2)
	b := f.bidAt(t, "P2", epoch, 3)

	// Evidence surfaces while sub-round r3.i2 of a pipelined load is live.
	f.ref.BindRounds("s01:r3.i2", epoch)
	f.ref.RecordInstallment(2, 4, 0.25, dlt.EqualRounds)
	v, err := f.ref.JudgeEquivocation("P1", a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P2" || !v.Terminates {
		t.Fatalf("verdict = %+v, want P2 convicted with termination", v)
	}

	// Same contradiction, but one bid was signed for a different epoch:
	// not evidence in this load, so the accusation is unfounded.
	stale := f.bidAt(t, "P2", "s01:r2", 3)
	v, err = f.ref.JudgeEquivocation("P1", a, stale)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" {
		t.Fatalf("verdict = %+v, want the accuser P1 convicted", v)
	}
}
