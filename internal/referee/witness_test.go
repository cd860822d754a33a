package referee

import (
	"strings"
	"testing"

	"dlsbl/internal/sig"
)

func (f *fixture) witnessReport(t *testing.T, witness, accused, round string) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(f.keys[witness], KindWitnessReport,
		WitnessReportPayload{Witness: witness, Accused: accused, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestCorroborationThreshold(t *testing.T) {
	for _, c := range []struct{ m, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 4}, {9, 5}, {15, 8}, {16, 8},
	} {
		if got := CorroborationThreshold(c.m); got != c.want {
			t.Errorf("CorroborationThreshold(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestJudgeWitnessReportFramingConviction(t *testing.T) {
	f := newFixture(t, 4, 100)
	rep := f.witnessReport(t, "P1", "P2", "")
	ev := WitnessEvidence{Corroborating: 1, Witnesses: 3, Threshold: 2,
		RelayDelivered: true, ClaimMaintained: true}
	v, err := f.ref.JudgeWitnessReport(rep, ev)
	if err != nil {
		t.Fatal(err)
	}
	if v.Clean() {
		t.Fatal("maintained claim against a verified relay judged clean")
	}
	if v.Terminates {
		t.Error("framing conviction must not terminate the round")
	}
	if len(v.Guilty) != 1 || v.Guilty[0] != "P1" {
		t.Errorf("Guilty = %v, want [P1] (the framer, never the rival)", v.Guilty)
	}
	if !strings.Contains(v.Reason, "framing") {
		t.Errorf("Reason = %q, want a framing-attempt reason", v.Reason)
	}
	if err := f.ref.Settle(v, nil); err != nil {
		t.Fatal(err)
	}
	framer, err := f.ledger.Balance("P1")
	if err != nil {
		t.Fatal(err)
	}
	if framer >= 0 {
		t.Errorf("framer balance = %v, want a net fine", framer)
	}
	rival, err := f.ledger.Balance("P2")
	if err != nil {
		t.Fatal(err)
	}
	if rival < 0 {
		t.Errorf("rival balance = %v; the accused must never pay", rival)
	}
	if err := VerifyEntries(f.ref.Transcript()); err != nil {
		t.Fatalf("transcript broken after conviction: %v", err)
	}
	var sawReport bool
	for _, e := range f.ref.Transcript() {
		if e.Action == "witness-report" {
			sawReport = true
		}
	}
	if !sawReport {
		t.Error("no witness-report entry in the transcript")
	}
}

func TestJudgeWitnessReportWithdrawnClean(t *testing.T) {
	f := newFixture(t, 4, 100)
	rep := f.witnessReport(t, "P3", "P1", "")
	v, err := f.ref.JudgeWitnessReport(rep, WitnessEvidence{
		Corroborating: 1, Witnesses: 3, Threshold: 2, RelayDelivered: true})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Clean() || v.Terminates {
		t.Errorf("withdrawn report verdict = %+v, want clean", v)
	}
	if !strings.Contains(v.Reason, "withdrew") {
		t.Errorf("Reason = %q", v.Reason)
	}
}

func TestJudgeWitnessReportUnadjudicable(t *testing.T) {
	f := newFixture(t, 4, 100)
	rep := f.witnessReport(t, "P3", "P1", "")
	v, err := f.ref.JudgeWitnessReport(rep, WitnessEvidence{
		Corroborating: 1, Witnesses: 3, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Clean() || v.Terminates {
		t.Errorf("undelivered-relay verdict = %+v, want clean (unadjudicable)", v)
	}
	if !strings.Contains(v.Reason, "unadjudicable") {
		t.Errorf("Reason = %q", v.Reason)
	}
}

func TestJudgeWitnessReportValidation(t *testing.T) {
	f := newFixture(t, 3, 100)
	ev := WitnessEvidence{Corroborating: 1, Witnesses: 2, Threshold: 2, RelayDelivered: true}

	// Payload names a witness other than the signer.
	env, err := sig.SealBinary(f.keys["P1"], KindWitnessReport,
		WitnessReportPayload{Witness: "P2", Accused: "P3"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ref.JudgeWitnessReport(env, ev); err == nil {
		t.Error("impersonated witness accepted")
	}

	// Self-accusation.
	if _, err := f.ref.JudgeWitnessReport(f.witnessReport(t, "P1", "P1", ""), ev); err == nil {
		t.Error("self-accusation accepted")
	}

	// Accused is not a participant.
	if _, err := f.ref.JudgeWitnessReport(f.witnessReport(t, "P1", "P9", ""), ev); err == nil {
		t.Error("report against a non-participant accepted")
	}

	// Witness is registered but not a participant.
	outsider, err := sig.GenerateKeyPair("X1", sig.DeterministicSource(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Register("X1", outsider.Public); err != nil {
		t.Fatal(err)
	}
	oenv, err := sig.SealBinary(outsider, KindWitnessReport,
		WitnessReportPayload{Witness: "X1", Accused: "P2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ref.JudgeWitnessReport(oenv, ev); err == nil {
		t.Error("non-participant witness accepted")
	}

	// Stale-round replay.
	f.bind(t, "s:r2", "s:r2")
	if _, err := f.ref.JudgeWitnessReport(f.witnessReport(t, "P1", "P2", "s:r1"), ev); err == nil {
		t.Error("stale-round report accepted")
	}
	if _, err := f.ref.JudgeWitnessReport(f.witnessReport(t, "P1", "P2", "s:r2"), ev); err != nil {
		t.Errorf("current-round report rejected: %v", err)
	}
}
