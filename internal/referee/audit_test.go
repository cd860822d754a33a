package referee

import (
	"strings"
	"testing"
)

func TestAuditChainAppendsAndVerifies(t *testing.T) {
	var log AuditLog
	if err := log.Verify(); err != nil {
		t.Fatalf("empty log failed verification: %v", err)
	}
	e1 := log.Append("verdict", "bidding", []string{"P2"}, "equivocation")
	e2 := log.Append("settlement", "bidding", []string{"P2"}, "collected 20")
	if log.Len() != 2 {
		t.Fatalf("len = %d", log.Len())
	}
	if e2.PrevHash != e1.Hash {
		t.Error("chain link broken on append")
	}
	if e1.Seq != 0 || e2.Seq != 1 {
		t.Error("sequence numbers wrong")
	}
	if err := log.Verify(); err != nil {
		t.Fatalf("fresh log failed verification: %v", err)
	}
	if err := VerifyEntries(log.Entries()); err != nil {
		t.Fatalf("exported entries failed verification: %v", err)
	}
}

func TestAuditDetectsTampering(t *testing.T) {
	var log AuditLog
	log.Append("verdict", "bidding", []string{"P2"}, "equivocation")
	log.Append("settlement", "bidding", []string{"P2"}, "collected 20")
	log.Append("meter", "processing", nil, "P1 reported φ=0.5")

	// Mutate a detail.
	entries := log.Entries()
	entries[1].Detail = "collected 0"
	if err := VerifyEntries(entries); err == nil {
		t.Error("mutated detail accepted")
	}

	// Drop an entry.
	dropped := append(append([]AuditEntry(nil), log.Entries()[:1]...), log.Entries()[2:]...)
	if err := VerifyEntries(dropped); err == nil {
		t.Error("dropped entry accepted")
	}

	// Reorder.
	reordered := log.Entries()
	reordered[0], reordered[1] = reordered[1], reordered[0]
	if err := VerifyEntries(reordered); err == nil {
		t.Error("reordered entries accepted")
	}

	// Rewrite guilty list with a re-derived hash but stale link.
	forged := log.Entries()
	forged[2].Guilty = []string{"P1"}
	forged[2].Hash = hashEntry(forged[2])
	if err := VerifyEntries(forged); err != nil {
		// Tail rewrite with recomputed hash still verifies — that is the
		// expected property of a hash chain without signatures: only the
		// PREFIX is protected. Rewriting entry 1 instead must break
		// entry 2's PrevHash.
		t.Fatalf("unexpected: %v", err)
	}
	forgedMid := log.Entries()
	forgedMid[1].Guilty = []string{"P3"}
	forgedMid[1].Hash = hashEntry(forgedMid[1])
	if err := VerifyEntries(forgedMid); err == nil {
		t.Error("mid-chain rewrite accepted")
	}
}

func TestAuditString(t *testing.T) {
	var log AuditLog
	log.Append("verdict", "payments", []string{"P1", "P2"}, "x")
	log.Append("meter", "processing", nil, "y")
	s := log.String()
	if !strings.Contains(s, "P1+P2") || !strings.Contains(s, "meter") {
		t.Errorf("rendering missing fields:\n%s", s)
	}
}

// TestRefereeProducesTranscript: the adjudication methods append to the
// transcript and it verifies end-to-end.
func TestRefereeProducesTranscript(t *testing.T) {
	f := newFixture(t, 3, 100)
	a := f.signedBid(t, "P2", 1.5)
	b := f.signedBid(t, "P2", 9.5)
	if _, err := f.ref.JudgeEquivocation("P1", a, b); err != nil {
		t.Fatal(err)
	}
	if err := f.ref.RecordMeter("P1", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := f.ref.Settle(Verdict{Phase: "bidding", Guilty: []string{"P2"}, Reason: "equivocation"}, nil); err != nil {
		t.Fatal(err)
	}
	tr := f.ref.Transcript()
	if len(tr) != 3 {
		t.Fatalf("transcript has %d entries, want 3:\n%s", len(tr), f.ref.audit.String())
	}
	if tr[0].Action != "verdict" || tr[1].Action != "meter" || tr[2].Action != "settlement" {
		t.Errorf("actions = %s/%s/%s", tr[0].Action, tr[1].Action, tr[2].Action)
	}
	if err := VerifyEntries(tr); err != nil {
		t.Fatalf("referee transcript failed verification: %v", err)
	}
}
