package referee

import (
	"strings"
	"testing"

	"dlsbl/internal/sig"
)

// standbyFixture wires a fixture's referee to a Standby through an
// in-process replication channel: each replica payload is sealed with
// the (registered) referee key and applied immediately, exactly as the
// protocol layer ships it over the reliable transport. The tamper hook,
// when set, may mutate the payload in flight.
type standbyFixture struct {
	*fixture
	refKey *sig.KeyPair
	sb     *Standby
	tamper func(*AuditReplicaPayload)
}

func newStandbyFixture(t *testing.T, m int, fine float64) *standbyFixture {
	t.Helper()
	f := newFixture(t, m, fine)
	refKey, err := sig.GenerateKeyPair(Account, sig.DeterministicSource(999))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Register(Account, refKey.Public); err != nil {
		t.Fatal(err)
	}
	sf := &standbyFixture{fixture: f, refKey: refKey, sb: NewStandby()}
	if err := f.ref.AttachStandby(func(p AuditReplicaPayload) error {
		if sf.tamper != nil {
			sf.tamper(&p)
		}
		env, err := sig.Seal(refKey, KindAuditReplica, p)
		if err != nil {
			return err
		}
		return sf.sb.Apply(f.reg, env)
	}); err != nil {
		t.Fatal(err)
	}
	return sf
}

func sameEntries(a, b []AuditEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Hash != b[i].Hash {
			return false
		}
	}
	return true
}

func TestStandbyPromoteParity(t *testing.T) {
	f := newStandbyFixture(t, 3, 100)

	// Drive the primary through meter records and a witness conviction;
	// every append streams to the standby. (No BindRounds here: the
	// fixture's payment submissions carry no round, and the snapshot was
	// taken at attach time — the protocol layer arms the standby after
	// binding, so bindings always precede the snapshot in production.)
	exec := []float64{1, 2, 3}
	for i, p := range f.procs {
		if err := f.ref.RecordMeter(p, exec[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.witnessReport(t, "P1", "P2", "")
	v, err := f.ref.JudgeWitnessReport(rep, WitnessEvidence{
		Corroborating: 1, Witnesses: 2, Threshold: 2,
		RelayDelivered: true, ClaimMaintained: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ref.Settle(v, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.ref.ReplicationErr(); err != nil {
		t.Fatalf("replication failed: %v", err)
	}

	promoted, err := f.sb.Promote(f.ver, f.ledger, f.mech)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEntries(f.ref.Transcript(), promoted.Transcript()) {
		t.Fatal("promoted transcript diverges from the primary's")
	}
	if err := VerifyEntries(promoted.Transcript()); err != nil {
		t.Fatalf("promoted transcript does not verify: %v", err)
	}
	pphi, err := promoted.Meters()
	if err != nil {
		t.Fatal(err)
	}
	for i := range exec {
		if pphi[i] != exec[i] {
			t.Fatalf("promoted meters = %v, want %v (exact bits)", pphi, exec)
		}
	}

	// The promoted standby adjudicates payments bit-identically to the
	// primary from the same submissions. (No Settle here: both referees
	// share the ledger, so settling twice would double-pay.)
	bids := []float64{1, 2, 3}
	out, err := f.mech.Run(bids, exec)
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string][]sig.Envelope{}
	for _, p := range f.procs {
		subs[p] = []sig.Envelope{f.paymentSubmission(t, p, out.Payment)}
	}
	vp, qp, err := f.ref.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	vs, qs, err := promoted.JudgePayments(bids, exec, subs)
	if err != nil {
		t.Fatal(err)
	}
	if vp.Clean() != vs.Clean() || vp.Terminates != vs.Terminates {
		t.Errorf("verdicts diverge: primary %+v, standby %+v", vp, vs)
	}
	for i := range qp {
		if qp[i] != qs[i] {
			t.Errorf("payment vectors diverge: primary %v, standby %v", qp, qs)
		}
	}
}

func TestStandbyPromoteAfterEviction(t *testing.T) {
	f := newStandbyFixture(t, 4, 100)
	for i, p := range f.procs {
		if err := f.ref.RecordMeter(p, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.ref.Evict("P2", "bidding", "unreachable per corroborated witness reports"); err != nil {
		t.Fatal(err)
	}
	promoted, err := f.sb.Promote(f.ver, f.ledger, f.mech)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := promoted.Meters()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 4} // P1, P3, P4 — P2's meter left with it
	if len(phi) != len(want) {
		t.Fatalf("promoted meters = %v, want %v", phi, want)
	}
	for i := range want {
		if phi[i] != want[i] {
			t.Fatalf("promoted meters = %v, want %v", phi, want)
		}
	}
	if !sameEntries(f.ref.Transcript(), promoted.Transcript()) {
		t.Error("promoted transcript diverges after eviction")
	}
}

func TestStandbyApplyOrdering(t *testing.T) {
	f := newFixture(t, 3, 100)
	refKey, err := sig.GenerateKeyPair(Account, sig.DeterministicSource(999))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Register(Account, refKey.Public); err != nil {
		t.Fatal(err)
	}
	seal := func(p AuditReplicaPayload) sig.Envelope {
		env, err := sig.Seal(refKey, KindAuditReplica, p)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	sb := NewStandby()
	entry := f.ref.RecordBidReuse("s:r1", 1)
	if err := sb.Apply(f.reg, seal(AuditReplicaPayload{Entry: &entry})); err == nil {
		t.Error("update before the snapshot accepted")
	}
	snap := AuditReplicaPayload{Snapshot: &StandbySnapshot{Procs: f.procs, Fine: 100}}
	if err := sb.Apply(f.reg, seal(snap)); err != nil {
		t.Fatal(err)
	}
	if err := sb.Apply(f.reg, seal(snap)); err == nil ||
		!strings.Contains(err.Error(), "second snapshot") {
		t.Errorf("second snapshot error = %v", err)
	}
	if _, err := NewStandby().Promote(f.ver, f.ledger, f.mech); err == nil {
		t.Error("promote without a snapshot accepted")
	}

	// Unsigned / wrongly signed replicas are rejected.
	bad, err := sig.Seal(f.keys["P1"], KindAuditReplica, snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStandby().Apply(f.reg, bad); err == nil {
		t.Error("replica signed by a processor key accepted")
	}
}

func TestStandbyApplyRejectsTornChain(t *testing.T) {
	f := newStandbyFixture(t, 3, 100)

	// Tamper with the next replica's sequence number: the standby must
	// reject it on arrival and the primary must latch the failure.
	f.tamper = func(p *AuditReplicaPayload) {
		if p.Entry != nil {
			p.Entry.Seq += 5
		}
	}
	f.ref.RecordBidReuse("s:r1", 1)
	if err := f.ref.ReplicationErr(); err == nil ||
		!strings.Contains(err.Error(), "sequence") {
		t.Errorf("ReplicationErr = %v, want a sequence mismatch", err)
	}

	// A torn replica stream must refuse later, in-order entries too: the
	// chain no longer extends.
	f.tamper = nil
	f.ref.RecordBidReuse("s:r1", 2)
	if len(f.sb.Entries()) != 0 {
		t.Errorf("standby accepted %d entries after a torn stream", len(f.sb.Entries()))
	}

	// Content tampering is caught by the per-entry hash.
	f2 := newStandbyFixture(t, 3, 100)
	f2.tamper = func(p *AuditReplicaPayload) {
		if p.Entry != nil {
			p.Entry.Detail = "doctored"
		}
	}
	f2.ref.RecordBidReuse("s:r1", 1)
	if err := f2.ref.ReplicationErr(); err == nil ||
		!strings.Contains(err.Error(), "hash") {
		t.Errorf("ReplicationErr = %v, want a content-hash mismatch", err)
	}
}

func TestStandbyEntriesCopy(t *testing.T) {
	f := newStandbyFixture(t, 3, 100)
	f.ref.RecordBidReuse("s:r1", 1)
	got := f.sb.Entries()
	if len(got) != 1 {
		t.Fatalf("replicated %d entries, want 1", len(got))
	}
	got[0].Detail = "mutated by caller"
	if f.sb.Entries()[0].Detail == "mutated by caller" {
		t.Error("Entries exposes internal state")
	}
}
