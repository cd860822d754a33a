package referee

import (
	"strings"
	"testing"
)

func TestRecordFailoverEntry(t *testing.T) {
	f := newFixture(t, 3, 100)
	e := f.ref.RecordFailover(Account, StandbyAccount)
	if e.Action != "failover" || e.Phase != "processing" {
		t.Errorf("entry = %+v, want a failover/processing entry", e)
	}
	if !strings.Contains(e.Detail, StandbyAccount) || !strings.Contains(e.Detail, Account) {
		t.Errorf("detail %q names neither referee", e.Detail)
	}
	if err := VerifyEntries(f.ref.Transcript()); err != nil {
		t.Fatal(err)
	}
	if s := f.ref.AuditString(); !strings.Contains(s, "failover") {
		t.Errorf("AuditString misses the failover entry:\n%s", s)
	}
}

func TestRecordEvictionEntry(t *testing.T) {
	f := newFixture(t, 3, 100)
	e := f.ref.RecordEviction("P2", "bidding", "unreachable")
	if e.Action != "eviction" || !strings.Contains(e.Detail, "P2") {
		t.Errorf("entry = %+v", e)
	}
	// RecordEviction only logs; Evict is the state change.
	if _, err := f.ref.Meters(); err == nil {
		t.Skip("meters empty as expected") // nothing more to assert here
	}
}

func TestBindRoundsSplicedAndBidSplice(t *testing.T) {
	f := newFixture(t, 3, 100)
	if err := f.ref.BindRoundsSpliced("s:r2", "s:r2", []string{"s:r1", "s:r2", "s:r1"}); err != nil {
		t.Fatal(err)
	}
	e := f.ref.RecordBidSplice("P2", "rate", "s:r1")
	if e.Action != "bid-splice" || !strings.Contains(e.Detail, "P2") {
		t.Errorf("entry = %+v", e)
	}
	if err := f.ref.BindRoundsSpliced("s:r3", "s:r3", []string{"s:r1"}); err == nil {
		t.Error("epoch vector of the wrong length accepted")
	}
}
