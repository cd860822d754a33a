package protocol

import (
	"reflect"
	"strings"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/referee"
)

func sessionBase(t *testing.T, w ...float64) *BidSession {
	t.Helper()
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBidSessionAmortizesBidding is the tentpole's core contract: after
// the first round, rounds are served from the cached bid set — the Θ(m²)
// bid exchange disappears from the bus (deliveries drop to Θ(m)), the
// round IDs stay distinct, the audit transcript records the reuse, and
// the payments are bit-identical to standalone per-job bidding.
func TestBidSessionAmortizesBidding(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	s := sessionBase(t, w...)
	job := JobConfig{Seed: 7, NBlocks: 64}

	standalone, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 7, NBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}

	var outs []*Outcome
	for k := 0; k < 4; k++ {
		out, err := s.Run(job)
		if err != nil {
			t.Fatalf("round %d: %v", k+1, err)
		}
		if !out.Completed {
			t.Fatalf("round %d did not complete", k+1)
		}
		outs = append(outs, out)
	}

	if outs[0].BidReused {
		t.Fatal("first round cannot reuse bids")
	}
	for k, out := range outs[1:] {
		if !out.BidReused {
			t.Fatalf("round %d re-bid although nothing changed", k+2)
		}
	}

	// Distinct, session-salted round IDs.
	seen := map[string]bool{}
	for _, out := range outs {
		if out.RoundID == "" || seen[out.RoundID] {
			t.Fatalf("round ID %q missing or repeated", out.RoundID)
		}
		seen[out.RoundID] = true
	}

	// Economics are identical whether the bids are fresh or cached.
	for k, out := range outs {
		if !reflect.DeepEqual(out.Bids, standalone.Bids) ||
			!reflect.DeepEqual(out.Alloc, standalone.Alloc) ||
			!reflect.DeepEqual(out.Payments, standalone.Payments) ||
			!reflect.DeepEqual(out.Utilities, standalone.Utilities) ||
			out.UserCost != standalone.UserCost {
			t.Fatalf("round %d economics diverge from standalone run", k+1)
		}
	}

	// Traffic: a bidding round pays m·m receiver-side deliveries for the
	// bid exchange; a reuse round only carries the meters broadcast and
	// the payment submissions — Θ(m).
	m := len(w)
	bidRound, reuseRound := outs[0].BusStats.Deliveries, outs[1].BusStats.Deliveries
	if bidRound-reuseRound != m*m {
		t.Fatalf("bidding round deliveries %d − reuse round deliveries %d = %d, want m²=%d",
			bidRound, reuseRound, bidRound-reuseRound, m*m)
	}

	// The referee's transcript makes the reuse auditable.
	found := false
	for _, e := range outs[2].Transcript {
		if e.Action == "bid-reuse" {
			found = true
			if e.Round != outs[2].RoundID {
				t.Fatalf("bid-reuse entry stamped %q, round is %q", e.Round, outs[2].RoundID)
			}
			if !strings.Contains(e.Detail, outs[0].RoundID) {
				t.Fatalf("bid-reuse entry %q does not name the bid epoch %q", e.Detail, outs[0].RoundID)
			}
		}
	}
	if !found {
		t.Fatal("reuse round transcript has no bid-reuse entry")
	}
	if err := referee.VerifyEntries(outs[2].Transcript); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Rounds != 4 || st.Rebids != 1 || st.RoundsSinceRebid != 3 {
		t.Fatalf("stats = %+v, want 4 rounds, 1 rebid, 3 since", st)
	}
	if st.SavedDeliveries != 3*m*m {
		t.Fatalf("SavedDeliveries = %d, want 3·m² = %d", st.SavedDeliveries, 3*m*m)
	}
	if st.BidEpoch != outs[0].RoundID {
		t.Fatalf("BidEpoch = %q, want %q", st.BidEpoch, outs[0].RoundID)
	}
}

// TestBidSessionRebidTriggers pins every reuse-vs-rebid decision: rate
// changes, membership changes and bid-affecting behavior changes re-bid;
// no-op announcements and payment-only behavior changes do not.
func TestBidSessionRebidTriggers(t *testing.T) {
	s := sessionBase(t, 3, 2, 4)
	job := JobConfig{Seed: 3, NBlocks: 48}
	mustRun := func(wantReuse bool, what string) *Outcome {
		t.Helper()
		out, err := s.Run(job)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if out.BidReused != wantReuse {
			t.Fatalf("%s: BidReused = %v, want %v", what, out.BidReused, wantReuse)
		}
		return out
	}

	mustRun(false, "first round")
	mustRun(true, "steady state")

	// Announcing the CURRENT rate is not a change.
	if err := s.AnnounceRate(1, 2); err != nil {
		t.Fatal(err)
	}
	mustRun(true, "same-rate announcement")

	// A real rate change re-bids once, then reuse resumes.
	if err := s.AnnounceRate(1, 2.5); err != nil {
		t.Fatal(err)
	}
	mustRun(false, "rate change")
	mustRun(true, "after rate change")

	// A join re-bids with the larger pool.
	idx, err := s.Join(6)
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(false, "join")
	if !out.Participated[idx] {
		t.Fatalf("joined member P%d did not participate", idx+1)
	}
	mustRun(true, "after join")

	// A leave re-bids without the departed member.
	if err := s.Leave(1); err != nil {
		t.Fatal(err)
	}
	out = mustRun(false, "leave")
	if out.Participated[1] {
		t.Fatal("departed member still participates")
	}
	mustRun(true, "after leave")

	// A payment-phase deviation does not touch the bids: no rebid.
	job.Behaviors = make([]agent.Behavior, 3)
	job.Behaviors[2] = agent.PaymentCheat
	out = mustRun(true, "payment-only behavior change")
	if len(out.Verdicts) == 0 || out.Verdicts[len(out.Verdicts)-1].Clean() {
		t.Fatal("payment cheat was not fined in the reuse round")
	}

	// A bid-affecting behavior change re-bids.
	job.Behaviors[2] = agent.OverBid
	mustRun(false, "bid factor change")
}

// TestBidSessionMembershipRules pins the member-management invariants.
func TestBidSessionMembershipRules(t *testing.T) {
	s := sessionBase(t, 3, 2, 4)
	if err := s.Leave(0); err == nil {
		t.Fatal("NCP-FE load originator allowed to leave")
	}
	if err := s.Leave(7); err == nil {
		t.Fatal("out-of-range leave accepted")
	}
	if err := s.Leave(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(1); err == nil {
		t.Fatal("double leave accepted")
	}
	if err := s.Leave(2); err == nil {
		t.Fatal("leave below two members accepted")
	}
	if err := s.AnnounceRate(1, 5); err == nil {
		t.Fatal("rate announcement from departed member accepted")
	}
	if _, err := s.Join(-1); err == nil {
		t.Fatal("invalid join rate accepted")
	}
	got := s.Members()
	want := []Member{{Index: 0, ID: "P1", W: 3}, {Index: 2, ID: "P3", W: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members() = %+v, want %+v", got, want)
	}

	// NCP-NFE pins the highest index as originator.
	nfe, err := NewBidSession(Config{Network: dlt.NCPNFE, Z: 0.2, TrueW: []float64{3, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := nfe.Leave(2); err == nil {
		t.Fatal("NCP-NFE load originator allowed to leave")
	}

	// Per-job fields are rejected in the session config.
	if _, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2}, Seed: 9}); err == nil {
		t.Fatal("per-job Seed accepted in session config")
	}
	if _, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2}, Standby: true}); err == nil {
		t.Fatal("Standby accepted in session config")
	}
}

// TestBidSessionEvictionForcesFreshMemberSet: a member evicted for
// unreachability during a bidding round is gone for good — the captured
// cache holds the survivors, later rounds reuse it without the evictee,
// and no round is ever served with the stale pre-eviction member set.
func TestBidSessionEvictionForcesFreshMemberSet(t *testing.T) {
	s := sessionBase(t, 3, 2, 4, 5)
	faulty := JobConfig{Seed: 5, NBlocks: 64,
		Faults: &bus.FaultPlan{Seed: 1, Unresponsive: []string{"P3"}}}
	out, err := s.Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidReused || !out.Evicted[2] {
		t.Fatalf("round 1: BidReused=%v Evicted=%v, want fresh bidding and P3 evicted", out.BidReused, out.Evicted)
	}
	// Clean follow-up round: reuse, survivors only.
	out2, err := s.Run(JobConfig{Seed: 6, NBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.BidReused {
		t.Fatal("round 2 re-bid although the survivor set is unchanged")
	}
	if out2.Participated[2] || out2.Bids[2] != 0 {
		t.Fatal("evicted member served in a later round (stale member set)")
	}
	if got := len(s.Members()); got != 3 {
		t.Fatalf("%d members after eviction, want 3", got)
	}
}

// TestBidSessionTerminatedBiddingKeepsOldCache: a rebid round that
// terminates during Bidding (equivocation conviction) establishes no new
// epoch; when the pool reverts to the cached profile, the session resumes
// serving from the ORIGINAL epoch rather than re-bidding.
func TestBidSessionTerminatedBiddingKeepsOldCache(t *testing.T) {
	s := sessionBase(t, 3, 2, 4)
	job := JobConfig{Seed: 11, NBlocks: 48}
	out, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	epoch := out.RoundID

	cheat := job
	cheat.Behaviors = []agent.Behavior{{}, agent.Equivocator, {}}
	out2, err := s.Run(cheat)
	if err != nil {
		t.Fatal(err)
	}
	if out2.BidReused || out2.Completed || out2.TerminatedIn != "bidding" {
		t.Fatalf("equivocation round: reused=%v completed=%v in=%q, want fresh terminated bidding",
			out2.BidReused, out2.Completed, out2.TerminatedIn)
	}
	if len(out2.Verdicts) == 0 || out2.Verdicts[0].Guilty[0] != "P2" {
		t.Fatalf("equivocator not convicted: %+v", out2.Verdicts)
	}

	out3, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !out3.BidReused {
		t.Fatal("session re-bid although the terminated round left the old cache valid")
	}
	if st := s.Stats(); st.BidEpoch != epoch {
		t.Fatalf("serving from epoch %q, want the original %q", st.BidEpoch, epoch)
	}
}
