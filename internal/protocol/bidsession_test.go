package protocol

import (
	"reflect"
	"strings"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
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

// TestBidSessionRebidTriggers pins every reuse-vs-rebid decision: a
// changed bid, an abstention and a return re-bid; naming a member's
// current strategy outright and payment-only behavior changes do not.
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

	// Naming the truthful strategy outright is not a change.
	job.Behaviors = []agent.Behavior{agent.Honest, {BidFactor: 1}, agent.Honest}
	mustRun(true, "explicit truthful bids")

	// A changed bid re-bids once, then reuse resumes.
	job.Behaviors[1] = agent.Behavior{Name: "bid-1.25x", BidFactor: 1.25}
	mustRun(false, "bid change")
	mustRun(true, "after bid change")

	// An abstention re-bids without the member, and its return with it.
	job.Behaviors[2] = agent.Behavior{Name: "abstain", Abstain: true}
	out := mustRun(false, "abstention")
	if out.Participated[2] {
		t.Fatal("abstaining member participates")
	}
	mustRun(true, "after abstention")
	job.Behaviors[2] = agent.Honest
	out = mustRun(false, "return")
	if !out.Participated[2] {
		t.Fatal("returning member did not participate")
	}
	mustRun(true, "after return")

	// A payment-phase deviation does not touch the bids: no rebid.
	job.Behaviors[2] = agent.PaymentCheat
	out = mustRun(true, "payment-only behavior change")
	if len(out.Verdicts) == 0 || out.Verdicts[len(out.Verdicts)-1].Clean() {
		t.Fatal("payment cheat was not fined in the reuse round")
	}

	// A bid-affecting behavior change re-bids.
	job.Behaviors[2] = agent.OverBid
	mustRun(false, "bid factor change")
}

// TestNewBidSessionOwnsItsConfig: the session rejects per-job fields in
// its founding config, and keeps its own copy of the founding rates, so
// a caller that reuses its rate slice moves no later round.
func TestNewBidSessionOwnsItsConfig(t *testing.T) {
	if _, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2}, Seed: 9}); err == nil {
		t.Fatal("per-job Seed accepted in session config")
	}
	if _, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2}, Standby: true}); err == nil {
		t.Fatal("Standby accepted in session config")
	}

	w := []float64{3, 2, 4}
	s := sessionBase(t, w...)
	job := JobConfig{Seed: 4, NBlocks: 48}
	first, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	w[1] = 9
	again, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !again.BidReused || !reflect.DeepEqual(econOf(again), econOf(first)) {
		t.Fatalf("after the caller's slice changed: reused=%v, economics %+v, want reuse with %+v",
			again.BidReused, econOf(again), econOf(first))
	}
}

// TestBidSessionEvictionForcesFreshMemberSet: a member evicted for
// unreachability during a bidding round misses that job only. The
// captured cache holds the survivors, so the evictee's return is a
// profile change: the next job runs a full exchange with it — never a
// round served from the survivors' cache — and the job after that reuses
// the restored bid set.
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
	back, err := s.Run(JobConfig{Seed: 6, NBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if back.BidReused || back.BidSpliced || !back.Participated[2] {
		t.Fatalf("round 2: BidReused=%v BidSpliced=%v P3 participated=%v, want a full exchange with P3 back",
			back.BidReused, back.BidSpliced, back.Participated[2])
	}
	again, err := s.Run(JobConfig{Seed: 7, NBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !again.BidReused || !again.Participated[2] {
		t.Fatalf("round 3: BidReused=%v P3 participated=%v, want reuse of the restored bid set",
			again.BidReused, again.Participated[2])
	}
	if st := s.Stats(); st.Rebids != 2 || st.RoundsSinceRebid != 1 {
		t.Fatalf("stats %+v, want 2 rebids and 1 round since", st)
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

// TestSpliceRoundCrashKeepsCacheIntact: a member that crashes during
// Processing of a splice round is evicted from that round only. The
// spliced cache keeps its own per-member bid epochs, so the compaction
// of the round's state cannot shift a later member's epoch into the
// evictee's slot, and the clean rounds that follow are served from the
// cache with the standalone economics.
func TestSpliceRoundCrashKeepsCacheIntact(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5, 3}
	s := sessionBase(t, w...)
	job := JobConfig{Seed: 3, NBlocks: 80}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	job.Behaviors = []agent.Behavior{{}, {}, {}, {}, agent.OverBid}
	crash := job
	crash.Faults = adversarytest.CrashPlan(5, 0, "P3")
	out, err := s.Run(crash)
	if err != nil {
		t.Fatal(err)
	}
	if !out.BidSpliced || !out.Evicted[2] {
		t.Fatalf("splice round: BidSpliced=%v Evicted=%v, want a splice that evicts P3", out.BidSpliced, out.Evicted)
	}
	want, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Behaviors: job.Behaviors, Seed: 3, NBlocks: 80})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		out, err := s.Run(job)
		if err != nil {
			t.Fatalf("clean round %d after the splice crash: %v", k+1, err)
		}
		if !out.BidReused {
			t.Fatalf("clean round %d re-bid; want reuse of the spliced cache", k+1)
		}
		if got, want := econOf(out), econOf(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("clean round %d diverges from a standalone run\n got %+v\nwant %+v", k+1, got, want)
		}
	}
}

// TestCrashOnColdRoundKeepsSession: a member that crashes during
// Processing of the session's first (full-exchange) round is evicted
// from that round only. It stays a member and in the bid cache, so the
// clean jobs that follow are served from the cache with every member,
// settling exactly like standalone runs.
func TestCrashOnColdRoundKeepsSession(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	s := sessionBase(t, w...)
	crash := JobConfig{Seed: 3, NBlocks: 64, Faults: adversarytest.CrashPlan(5, 0, "P3")}
	out, err := s.Run(crash)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidReused || !out.Evicted[2] {
		t.Fatalf("first round: BidReused=%v Evicted=%v, want a full exchange that evicts P3", out.BidReused, out.Evicted)
	}
	for k := 0; k < 3; k++ {
		job := JobConfig{Seed: int64(10 + k), NBlocks: 64}
		out, err := s.Run(job)
		if err != nil {
			t.Fatalf("clean job %d after the crash: %v", k+1, err)
		}
		if !out.BidReused {
			t.Fatalf("clean job %d re-bid; want reuse of the cache the crash round captured", k+1)
		}
		want, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: job.Seed, NBlocks: 64})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := econOf(out), econOf(want); !reflect.DeepEqual(got, want) {
			t.Fatalf("clean job %d diverges from a standalone run\n got %+v\nwant %+v", k+1, got, want)
		}
	}
}

// TestCachedRoundHearsFromDarkMember: a member that answers nothing all
// round must not stay seated on a cached round that would otherwise
// never need it — one a verdict ends during Allocating, or one whose
// only eviction is the dark member's own crash. The cached round hears
// from every member first, falls back to the full exchange, and settles
// as a fresh Run does: the member is evicted during Bidding, gets no
// share of a fine, and its bid does not count toward F.
func TestCachedRoundHearsFromDarkMember(t *testing.T) {
	w := []float64{3, 2, 4, 5}
	claimant := []agent.Behavior{{}, agent.FalseClaimant}
	for _, tc := range []struct {
		name      string
		behaviors []agent.Behavior
		faults    *bus.FaultPlan
	}{
		{"allocating-verdict", claimant, &bus.FaultPlan{Seed: 5, Unresponsive: []string{"P3"}}},
		{"own-crash", nil, &bus.FaultPlan{Seed: 5, Unresponsive: []string{"P3"}, Crashes: []bus.Crash{{Proc: "P3"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sessionBase(t, w...)
			if _, err := s.Run(JobConfig{Seed: 1, NBlocks: 64}); err != nil {
				t.Fatal(err)
			}
			job := JobConfig{Seed: 2, NBlocks: 64, Behaviors: tc.behaviors, Faults: tc.faults}
			out, err := s.Run(job)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Behaviors: tc.behaviors,
				Seed: 2, NBlocks: 64, Faults: tc.faults})
			if err != nil {
				t.Fatal(err)
			}
			if out.BidReused || len(out.Evictions) != 1 || out.Evictions[0].Proc != "P3" ||
				out.Evictions[0].Phase != obs.PhaseBidding {
				t.Fatalf("BidReused=%v evictions=%+v, want a full exchange that evicts P3 in Bidding",
					out.BidReused, out.Evictions)
			}
			if got, want := econOf(out), econOf(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("dark-member round diverges from a standalone run\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
