package session

import (
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

func pool() *Session {
	return &Session{
		Network: dlt.NCPFE,
		TrueW:   []float64{1, 1.5, 2, 2.5},
		Fine:    20,
		Policy:  BanDeviants,
	}
}

func honestJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Z: 0.2, Seed: int64(i + 1)}
	}
	return jobs
}

func TestValidation(t *testing.T) {
	if _, err := (&Session{Network: dlt.NCPFE, TrueW: []float64{1}}).Run(honestJobs(1)); err == nil {
		t.Error("single processor accepted")
	}
	if _, err := pool().Run(nil); err == nil {
		t.Error("empty job list accepted")
	}
	cp := pool()
	cp.Network = dlt.CP
	if _, err := cp.Run(honestJobs(1)); err == nil {
		t.Error("CP network accepted")
	}
}

func TestHonestSessionAccumulates(t *testing.T) {
	rep, err := pool().Run(honestJobs(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 3 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	for i := range rep.CumulativeUtility {
		var sum float64
		for _, r := range rep.Rounds {
			sum += r.Utilities[i]
		}
		if rep.CumulativeUtility[i] != sum {
			t.Errorf("cumulative[%d] = %v, rounds sum %v", i, rep.CumulativeUtility[i], sum)
		}
		if rep.CumulativeUtility[i] <= 0 {
			t.Errorf("honest processor %d earned %v over 3 jobs", i, rep.CumulativeUtility[i])
		}
		if rep.Banned[i] || rep.BannedAfter[i] != -1 {
			t.Errorf("honest processor %d banned", i)
		}
	}
}

func TestDeviantBannedAndForfeitsFuture(t *testing.T) {
	jobs := honestJobs(4)
	// P2 cheats on its payment vector in round 1 (index 0 of jobs).
	jobs[1].Behaviors = []agent.Behavior{{}, agent.PaymentCheat}
	rep, err := pool().Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Banned[1] || rep.BannedAfter[1] != 1 {
		t.Fatalf("cheat not banned after round 1: banned=%v after=%d", rep.Banned[1], rep.BannedAfter[1])
	}
	// Rounds 2 and 3 run without P2.
	for r := 2; r < 4; r++ {
		if rep.Rounds[r].Participated[1] {
			t.Errorf("round %d: banned P2 participated", r)
		}
		if rep.Rounds[r].Utilities[1] != 0 {
			t.Errorf("round %d: banned P2 earned %v", r, rep.Rounds[r].Utilities[1])
		}
		if !rep.Rounds[r].Completed {
			t.Errorf("round %d did not complete without P2", r)
		}
	}
	// The long-run cost of the single deviation: the fine plus every
	// forfeited future bonus. Compare with an all-honest session.
	honest, err := pool().Run(honestJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	loss := honest.CumulativeUtility[1] - rep.CumulativeUtility[1]
	if loss <= 20 {
		t.Errorf("repeated-play loss %v not above the one-shot fine 20", loss)
	}
}

func TestForgivePolicyKeepsDeviants(t *testing.T) {
	s := pool()
	s.Policy = Forgive
	jobs := honestJobs(3)
	jobs[0].Behaviors = []agent.Behavior{{}, agent.PaymentCheat}
	rep, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Banned[1] {
		t.Error("forgive policy banned someone")
	}
	for r := 1; r < 3; r++ {
		if !rep.Rounds[r].Participated[1] {
			t.Errorf("round %d: forgiven P2 excluded", r)
		}
	}
}

func TestBanningOriginatorHalts(t *testing.T) {
	jobs := honestJobs(2)
	// The NCP-FE originator (P1) over-ships in round 0 and gets fined.
	jobs[0].Behaviors = []agent.Behavior{agent.OverShipper}
	if _, err := pool().Run(jobs); err == nil {
		t.Error("session continued after banning the load originator")
	}
}

func TestPolicyString(t *testing.T) {
	if Forgive.String() != "forgive" || BanDeviants.String() != "ban-deviants" {
		t.Error("policy names wrong")
	}
}

// TestMultiloadSessionReusesBids: a pool bids once and serves later
// rounds from the cache; every round's economics match a fresh
// protocol.Run of that job exactly, the traffic accounting shows the
// saved Θ(m²) exchanges, a ban flips the bid profile so the session
// re-bids on its own, and a job at a new z is served from the same cached
// bids.
func TestMultiloadSessionReusesBids(t *testing.T) {
	ml := pool()
	st, err := ml.NewState()
	if err != nil {
		t.Fatal(err)
	}
	m := len(ml.TrueW)
	// fresh is a standalone run of the job with the pool's bans applied.
	fresh := func(job Job) *protocol.Outcome {
		t.Helper()
		behaviors := make([]agent.Behavior, m)
		copy(behaviors, job.Behaviors)
		for i, banned := range st.Banned {
			if banned {
				behaviors[i] = agent.Behavior{Name: "banned", Abstain: true}
			}
		}
		out, err := protocol.Run(protocol.Config{Network: ml.Network, Z: job.Z, TrueW: ml.TrueW,
			Fine: ml.Fine, Behaviors: behaviors, Seed: job.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	step := func(job Job) *protocol.Outcome {
		t.Helper()
		want := fresh(job)
		out, err := ml.Step(st, job)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			if out.Payments[i] != want.Payments[i] || out.Fines[i] != want.Fines[i] || out.Utilities[i] != want.Utilities[i] {
				t.Fatalf("round %d: economics diverge from a fresh protocol.Run", st.Round-1)
			}
		}
		return out
	}
	for r, job := range honestJobs(4) {
		if out := step(job); out.BidReused != (r > 0) {
			t.Fatalf("round %d: BidReused=%v, want %v", r, out.BidReused, r > 0)
		}
	}
	if st.Traffic.DeliveriesSaved != 3*m*m {
		t.Fatalf("DeliveriesSaved = %d, want 3·m² = %d", st.Traffic.DeliveriesSaved, 3*m*m)
	}
	if bs := st.BidStats(); bs.Rounds != 4 || bs.Rebids != 1 || bs.RoundsSinceRebid != 3 {
		t.Fatalf("BidStats = %+v, want 4 rounds, 1 rebid, 3 since", bs)
	}

	// A ban (P2 cheats) changes the profile: the next round re-bids
	// without P2, and the one after reuses the post-ban bids.
	if out := step(Job{Z: 0.2, Seed: 50, Behaviors: []agent.Behavior{{}, agent.PaymentCheat}}); !out.BidReused {
		t.Fatal("payment-only cheat should not force a rebid")
	}
	if !st.Banned[1] {
		t.Fatal("cheat not banned")
	}
	if out := step(Job{Z: 0.2, Seed: 51}); out.BidReused || out.Participated[1] {
		t.Fatalf("post-ban round: BidReused=%v Participated[1]=%v, want fresh bidding without P2",
			out.BidReused, out.Participated[1])
	}
	if out := step(Job{Z: 0.2, Seed: 52}); !out.BidReused || out.Participated[1] {
		t.Fatal("post-ban steady state should reuse the survivor bids")
	}

	// Bids are per-unit processing times, so a job at another z is served
	// from the same cache; the founding z only salts the round IDs.
	before := st.BidStats()
	if out := step(Job{Z: 0.3, Seed: 53}); !out.BidReused {
		t.Fatal("a job at a new z re-bid")
	}
	if bs := st.BidStats(); bs.Rebids != before.Rebids || bs.BidEpoch != before.BidEpoch {
		t.Fatalf("a new z moved the bid epoch: %+v, was %+v", bs, before)
	}
}

// TestMultiloadRunAggregates: the whole-slice Run entry point serves its
// jobs from the bid cache too, bans included.
func TestMultiloadRunAggregates(t *testing.T) {
	s := pool()
	jobs := honestJobs(4)
	jobs[1].Behaviors = []agent.Behavior{{}, agent.PaymentCheat}
	rep, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Banned[1] || rep.BannedAfter[1] != 1 {
		t.Fatalf("cheat not banned: %v after %d", rep.Banned[1], rep.BannedAfter[1])
	}
	for r := 2; r < 4; r++ {
		if rep.Rounds[r].Participated[1] || !rep.Rounds[r].Completed {
			t.Fatalf("round %d wrong without banned P2", r)
		}
	}
	if !rep.Rounds[1].BidReused || rep.Rounds[2].BidReused || !rep.Rounds[3].BidReused {
		t.Fatalf("reuse pattern = [%v %v %v %v], want [false true false true]",
			rep.Rounds[0].BidReused, rep.Rounds[1].BidReused, rep.Rounds[2].BidReused, rep.Rounds[3].BidReused)
	}
}
