package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// TestHotPathParityProperty is the fast-path soundness property: for
// random pools, random per-job behaviors (bid-space deviants, slack
// execution, payment cheats — and occasionally deviants whose verdict
// ends the round in Bidding or in Allocating), a bus rate z drawn per
// job, random fault plans, random mid-stream changes of one member's bid
// factor, members that sit one job out and return the job after, random
// crashes during Processing and, in about one job in five, a member that
// does not answer at all, a session on the hot path (cached bids, incremental
// re-bid splices, one verified-envelope memo across rounds) settles
// every job exactly as a standalone Run of that job on a fresh keyring —
// no bid cache, no shared memo. The economics and the block assignments
// must match on every job; the fast path changes which work is *re*-done,
// never what is accepted or paid, and the session must fail exactly when
// the standalone run does. Every eviction, in Bidding or later, removes
// its member from that job only, so the histories stay comparable to the
// end. A full run of the property must reach at least one leave splice
// and the return after it.
func TestHotPathParityProperty(t *testing.T) {
	const iterations = 100
	var reached parityReach
	t.Cleanup(func() {
		if reached.pools.Load() == iterations && (reached.leaves.Load() == 0 || reached.returns.Load() == 0) {
			t.Errorf("%d leave splices and %d returns after one in %d pools; the abstention arm missed its path",
				reached.leaves.Load(), reached.returns.Load(), iterations)
		}
	})
	for it := 0; it < iterations; it++ {
		it := it
		t.Run(fmt.Sprintf("pool%02d", it), func(t *testing.T) {
			t.Parallel()
			hotPathParityPool(t, int64(9000+it), &reached)
		})
	}
}

// parityReach counts, across the pools of TestHotPathParityProperty, the
// pools that ran to the end, the jobs served by a splice while a member
// abstained, and that member's returns the job after.
type parityReach struct {
	pools, leaves, returns atomic.Int64
}

// hotPathParityPool runs one random pool of TestHotPathParityProperty.
func hotPathParityPool(t *testing.T, seed int64, reached *parityReach) {
	const jobsPerPool = 5
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(5)
	w := make([]float64, m)
	for i := range w {
		w[i] = 0.5 + 4*rng.Float64()
	}
	network := dlt.NCPFE
	if rng.Intn(2) == 1 {
		network = dlt.NCPNFE
	}
	drawZ := func() float64 { return 0.05 + rng.Float64()/2 }

	hot, err := NewBidSession(Config{Network: network, Z: drawZ(), TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	// victim picks a participant of the job that is not the load
	// originator, as long as at least two such members exist; a fault
	// plan may not name a member that abstains.
	victim := func(bs []agent.Behavior) (string, bool) {
		var ids []string
		for i := range w {
			if i != network.Originator(m) && !bs[i].Abstain {
				ids = append(ids, fmt.Sprintf("P%d", i+1))
			}
		}
		if len(ids) < 2 {
			return "", false
		}
		return ids[rng.Intn(len(ids))], true
	}

	behaviors := make([]agent.Behavior, m)
	// Allocating-phase claimants whose verdict ends the round before
	// the meters broadcast.
	terminators := []agent.Behavior{agent.FalseClaimant, agent.ExcessClaimer, agent.VectorTamper}
	roll := func() {
		for i := range behaviors {
			switch rng.Intn(10) {
			case 0:
				behaviors[i] = agent.OverBid
			case 1:
				behaviors[i] = agent.UnderBid
			case 2:
				behaviors[i] = agent.SlowExecution
			case 3:
				behaviors[i] = agent.PaymentCheat
			case 4:
				behaviors[i] = agent.Equivocator
			case 5:
				behaviors[i] = terminators[rng.Intn(len(terminators))]
			default:
				behaviors[i] = agent.Behavior{}
			}
		}
	}
	roll()

	// returning is the member that abstained in the previous job, when
	// a splice served that job, and -1 otherwise.
	returning := -1
	for j := 0; j < jobsPerPool; j++ {
		// Occasionally mutate the stream the way a live pool does:
		// new behaviors (forces a full rebid in the session), one
		// member's new bid factor (the rate splice), or, with three
		// members or more, one non-originator member sitting this job
		// out (the leave splice) and returning the job after.
		abstainer := -1
		switch rng.Intn(5) {
		case 0:
			roll()
		case 1:
			behaviors[rng.Intn(m)].BidFactor = 0.5 + rng.Float64()
		case 2:
			if m >= 3 {
				abstainer = (network.Originator(m) + 1 + rng.Intn(m-1)) % m
			}
		}
		z := drawZ()
		hot.SetZ(z)
		job := JobConfig{
			Seed:      rng.Int63n(1 << 30),
			NBlocks:   32 * m,
			Behaviors: append([]agent.Behavior(nil), behaviors...),
		}
		if abstainer >= 0 {
			job.Behaviors[abstainer] = agent.Behavior{Name: "abstain", Abstain: true}
		}
		if rng.Intn(4) > 0 {
			job.Faults = &bus.FaultPlan{
				Seed:      rng.Int63n(1 << 30),
				Drop:      rng.Float64() * 0.15,
				Duplicate: rng.Float64() * 0.2,
				Delay:     rng.Float64() * 0.3,
				Reorder:   rng.Float64() * 0.2,
				Corrupt:   rng.Float64() * 0.05,
			}
		}
		if rng.Intn(3) == 0 {
			// Crash a member during Processing.
			if id, ok := victim(job.Behaviors); ok {
				if job.Faults == nil {
					job.Faults = &bus.FaultPlan{Seed: rng.Int63n(1 << 30)}
				}
				job.Faults.Crashes = []bus.Crash{{Proc: id}}
			}
		}
		if rng.Intn(5) == 0 {
			// A member that answers nothing, at times the one that also
			// crashes: a full exchange evicts it during Bidding, so a
			// cached round must fall back to that exchange rather than
			// settle with it seated (DESIGN §10).
			if id, ok := victim(job.Behaviors); ok {
				if job.Faults == nil {
					job.Faults = &bus.FaultPlan{Seed: rng.Int63n(1 << 30)}
				}
				job.Faults.Unresponsive = []string{id}
			}
		}

		hotOut, hotErr := hot.Run(job)
		plainOut, plainErr := Run(Config{
			Network: network, Z: z, TrueW: w,
			Behaviors: job.Behaviors, Seed: job.Seed, NBlocks: job.NBlocks,
			Faults: job.Faults, Keys: sig.NewKeyring(),
		})
		if (hotErr == nil) != (plainErr == nil) {
			t.Fatalf("job %d: session err %v, standalone err %v", j, hotErr, plainErr)
		}
		back := returning
		returning = -1
		if hotErr != nil {
			continue
		}
		if back >= 0 && !job.Behaviors[back].Abstain {
			// The splice left the returning member out of the cache, and
			// it holds none of the cached bids: it bids in a full exchange.
			if roundKind(hotOut) != "full" {
				t.Fatalf("job %d: P%d returned in a %s round, want a full exchange", j, back+1, roundKind(hotOut))
			}
			reached.returns.Add(1)
		}
		if abstainer >= 0 && hotOut.BidSpliced {
			reached.leaves.Add(1)
			returning = abstainer
		}
		if got, want := econOf(hotOut), econOf(plainOut); !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: session outcome diverges from standalone run\n got %+v\nwant %+v", j, got, want)
		}
		if !reflect.DeepEqual(hotOut.Assignments, plainOut.Assignments) {
			t.Fatalf("job %d: session block assignments diverge from standalone run", j)
		}
	}
	reached.pools.Add(1)
}

// econView extracts the economic payload of an outcome for comparison
// against an independent protocol.Run (which has no session fields like
// RoundID or BidSpliced).
type econView struct {
	Bids, Exec, Phi, Payments, Fines, Rewards, Utilities, WorkCost []float64
	Alloc                                                          dlt.Allocation
	UserCost, Makespan, Fine                                       float64
	Completed                                                      bool
}

func econOf(o *Outcome) econView {
	return econView{
		Bids: o.Bids, Exec: o.Exec, Phi: o.Phi, Payments: o.Payments,
		Fines: o.Fines, Rewards: o.Rewards, Utilities: o.Utilities,
		WorkCost: o.WorkCost, Alloc: o.Alloc, UserCost: o.UserCost,
		Makespan: o.Makespan, Fine: o.FineMagnitude, Completed: o.Completed,
	}
}

// runSpliceRound runs one session job under a recorder and asserts it was
// served by the incremental re-bid path: BidSpliced set, BidReused clear,
// a bid-splice transcript entry, and the bid_spliced obs event.
func runSpliceRound(t *testing.T, s *BidSession, job JobConfig) *Outcome {
	t.Helper()
	rec := obs.NewRecorder()
	job.Tracer = rec
	out, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if !out.BidSpliced || out.BidReused {
		t.Fatalf("BidSpliced=%v BidReused=%v, want spliced round", out.BidSpliced, out.BidReused)
	}
	found := false
	for _, e := range out.Transcript {
		if e.Action == "bid-splice" {
			found = true
		}
	}
	if !found {
		t.Error("spliced round left no bid-splice transcript entry")
	}
	found = false
	for _, r := range rec.Records() {
		if r.Name == obs.EvBidSpliced {
			found = true
		}
	}
	if !found {
		t.Error("spliced round emitted no bid_spliced obs event")
	}
	return out
}

// TestIncrementalRebidRateChange: a single member bidding a new value
// (a changed bid factor) triggers a splice round — only that member
// re-broadcasts (Θ(m) deliveries instead of Θ(m²)) — whose economics are
// bit-identical to a fresh protocol.Run with the same behaviors; the pool
// then settles back into reuse of the spliced cache.
func TestIncrementalRebidRateChange(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5, 3, 3.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 7, NBlocks: 96}

	full, err := s.Run(job) // round 1: full exchange
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(job); err != nil { // round 2: reuse
		t.Fatal(err)
	}
	job.Behaviors = []agent.Behavior{{}, {}, agent.UnderBid}
	spliced := runSpliceRound(t, s, job) // round 3: splice

	independent, err := Run(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Behaviors: job.Behaviors, Seed: 7, NBlocks: 96})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := econOf(spliced), econOf(independent); !reflect.DeepEqual(got, want) {
		t.Fatalf("spliced round economics diverge from independent run\n got %+v\nwant %+v", got, want)
	}

	// The splice re-broadcast is Θ(m): the full exchange's round put m
	// bid broadcasts on the bus, the splice round exactly one.
	if spliced.BusStats.Deliveries >= full.BusStats.Deliveries {
		t.Errorf("splice round cost %d deliveries, full exchange %d; want fewer",
			spliced.BusStats.Deliveries, full.BusStats.Deliveries)
	}

	out4, err := s.Run(job) // round 4: reuse of the spliced cache
	if err != nil {
		t.Fatal(err)
	}
	if !out4.BidReused || out4.BidSpliced {
		t.Fatalf("round after splice: BidReused=%v BidSpliced=%v, want pure reuse", out4.BidReused, out4.BidSpliced)
	}
	st := s.Stats()
	if st.Rebids != 1 || st.IncrementalRebids != 1 || st.RoundsSinceRebid != 1 {
		t.Fatalf("stats = %+v, want 1 rebid, 1 incremental, 1 since", st)
	}
}

// TestIncrementalRebidLeave: a member that abstains costs no bid traffic
// at all — the others' cached envelopes are re-verified and spliced, and
// the economics match a fresh run where the member abstains. Its return
// the job after runs the full exchange.
func TestIncrementalRebidLeave(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 13, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	leave := job
	leave.Behaviors = []agent.Behavior{{}, {}, {Name: "abstain", Abstain: true}}
	spliced := runSpliceRound(t, s, leave)

	independent, err := Run(Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 13, NBlocks: 64,
		Behaviors: leave.Behaviors,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := econOf(spliced), econOf(independent); !reflect.DeepEqual(got, want) {
		t.Fatalf("leave-splice economics diverge from independent run\n got %+v\nwant %+v", got, want)
	}
	back, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if roundKind(back) != "full" || !back.Participated[2] {
		t.Fatalf("return: a %s round, P3 participated=%v; want a full exchange with P3", roundKind(back), back.Participated[2])
	}
}

// TestSpliceFallsBackToFullRebid pins the splice preconditions: a
// two-member delta and a deviant profile are both unspliceable, so the
// session runs the full exchange — correctness never depends on the fast
// path applying.
func TestSpliceFallsBackToFullRebid(t *testing.T) {
	w := []float64{1, 1.5, 2, 2.5}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 17, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}

	// Two bids change at once: not a single-member delta.
	job.Behaviors = []agent.Behavior{{}, agent.OverBid, agent.UnderBid}
	out, err := s.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidSpliced || out.BidReused {
		t.Fatalf("two-member delta: BidSpliced=%v BidReused=%v, want full rebid", out.BidSpliced, out.BidReused)
	}

	// The changed member bids anew and equivocates: the new profile has
	// a bidding-phase deviant, which is never spliceable (and terminates
	// the round).
	deviant := JobConfig{Seed: 19, NBlocks: 64,
		Behaviors: []agent.Behavior{{}, {Name: "equivocator", BidFactor: 1.2, Equivocate: true}, agent.UnderBid}}
	out, err = s.Run(deviant)
	if err != nil {
		t.Fatal(err)
	}
	if out.BidSpliced {
		t.Fatal("deviant profile ran the splice path")
	}
	if out.Completed {
		t.Fatal("equivocation round completed; expected a terminating verdict")
	}
	if st := s.Stats(); st.IncrementalRebids != 0 {
		t.Fatalf("stats = %+v, want no incremental rebids", st)
	}
}

// TestSessionMemoCollapsesVerification pins where the session's shared
// memo absorbs verification. Every bid and payment vector is verified by
// the worker that seals it and memoized there, so each of its delivered
// copies is a memo hit. The referee's meters are sealed alone with
// sig.SealBinary, so a fresh round verifies that envelope in full once:
// one miss. The meters carry no round stamp, so every later round seals
// byte-identical meters and hits, and a reuse round never misses. (Sealing
// them through SealEach as well would verify the same envelope in full
// every round.) At m = 4 a fresh round makes 12 hits and 1 miss, a reuse
// round 13 hits.
func TestSessionMemoCollapsesVerification(t *testing.T) {
	memo := sig.NewVerifyMemo()
	s, err := NewBidSession(Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5},
		Memo: memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 23, NBlocks: 64}
	var last sig.MemoStats
	for round := 1; round <= 3; round++ {
		if _, err := s.Run(job); err != nil {
			t.Fatal(err)
		}
		st := memo.Stats()
		hits, misses := st.Hits-last.Hits, st.Misses-last.Misses
		last = st
		wantMisses := int64(0)
		if round == 1 {
			wantMisses = 1 // the meters envelope
		}
		if misses != wantMisses || hits == 0 {
			t.Fatalf("round %d: %d memo hits and %d misses, want some hits and %d misses",
				round, hits, misses, wantMisses)
		}
	}
}

// warmReuseSession returns an m=16 session whose first round has warmed
// the keyring, the bid cache and the verify memo, and the job whose next
// rounds it serves as reuse rounds.
func warmReuseSession(tb testing.TB) (*BidSession, JobConfig) {
	tb.Helper()
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1 + float64(i)/4
	}
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w})
	if err != nil {
		tb.Fatal(err)
	}
	job := JobConfig{Seed: 1}
	for i := 0; i < 2; i++ {
		if _, err := s.Run(job); err != nil {
			tb.Fatal(err)
		}
	}
	return s, job
}

// TestReuseRoundAllocs guards the service's steady state: a warm m=16
// reuse round allocates what its signed messages and outcome need and
// nothing sized by the load (a per-round synthetic data set once cost
// ~4.7k allocations here). It measures at GOMAXPROCS 1, the inline crypto
// path. The round takes about 260 allocations and 17 KiB: the session
// keeps the names, keys, registry, batch verifier (with its scratch),
// bus, transport tables, ledger, payment engine and referee from round to
// round, seals the payment vectors over the previous round's envelopes
// from requests and payloads it keeps, installs the cached bid set into
// slices it keeps, honest processors seal the engine's payment vector
// without copying it, and the fines are summed over the ledger without
// copying its history. Building the requests, payloads, envelopes,
// verifier scratch and bid set afresh every round took about 324
// allocations and 29 KiB, copying the vectors and the ledger history as
// well about 341 allocations, building the round state afresh every round
// about 739, and marshalling each audit entry into a fresh slice,
// regrowing the audit log and growing every signed payload from empty
// about 881. The race runtime drops pooled buffers at random, which
// costs about 150 more allocations; the byte count is read without it.
// The bytes are read with the collector off, over the rounds after the
// allocation count's: the session's verify memo map grows in bursts, so
// a later window of the same session can read a few KiB more.
func TestReuseRoundAllocs(t *testing.T) {
	max := 290.0
	if raceEnabled() {
		max = 460
	}
	s, job := warmReuseSession(t)
	round := func() {
		out, err := s.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if !out.BidReused || !out.Completed {
			t.Fatal("round was not a completed reuse round")
		}
	}
	n := testing.AllocsPerRun(20, round)
	if n > max {
		t.Errorf("warm m=16 reuse round: %v allocs, want <= %v", n, max)
	}
	t.Logf("warm m=16 reuse round: %v allocs", n)
	if raceEnabled() {
		return
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxBytes = 20 << 10
	if got := allocBytesPerRun(20, round); got > maxBytes {
		t.Errorf("warm m=16 reuse round: %d B allocated, want <= %d B", got, maxBytes)
	} else {
		t.Logf("warm m=16 reuse round: %d B allocated", got)
	}
}

// BenchmarkReuseRound times a warm m=16 reuse round; run it at -cpu 1
// for the inline crypto path and at the host's core count for the
// fan-out.
func BenchmarkReuseRound(b *testing.B) {
	s, job := warmReuseSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(job); err != nil {
			b.Fatal(err)
		}
	}
}
