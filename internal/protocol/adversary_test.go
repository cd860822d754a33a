package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
)

// Byzantine adversary tiers, end to end. Every adversary in this file is
// a deterministic, seeded model from internal/adversarytest, so each
// test pins one concrete attack and the exact defensive outcome:
// targeted message faults (tier 1) heal by bid relay or evict only under
// ≥⌈m/2⌉ corroboration, framing (tier 2) convicts the framer and never
// the rival, crashes (tier 3) re-allocate over the survivors, and the
// standby referee adjudicates a round whose primary died mid-flight.

func recordKinds(rec *obs.Recorder, kind string) []obs.Record {
	var out []obs.Record
	for _, r := range rec.Records() {
		if r.Type == "event" && r.Name == kind {
			out = append(out, r)
		}
	}
	return out
}

// assertHonestUnfined requires a zero fine for every processor except
// the listed deviants: no adversary may get an honest processor fined.
func assertHonestUnfined(t *testing.T, out *Outcome, deviants ...int) {
	t.Helper()
	for i, fine := range out.Fines {
		if fine != 0 && !slices.Contains(deviants, i) {
			t.Errorf("honest P%d fined %v", i+1, fine)
		}
	}
}

// TestTargetedFaultPaymentsParity is the satellite-1 property: across
// randomized per-pair attack plans and randomized deviant behaviors, any
// run the targeted plan does NOT manage to evict from settles bit-
// identically to the same configuration on a clean bus — the witness
// mediation and relay machinery is economically invisible. Runs where
// the plan does align enough witnesses must still complete, and may only
// evict for corroborated or wholesale unreachability.
func TestTargetedFaultPaymentsParity(t *testing.T) {
	behaviors := []agent.Behavior{
		agent.Honest, agent.OverBid, agent.UnderBid, agent.SlowExecution, agent.Framer,
	}
	rng := rand.New(rand.NewSource(90210))
	const m = 4
	var parityRuns, evictRuns int
	for iter := 0; iter < 12; iter++ {
		seed := rng.Int63()
		deviant := rng.Intn(m)
		b := behaviors[rng.Intn(len(behaviors))]
		plan := adversarytest.RandomPairs(seed, m, 1+rng.Intn(3), 1)
		t.Run(fmt.Sprintf("iter%d_%s_P%d", iter, b.Name, deviant+1), func(t *testing.T) {
			cfg := withBehavior(honestConfig(dlt.NCPFE), deviant, b)
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = plan
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertHonestUnfined(t, got, deviant)
			if len(got.Evictions) > 0 {
				evictRuns++
				if !got.Completed {
					t.Fatalf("run under plan %+v terminated in %s", plan.Pairs, got.TerminatedIn)
				}
				for _, ev := range got.Evictions {
					if !strings.Contains(ev.Reason, "corroborate") &&
						!strings.Contains(ev.Reason, "within the retry budget") {
						t.Errorf("eviction of %s without corroboration or wholesale failure: %q",
							ev.Proc, ev.Reason)
					}
				}
				return
			}
			parityRuns++
			if got.Completed != want.Completed || got.TerminatedIn != want.TerminatedIn {
				t.Fatalf("completion diverges: faulty (%v, %q) vs clean (%v, %q)",
					got.Completed, got.TerminatedIn, want.Completed, want.TerminatedIn)
			}
			for _, cmp := range []struct {
				name       string
				got, wantV []float64
			}{
				{"payments", got.Payments, want.Payments},
				{"fines", got.Fines, want.Fines},
				{"utilities", got.Utilities, want.Utilities},
			} {
				if !reflect.DeepEqual(cmp.got, cmp.wantV) {
					t.Errorf("%s diverge under a non-evicting plan: %v vs %v",
						cmp.name, cmp.got, cmp.wantV)
				}
			}
			if got.UserCost != want.UserCost {
				t.Errorf("user cost %v under faults, %v clean", got.UserCost, want.UserCost)
			}
		})
	}
	if parityRuns == 0 || evictRuns == 0 {
		t.Fatalf("property vacuous: %d parity runs, %d evicting runs — retune seeds",
			parityRuns, evictRuns)
	}
}

// TestCorroboratedEvictionThreshold pins the tier-1 eviction rule at the
// boundary: blackholing a sender's bid to exactly ⌈m/2⌉ receivers evicts
// it (that many distinct witnesses cannot be manufactured), while one
// receiver fewer stays below threshold — the referee relays the bid, the
// round heals, and the economics match the clean run bit-for-bit.
func TestCorroboratedEvictionThreshold(t *testing.T) {
	const m = 4
	if thresh := referee.CorroborationThreshold(m); thresh != 2 {
		t.Fatalf("threshold for m=4 is %d, the cases below assume 2", thresh)
	}

	t.Run("at-threshold-evicts", func(t *testing.T) {
		rec := obs.NewRecorder()
		cfg := honestConfig(dlt.NCPFE)
		cfg.Tracer = rec
		cfg.Faults = adversarytest.Blackhole(1, "P3",
			"P1", "P2") // thresh receivers miss P3's bid
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed {
			t.Fatalf("survivors did not complete: terminated in %s", out.TerminatedIn)
		}
		assertHonestUnfined(t, out)
		if len(out.Evictions) != 1 || out.Evictions[0].Proc != "P3" {
			t.Fatalf("evictions = %+v, want exactly P3", out.Evictions)
		}
		if !strings.Contains(out.Evictions[0].Reason, "corroborate") {
			t.Errorf("eviction reason %q does not cite corroboration", out.Evictions[0].Reason)
		}
		if !out.Evicted[2] || out.Payments[2] != 0 {
			t.Errorf("evicted P3 still paid: evicted=%v payment=%v", out.Evicted[2], out.Payments[2])
		}
		for _, i := range []int{0, 1, 3} {
			if out.Payments[i] <= 0 {
				t.Errorf("survivor P%d unpaid: %v", i+1, out.Payments[i])
			}
		}
		// Corroborated evictions never reach the relay loop, so the tally
		// emits one witness_report per corroborating witness (exactly the
		// threshold here) — and no framer-style conviction either.
		if got := len(recordKinds(rec, obs.EvWitnessReport)); got != 2 {
			t.Errorf("%d witness_report events, want threshold 2", got)
		}
		if got := len(recordKinds(rec, obs.EvFramingConviction)); got != 0 {
			t.Errorf("%d framing_conviction events on a genuine outage", got)
		}
		if err := referee.VerifyEntries(out.Transcript); err != nil {
			t.Fatalf("transcript after eviction does not verify: %v", err)
		}
	})

	t.Run("below-threshold-heals", func(t *testing.T) {
		want := faultFreeReference(t, dlt.NCPFE)
		rec := obs.NewRecorder()
		cfg := honestConfig(dlt.NCPFE)
		cfg.Tracer = rec
		cfg.Faults = adversarytest.Blackhole(1, "P3", "P1") // one witness short
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed || len(out.Evictions) != 0 {
			t.Fatalf("lone witness must heal by relay, got evictions %+v", out.Evictions)
		}
		assertSamePayments(t, out, want)
		assertHonestUnfined(t, out)
		if got := len(recordKinds(rec, obs.EvWitnessReport)); got != 1 {
			t.Errorf("%d witness_report events, want 1", got)
		}
		if got := len(recordKinds(rec, obs.EvFramingConviction)); got != 0 {
			t.Errorf("honest witness convicted: %d framing_conviction events", got)
		}
	})

	t.Run("isolated-pair-heals", func(t *testing.T) {
		want := faultFreeReference(t, dlt.NCPFE)
		cfg := honestConfig(dlt.NCPFE)
		cfg.Faults = adversarytest.IsolatePair(3, "P1", "P4")
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed || len(out.Evictions) != 0 {
			t.Fatalf("pair partition must heal by relay, got evictions %+v", out.Evictions)
		}
		assertSamePayments(t, out, want)
		assertHonestUnfined(t, out)
	})
}

// TestFramingSuite is the satellite-3 regression suite: for every pool
// size m ∈ {3..16}, a strategic processor that fabricates an
// unreachability report against its rival never gets the rival evicted
// (one witness is always below ⌈m/2⌉), is always convicted when it
// maintains the claim against the referee's verified relay, and the
// conviction never terminates the round.
func TestFramingSuite(t *testing.T) {
	for m := 3; m <= 16; m++ {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			attacker := m / 2 // vary the seat with the pool size
			rival := adversarytest.FramingRival(m, attacker)
			w := make([]float64, m)
			for i := range w {
				w[i] = 1 + 0.5*float64(i)
			}
			rec := obs.NewRecorder()
			cfg := Config{
				Network:   dlt.NCPFE,
				Z:         0.2,
				TrueW:     w,
				Seed:      int64(1000 + m),
				Behaviors: adversarytest.Framing(m, attacker),
				Tracer:    rec,
			}
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed {
				t.Fatalf("framing terminated the round in %s", out.TerminatedIn)
			}
			if len(out.Evictions) != 0 {
				t.Fatalf("framing caused evictions: %+v", out.Evictions)
			}
			if out.Evicted[rival] {
				t.Fatalf("rival P%d evicted on a single fabricated report", rival+1)
			}
			if out.Fines[attacker] <= 0 {
				t.Errorf("framer P%d not fined: %v", attacker+1, out.Fines[attacker])
			}
			assertHonestUnfined(t, out, attacker)
			convictions := recordKinds(rec, obs.EvFramingConviction)
			if len(convictions) != 1 {
				t.Fatalf("%d framing_conviction events, want 1", len(convictions))
			}
			if convictions[0].From != adversarytest.ProcID(attacker) {
				t.Errorf("conviction names %s, want %s",
					convictions[0].From, adversarytest.ProcID(attacker))
			}
			if err := referee.VerifyEntries(out.Transcript); err != nil {
				t.Fatalf("transcript does not verify: %v", err)
			}
		})
	}
}

// TestFramerBesideEviction: a framer's relay task is adjudicated after
// an unresponsive member's eviction has shifted the participant indices.
// The referee must still hold the framer's own report as evidence: the
// framer is convicted, no one else is fined and the sentinel stays
// clear. The framers sit after the evicted member, one of them last, so
// a lookup by pre-eviction index would credit the successor or run past
// the survivors.
func TestFramerBesideEviction(t *testing.T) {
	const m, dead = 5, 1
	for _, attacker := range []int{3, m - 1} {
		t.Run(fmt.Sprintf("framer=P%d", attacker+1), func(t *testing.T) {
			w := make([]float64, m)
			for i := range w {
				w[i] = 1 + 0.5*float64(i)
			}
			rec := obs.NewRecorder()
			s := obs.NewSentinel()
			cfg := Config{
				Network:   dlt.NCPFE,
				Z:         0.2,
				TrueW:     w,
				Seed:      31,
				Behaviors: adversarytest.Framing(m, attacker),
				Faults:    &bus.FaultPlan{Seed: 5, Unresponsive: []string{adversarytest.ProcID(dead)}},
				Tracer:    obs.Multi(rec, s),
			}
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed || !out.Evicted[dead] {
				t.Fatalf("completed %v, evicted %v: want a completed round without P%d", out.Completed, out.Evicted, dead+1)
			}
			if out.Fines[attacker] <= 0 {
				t.Errorf("framer P%d not fined: %v", attacker+1, out.Fines)
			}
			assertHonestUnfined(t, out, attacker)
			for _, e := range recordKinds(rec, obs.EvEvidence) {
				if e.Msg == referee.KindWitnessReport && e.From != adversarytest.ProcID(attacker) {
					t.Errorf("witness report evidence credited to %s, want %s", e.From, adversarytest.ProcID(attacker))
				}
			}
			if !s.Ok() {
				t.Errorf("sentinel latched: %q", s.Violations())
			}
		})
	}
}

// TestRefereeFailover kills the primary referee at the start of each
// later phase and promotes the replicated standby. The promoted referee
// must finish the round with verdicts, payments and user cost
// bit-identical to the uninterrupted run; the transcript differs by
// exactly the audited failover entry and still verifies.
func TestRefereeFailover(t *testing.T) {
	want := faultFreeReference(t, dlt.NCPFE)
	for _, phase := range []string{obs.PhaseAllocating, obs.PhaseProcessing, obs.PhasePayments} {
		t.Run(phase, func(t *testing.T) {
			rec := obs.NewRecorder()
			cfg := honestConfig(dlt.NCPFE)
			cfg.Standby = true
			cfg.FailoverIn = phase
			cfg.Tracer = rec
			out, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed {
				t.Fatalf("failed-over run terminated in %s", out.TerminatedIn)
			}
			assertSamePayments(t, out, want)
			assertHonestUnfined(t, out)
			if !reflect.DeepEqual(out.Verdicts, want.Verdicts) {
				t.Errorf("verdicts diverge:\n standby: %+v\n primary: %+v", out.Verdicts, want.Verdicts)
			}
			if !reflect.DeepEqual(out.Utilities, want.Utilities) {
				t.Errorf("utilities diverge: %v vs %v", out.Utilities, want.Utilities)
			}
			var failovers int
			for _, e := range out.Transcript {
				if e.Action == "failover" {
					failovers++
				}
			}
			if failovers != 1 {
				t.Errorf("%d failover transcript entries, want 1", failovers)
			}
			if len(out.Transcript) != len(want.Transcript)+1 {
				t.Errorf("transcript length %d, want %d (+1 failover entry)",
					len(out.Transcript), len(want.Transcript))
			}
			if err := referee.VerifyEntries(out.Transcript); err != nil {
				t.Fatalf("failed-over transcript does not verify: %v", err)
			}
			if got := len(recordKinds(rec, obs.EvRefereeFailover)); got != 1 {
				t.Errorf("%d referee_failover events, want 1", got)
			}
		})
	}
}

// TestStandbyReplicationInvisible: a standby that never gets promoted
// must not perturb the round — same payments, same transcript.
func TestStandbyReplicationInvisible(t *testing.T) {
	want := faultFreeReference(t, dlt.NCPFE)
	cfg := honestConfig(dlt.NCPFE)
	cfg.Standby = true
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("run with idle standby terminated in %s", out.TerminatedIn)
	}
	assertSamePayments(t, out, want)
	if !reflect.DeepEqual(out.Transcript, want.Transcript) {
		t.Error("idle standby changed the audit transcript")
	}
}

// TestCrashRecoveryWholeLoad is the tier-3 whole-load case: a processor
// that fail-stops at the start of Processing Load is evicted, the
// survivors re-solve the allocation (Theorem 2.2: any subset is still
// optimal) and finish the round; the dead processor earns nothing.
func TestCrashRecoveryWholeLoad(t *testing.T) {
	rec := obs.NewRecorder()
	cfg := honestConfig(dlt.NCPFE)
	cfg.Tracer = rec
	cfg.Faults = adversarytest.CrashPlan(5, 0, "P2")
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("survivors did not complete: terminated in %s", out.TerminatedIn)
	}
	if len(out.Evictions) != 1 || out.Evictions[0].Proc != "P2" ||
		out.Evictions[0].Phase != obs.PhaseProcessing {
		t.Fatalf("evictions = %+v, want P2 in processing", out.Evictions)
	}
	assertHonestUnfined(t, out)
	if !out.Evicted[1] || out.Payments[1] != 0 || out.Utilities[1] != 0 {
		t.Errorf("crashed P2 still credited: evicted=%v payment=%v utility=%v",
			out.Evicted[1], out.Payments[1], out.Utilities[1])
	}
	for _, i := range []int{0, 2, 3} {
		if out.Payments[i] <= 0 {
			t.Errorf("survivor P%d unpaid: %v", i+1, out.Payments[i])
		}
	}
	if got := len(recordKinds(rec, obs.EvCheckpointResume)); got != 1 {
		t.Errorf("%d checkpoint_resume events, want 1", got)
	}
	if err := referee.VerifyEntries(out.Transcript); err != nil {
		t.Fatalf("transcript after crash recovery does not verify: %v", err)
	}
}

// TestCrashAndFailoverCompose: the composite adversary — a crash during
// Processing Load while the round is ALSO failing over to the standby —
// still completes, because the promoted referee replays the same
// eviction/re-allocation logic the primary would have.
func TestCrashAndFailoverCompose(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	cfg.Standby = true
	cfg.FailoverIn = obs.PhaseProcessing
	cfg.Faults = adversarytest.CrashPlan(5, 0, "P2")
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("composite adversary run terminated in %s", out.TerminatedIn)
	}
	assertHonestUnfined(t, out)
	if len(out.Evictions) != 1 || out.Evictions[0].Proc != "P2" {
		t.Fatalf("evictions = %+v, want exactly P2", out.Evictions)
	}
	if err := referee.VerifyEntries(out.Transcript); err != nil {
		t.Fatalf("transcript does not verify: %v", err)
	}
}
