package protocol

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/referee"
)

// faultFreeReference runs the honest configuration on a reliable bus and
// returns its outcome, the baseline every faulty run is compared against.
func faultFreeReference(t testing.TB, net dlt.Network) *Outcome {
	t.Helper()
	out, err := Run(honestConfig(net))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("fault-free reference run did not complete: %+v", out.Verdicts)
	}
	return out
}

// assertSamePayments requires bit-identical payments: retries and
// duplicate suppression must be invisible to the economics, because
// payments derive only from bids and execution meters, neither of which
// a (non-evicting) fault plan can alter.
func assertSamePayments(t *testing.T, got, want *Outcome) {
	t.Helper()
	if len(got.Payments) != len(want.Payments) {
		t.Fatalf("payment vector length %d, want %d", len(got.Payments), len(want.Payments))
	}
	for i := range want.Payments {
		if got.Payments[i] != want.Payments[i] {
			t.Errorf("Q[%d]=%v under faults, %v fault-free", i, got.Payments[i], want.Payments[i])
		}
	}
	if got.UserCost != want.UserCost {
		t.Errorf("user cost %v under faults, %v fault-free", got.UserCost, want.UserCost)
	}
}

// TestReliableBaselineNoRetransmits: on the paper's reliable bus (no
// fault plan) the transport machinery must stay idle — the round
// completes with no retransmission, timeout, discard or eviction.
func TestReliableBaselineNoRetransmits(t *testing.T) {
	for _, m := range []int{4, 16} {
		in := dlt.DefaultRandomInstance(rand.New(rand.NewSource(42+int64(m))), dlt.NCPFE, m)
		out, err := Run(Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: 42, NBlocks: 8 * m})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed {
			t.Fatalf("m=%d: reliable run terminated in %s", m, out.TerminatedIn)
		}
		if out.Fault != (FaultStats{}) || len(out.Evictions) != 0 {
			t.Errorf("m=%d: reliable run used the fault machinery: %+v, evictions %+v",
				m, out.Fault, out.Evictions)
		}
	}
}

// TestSingleFaultClassesComplete checks that the protocol completes under
// each fault class in isolation, with payments exactly equal to the
// fault-free run and no evictions: the retry/dedup machinery absorbs the
// faults entirely.
func TestSingleFaultClassesComplete(t *testing.T) {
	cases := []struct {
		name string
		plan bus.FaultPlan
		// exercised reports whether the fault class actually fired, from
		// the run's counters — a vacuous pass is a test bug.
		exercised func(o *Outcome) bool
	}{
		{"drop-only", bus.FaultPlan{Seed: 11, Drop: 0.15},
			func(o *Outcome) bool { return o.BusStats.Dropped > 0 && o.Fault.Retransmits > 0 }},
		{"dup-only", bus.FaultPlan{Seed: 12, Duplicate: 0.5},
			func(o *Outcome) bool { return o.BusStats.Duplicated > 0 && o.Fault.DupDiscards > 0 }},
		{"delay-only", bus.FaultPlan{Seed: 13, Delay: 0.5},
			func(o *Outcome) bool { return o.BusStats.Delayed > 0 }},
		{"reorder-only", bus.FaultPlan{Seed: 14, Reorder: 0.9},
			func(o *Outcome) bool { return o.BusStats.Reordered > 0 }},
		{"corrupt-only", bus.FaultPlan{Seed: 15, Corrupt: 0.2},
			func(o *Outcome) bool { return o.BusStats.Corrupted > 0 && o.Fault.CorruptDiscards > 0 }},
	}
	for _, net := range []dlt.Network{dlt.NCPFE, dlt.NCPNFE} {
		want := faultFreeReference(t, net)
		for _, tc := range cases {
			t.Run(tc.name+"/"+net.String(), func(t *testing.T) {
				cfg := honestConfig(net)
				plan := tc.plan
				cfg.Faults = &plan
				out, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !out.Completed {
					t.Fatalf("run under %s terminated in %s", tc.name, out.TerminatedIn)
				}
				if len(out.Evictions) != 0 {
					t.Fatalf("unexpected evictions: %+v", out.Evictions)
				}
				if !tc.exercised(out) {
					t.Fatalf("fault class never fired: bus=%+v fault=%+v", out.BusStats, out.Fault)
				}
				assertSamePayments(t, out, want)
			})
		}
	}
}

// TestAcceptanceDropAndDuplicate is the issue's acceptance scenario: a
// seeded FaultPlan with 10%% drop and 5%% duplication must complete with
// the same payment vector as the fault-free run and zero evictions.
func TestAcceptanceDropAndDuplicate(t *testing.T) {
	want := faultFreeReference(t, dlt.NCPFE)
	cfg := honestConfig(dlt.NCPFE)
	cfg.Faults = &bus.FaultPlan{Seed: 42, Drop: 0.10, Duplicate: 0.05}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("acceptance run terminated in %s", out.TerminatedIn)
	}
	if out.Fault.Evictions != 0 || len(out.Evictions) != 0 {
		t.Fatalf("acceptance run evicted: %+v", out.Evictions)
	}
	assertSamePayments(t, out, want)
}

// TestMixedFaultSoak runs the protocol under a combined plan across many
// seeds. DLSBL_SOAK_ROUNDS overrides the round count (the `faults-soak`
// make target sets it high).
func TestMixedFaultSoak(t *testing.T) {
	rounds := 25
	if s := os.Getenv("DLSBL_SOAK_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad DLSBL_SOAK_ROUNDS=%q: %v", s, err)
		}
		rounds = n
	}
	want := faultFreeReference(t, dlt.NCPNFE)
	for seed := int64(1); seed <= int64(rounds); seed++ {
		cfg := honestConfig(dlt.NCPNFE)
		cfg.Faults = &bus.FaultPlan{
			Seed: seed, Drop: 0.08, Duplicate: 0.08, Delay: 0.08, Corrupt: 0.08, Reorder: 0.15,
		}
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !out.Completed {
			t.Fatalf("seed %d: terminated in %s", seed, out.TerminatedIn)
		}
		if len(out.Evictions) != 0 {
			t.Fatalf("seed %d: evicted %+v", seed, out.Evictions)
		}
		assertSamePayments(t, out, want)
	}
}

// TestFaultRunsDeterministic: equal configs (including the fault seed)
// must reproduce the identical outcome, counters included.
func TestFaultRunsDeterministic(t *testing.T) {
	mk := func() *Outcome {
		cfg := honestConfig(dlt.NCPFE)
		cfg.Faults = &bus.FaultPlan{Seed: 3, Drop: 0.1, Duplicate: 0.1, Delay: 0.1, Corrupt: 0.1, Reorder: 0.2}
		out, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := mk(), mk()
	if a.BusStats != b.BusStats {
		t.Errorf("bus stats diverged:\n%+v\n%+v", a.BusStats, b.BusStats)
	}
	if a.Fault != b.Fault {
		t.Errorf("fault stats diverged:\n%+v\n%+v", a.Fault, b.Fault)
	}
	for i := range a.Payments {
		if a.Payments[i] != b.Payments[i] {
			t.Errorf("Q[%d] diverged: %v vs %v", i, a.Payments[i], b.Payments[i])
		}
	}
}

// TestEvictionRegimeDeterministic drives the protocol into the regime
// where the retry budget actually runs out — many processors, heavy
// loss, a tight attempt budget — and requires equal configs to reproduce
// bit-identical outcomes, evictions (victims, phases and reason strings)
// included. This is the regime where retransmission send order decides
// which seeded fault draws hit which deliveries: iterating a Go map
// there once made the same seed evict different processors across runs.
func TestEvictionRegimeDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		mk := func() (*Outcome, error) {
			return Run(Config{
				Network: dlt.NCPFE,
				Z:       0.1,
				TrueW:   []float64{1.0, 1.3, 1.6, 1.9, 2.2, 2.5},
				Seed:    7,
				Faults:  &bus.FaultPlan{Seed: seed, Drop: 0.35, Duplicate: 0.15, JitterMax: 0.3},
				Retry:   RetryPolicy{MaxAttempts: 3},
			})
		}
		a, errA := mk()
		b, errB := mk()
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("seed %d: errors diverged: %v vs %v", seed, errA, errB)
		}
		if errA != nil {
			continue // deterministic abort — both runs agree
		}
		if a.BusStats != b.BusStats {
			t.Errorf("seed %d: bus stats diverged:\n%+v\n%+v", seed, a.BusStats, b.BusStats)
		}
		if a.Fault != b.Fault {
			t.Errorf("seed %d: fault stats diverged:\n%+v\n%+v", seed, a.Fault, b.Fault)
		}
		if a.Makespan != b.Makespan {
			t.Errorf("seed %d: makespan diverged: %v vs %v", seed, a.Makespan, b.Makespan)
		}
		if len(a.Evictions) != len(b.Evictions) {
			t.Fatalf("seed %d: eviction counts diverged:\n%+v\n%+v", seed, a.Evictions, b.Evictions)
		}
		for i := range a.Evictions {
			if a.Evictions[i] != b.Evictions[i] {
				t.Errorf("seed %d: eviction %d diverged:\n%+v\n%+v", seed, i, a.Evictions[i], b.Evictions[i])
			}
		}
		for i := range a.Payments {
			if a.Payments[i] != b.Payments[i] {
				t.Errorf("seed %d: Q[%d] diverged: %v vs %v", seed, i, a.Payments[i], b.Payments[i])
			}
		}
	}
}

// TestUnresponsiveProcessorEvicted: a blackholed processor must be
// evicted in the Bidding phase, the survivors must complete the run on
// the re-solved allocation (Theorem 2.2: any subset is still optimal),
// and the referee's transcript must carry an "eviction" entry with no
// fine attached.
func TestUnresponsiveProcessorEvicted(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE) // TrueW = {1.0, 1.5, 2.0, 2.5}
	cfg.Faults = &bus.FaultPlan{Seed: 1, Unresponsive: []string{"P3"}}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("survivors did not complete: terminated in %s", out.TerminatedIn)
	}
	if len(out.Evictions) != 1 || out.Evictions[0].Proc != "P3" || out.Evictions[0].Phase != "bidding" {
		t.Fatalf("evictions = %+v, want exactly P3 in bidding", out.Evictions)
	}
	if !out.Evicted[2] || out.Evicted[0] || out.Evicted[1] || out.Evicted[3] {
		t.Errorf("Evicted = %v, want only index 2", out.Evicted)
	}
	if !out.Participated[2] {
		t.Errorf("evicted processor should still count as a participant")
	}
	if out.Fault.Evictions != 1 {
		t.Errorf("Fault.Evictions = %d, want 1", out.Fault.Evictions)
	}
	// No fine, no payment, zero utility for the evicted processor.
	if out.Fines[2] != 0 || out.Payments[2] != 0 || out.Utilities[2] != 0 {
		t.Errorf("evicted P3 has fines=%v payments=%v utility=%v, want all zero",
			out.Fines[2], out.Payments[2], out.Utilities[2])
	}
	// The transcript records the eviction as its own action kind, with
	// nobody declared guilty, and the chain still verifies.
	var evEntries []referee.AuditEntry
	for _, e := range out.Transcript {
		if e.Action == "eviction" {
			evEntries = append(evEntries, e)
		}
	}
	if len(evEntries) != 1 {
		t.Fatalf("transcript has %d eviction entries, want 1:\n%+v", len(evEntries), out.Transcript)
	}
	if len(evEntries[0].Guilty) != 0 {
		t.Errorf("eviction entry declares guilt: %+v", evEntries[0])
	}
	if err := referee.VerifyEntries(out.Transcript); err != nil {
		t.Errorf("transcript broken after eviction: %v", err)
	}

	// The survivors' payments equal a fresh fault-free run over the
	// reduced true-value vector {1.0, 1.5, 2.5}.
	refCfg := honestConfig(dlt.NCPFE)
	refCfg.TrueW = []float64{1.0, 1.5, 2.5}
	want, err := Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range []int{0, 1, 3} {
		if relErr(out.Payments[i], want.Payments[k]) > tol {
			t.Errorf("survivor P%d payment %v, reduced-run says %v", i+1, out.Payments[i], want.Payments[k])
		}
	}
}

// TestUnresponsiveOriginatorFails: the load-originating processor cannot
// be evicted — without it nobody can source the load, so the run must
// surface an error instead of limping on.
func TestUnresponsiveOriginatorFails(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE) // NCPFE originator is P1
	cfg.Faults = &bus.FaultPlan{Seed: 1, Unresponsive: []string{"P1"}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("run with a dead originator succeeded")
	}
}

// TestTooFewSurvivorsFails: evicting all but one processor must error —
// DLS-BL-NCP needs at least two parties.
func TestTooFewSurvivorsFails(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	cfg.Faults = &bus.FaultPlan{Seed: 1, Unresponsive: []string{"P2", "P3", "P4"}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("run with a single survivor succeeded")
	}
}

// TestJitterInflatesMakespan: data-plane latency jitter must stretch the
// realized makespan beyond the fault-free optimum while leaving payments
// untouched (payments derive from meters, not from the wall clock).
func TestJitterInflatesMakespan(t *testing.T) {
	want := faultFreeReference(t, dlt.NCPFE)
	cfg := honestConfig(dlt.NCPFE)
	cfg.Faults = &bus.FaultPlan{Seed: 2, JitterMax: 0.3}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("jittered run terminated in %s", out.TerminatedIn)
	}
	if !(out.Makespan > want.Makespan) {
		t.Errorf("jittered makespan %v not above fault-free %v", out.Makespan, want.Makespan)
	}
	assertSamePayments(t, out, want)
}

// TestEquivocatorStillCaughtUnderFaults: the deviation machinery must
// survive the unreliable bus — an equivocator is convicted and fined even
// when its contradictory bids cross a lossy medium.
func TestEquivocatorStillCaughtUnderFaults(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	cfg = withBehavior(cfg, 1, agent.Equivocator)
	cfg.Faults = &bus.FaultPlan{Seed: 6, Drop: 0.1, Duplicate: 0.1}
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("equivocation run completed; expected termination with a fine")
	}
	if out.Fines[1] == 0 {
		t.Errorf("equivocator not fined: %+v", out.Fines)
	}
}

// BenchmarkProtocolRun guards the zero-overhead claim at the protocol
// level: a nil FaultPlan must not slow Run relative to the seed
// implementation's single-send/single-drain pattern.
func BenchmarkProtocolRun(b *testing.B) {
	bench := func(b *testing.B, plan *bus.FaultPlan) {
		cfg := honestConfig(dlt.NCPFE)
		cfg.Faults = plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Completed {
				b.Fatal("run did not complete")
			}
		}
	}
	b.Run("nil-plan", func(b *testing.B) { bench(b, nil) })
	b.Run("mixed-faults", func(b *testing.B) {
		bench(b, &bus.FaultPlan{Seed: 9, Drop: 0.1, Duplicate: 0.05, Delay: 0.1, Corrupt: 0.05})
	})
}
