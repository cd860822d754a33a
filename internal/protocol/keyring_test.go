package protocol

import (
	"bytes"
	"runtime"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/sig"
)

// TestWarmKeyringBitIdenticalEconomics: running with a warm keyring must
// not perturb a single economic quantity. Payments, fines, allocations
// and utilities depend only on bids and meters — never on key bytes — so
// a cached keypair changes cost, not outcome.
func TestWarmKeyringBitIdenticalEconomics(t *testing.T) {
	base := Config{Network: dlt.NCPFE, Z: 0.25, TrueW: []float64{1, 1.5, 2, 2.5, 3}}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := base
		cfg.Seed = seed
		cold, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		ring := sig.NewKeyring()
		cfg.Keys = ring
		first, err := Run(cfg) // fills the ring
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Run(cfg) // reuses every pair
		if err != nil {
			t.Fatal(err)
		}

		for name, pair := range map[string][2]*Outcome{
			"cold vs filling": {cold, first},
			"cold vs warm":    {cold, warm},
		} {
			a, b := pair[0], pair[1]
			if !eq(a.Payments, b.Payments) || !eq(a.Fines, b.Fines) ||
				!eq(a.Alloc, b.Alloc) || !eq(a.Utilities, b.Utilities) ||
				a.UserCost != b.UserCost || a.Makespan != b.Makespan {
				t.Fatalf("seed %d %s: economics diverged", seed, name)
			}
		}
		// The ring holds exactly one pair per signing party (m processors
		// and the referee) and repeated runs do not grow it.
		if want := len(base.TrueW) + 1; ring.Len() != want {
			t.Fatalf("keyring has %d pairs, want %d", ring.Len(), want)
		}
	}
}

// TestPartiallyWarmKeyring: a ring holding only some identities must
// still produce the cold run's exact outcome — the key-seed counter
// advances for cached identities too, so the generated remainder matches
// what a cold run would have drawn.
func TestPartiallyWarmKeyring(t *testing.T) {
	cfg := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 2, 3}, Seed: 9}
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	full := sig.NewKeyring()
	cfg.Keys = full
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	partial := sig.NewKeyring()
	for _, id := range []string{"P2", "referee"} {
		k, _ := full.Get(id)
		if k == nil {
			t.Fatalf("full ring missing %s", id)
		}
		if err := partial.Put(k); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Keys = partial
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(out.Payments, cold.Payments) || !eq(out.Fines, cold.Fines) || !eq(out.Alloc, cold.Alloc) {
		t.Fatal("partially warm ring diverged from cold run")
	}
	if want := len(cfg.TrueW) + 1; partial.Len() != want {
		t.Fatalf("ring grew to %d pairs, want %d", partial.Len(), want)
	}
}

// TestParallelKeygenMatchesSerialSeeds: setup generates a round's
// missing keys in parallel, yet every identity must get the key the
// serial seed counter gives it — Seed+1 for the user (who signs nothing
// and gets no key), then the referee, the participants in order and the
// standby last — cold, from a partly warm ring, and with an abstainer,
// at GOMAXPROCS 1 (inline) and 4 (fanned out).
func TestParallelKeygenMatchesSerialSeeds(t *testing.T) {
	serial := func(t *testing.T, seed int64, ids []string) map[string][]byte {
		t.Helper()
		want := make(map[string][]byte, len(ids))
		seed++ // the user's slot
		for _, id := range ids {
			seed++
			k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(seed))
			if err != nil {
				t.Fatal(err)
			}
			want[id] = k.Public
		}
		return want
	}
	check := func(t *testing.T, cfg Config, ids []string) {
		t.Helper()
		r, err := setup(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := serial(t, cfg.Seed, ids)
		if got := r.reg.Identities(); len(got) != len(ids) {
			t.Fatalf("registry holds %v, want %v", got, ids)
		}
		for id, pub := range want {
			got, ok := r.reg.PublicKey(id)
			if !ok || !bytes.Equal(got, pub) {
				t.Errorf("%s: registered key differs from the serial seed counter's", id)
			}
		}
		for _, a := range r.agents {
			if !bytes.Equal(a.Key.Public, want[a.ID]) {
				t.Errorf("%s: agent key differs from the serial seed counter's", a.ID)
			}
		}
		if !bytes.Equal(r.refKey.Public, want["referee"]) {
			t.Error("referee key differs from the serial seed counter's")
		}
		if cfg.Standby && !bytes.Equal(r.standbyKey.Public, want["referee-standby"]) {
			t.Error("standby key differs from the serial seed counter's")
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		w := []float64{1, 1.5, 2, 2.5, 3, 3.5}
		cold := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 31, Standby: true}
		check(t, cold, []string{"referee", "P1", "P2", "P3", "P4", "P5", "P6", "referee-standby"})

		// A partly warm ring: the pairs it holds are used as they are, the
		// rest drawn from their own slots and deposited.
		full := sig.NewKeyring()
		warmCfg := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 31, Keys: full}
		if _, err := setup(warmCfg, nil); err != nil {
			t.Fatal(err)
		}
		partial := sig.NewKeyring()
		for _, id := range []string{"P2", "P5"} {
			k, _ := full.Get(id)
			if err := partial.Put(k); err != nil {
				t.Fatal(err)
			}
		}
		warmCfg.Keys = partial
		check(t, warmCfg, []string{"referee", "P1", "P2", "P3", "P4", "P5", "P6"})
		if partial.Len() != 7 {
			t.Errorf("GOMAXPROCS=%d: partly warm ring holds %d pairs after the round, want 7", procs, partial.Len())
		}

		// An abstainer draws no slot: P4 takes the slot P3 would have had.
		abstain := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 31,
			Behaviors: []agent.Behavior{{}, {}, {Abstain: true}}}
		check(t, abstain, []string{"referee", "P1", "P2", "P4", "P5", "P6"})
	}
}

func eq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
