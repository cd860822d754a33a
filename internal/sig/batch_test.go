package sig

import (
	"errors"
	"fmt"
	"testing"
)

// testEnv seals a bid-shaped JSON payload under a fresh deterministic key
// registered with reg.
func testEnv(t *testing.T, reg *Registry, id string, seed int64, payload string) (*KeyPair, Envelope) {
	t.Helper()
	k, err := GenerateKeyPair(id, DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(id, k.Public); err != nil {
		t.Fatal(err)
	}
	env, err := sealPayload(k, "dls/bid", []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return k, env
}

// TestRegistryPublicKeyReturnsCopy is the regression test for the PKI
// aliasing bug: PublicKey must hand out a copy, so a caller mutating the
// returned slice cannot silently corrupt the registered key and break (or
// forge) later verifications.
func TestRegistryPublicKeyReturnsCopy(t *testing.T) {
	reg := NewRegistry()
	_, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)

	pub, ok := reg.PublicKey("P1")
	if !ok {
		t.Fatal("P1 not registered")
	}
	for i := range pub {
		pub[i] ^= 0xFF // a hostile caller scribbles over its copy
	}
	if err := env.Verify(reg); err != nil {
		t.Fatalf("verification failed after caller mutated its PublicKey copy: %v", err)
	}
	again, _ := reg.PublicKey("P1")
	for i := range again {
		if again[i] != pub[i]^0xFF {
			t.Fatalf("byte %d: registry key changed under the caller's scribble", i)
		}
	}
}

// TestVerifyMemoSoundness checks the memo's safety contract: a hit is
// possible only for a byte-identical envelope that already verified, any
// byte change falls back to (failing) full verification, and failures are
// never memoized.
func TestVerifyMemoSoundness(t *testing.T) {
	reg := NewRegistry()
	_, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	memo := NewVerifyMemo()
	bv := NewBatchVerifier(reg, memo)

	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if st := bv.Stats(); st.Verified != 1 || st.MemoHits != 1 {
		t.Fatalf("stats = %+v, want 1 verified and 1 memo hit", st)
	}

	// Any byte change misses the memo and fails the full verification —
	// a memoized original must not launder a tampered copy.
	tampered := env
	tampered.Payload = append([]byte(nil), env.Payload...)
	tampered.Payload[len(tampered.Payload)-2] ^= 1
	if err := bv.Verify(&tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered copy of memoized envelope: err = %v, want ErrBadSignature", err)
	}
	// The failure itself must not be memoized: it keeps failing.
	if err := bv.Verify(&tampered); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered copy on retry: err = %v, want ErrBadSignature", err)
	}
	if ms := memo.Stats(); ms.Size != 1 {
		t.Fatalf("memo size = %d, want 1 (failures never stored)", ms.Size)
	}
}

// TestVerifyEach exercises the batch path: index-aligned errors for a
// mixed profile (valid, unknown sender, bad signature), intra-batch
// duplicate dedup, and memo warm-up across calls.
func TestVerifyEach(t *testing.T) {
	reg := NewRegistry()
	envs := make([]Envelope, 0, 6)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("P%d", i+1)
		_, env := testEnv(t, reg, id, int64(i+1), fmt.Sprintf(`{"proc":%q,"bid":%d.5}`, id, i+1))
		envs = append(envs, env)
	}
	envs = append(envs, envs[0]) // intra-batch duplicate of P1's bid
	bad := envs[1]
	bad.Payload = append([]byte(nil), bad.Payload...)
	bad.Payload[0] ^= 1
	envs = append(envs, bad)
	envs = append(envs, Envelope{Sender: "P9", Kind: "dls/bid"})

	bv := NewBatchVerifier(reg, NewVerifyMemo())
	errs := bv.VerifyEach(envs)
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Errorf("envs[%d]: %v, want nil", i, errs[i])
		}
	}
	if !errors.Is(errs[4], ErrBadSignature) {
		t.Errorf("tampered entry: %v, want ErrBadSignature", errs[4])
	}
	if !errors.Is(errs[5], ErrUnknownSender) {
		t.Errorf("unknown sender: %v, want ErrUnknownSender", errs[5])
	}
	st := bv.Stats()
	if st.Verified != 3 {
		t.Errorf("verified = %d, want 3 (duplicate shares the first copy's verdict)", st.Verified)
	}
	if st.MemoHits != 1 {
		t.Errorf("memo hits = %d, want 1 (the intra-batch duplicate)", st.MemoHits)
	}

	// Second pass over the valid prefix: everything is memoized now.
	if err := bv.VerifyAll(envs[:4]); err != nil {
		t.Fatal(err)
	}
	if st := bv.Stats(); st.Verified != 3 {
		t.Errorf("verified after warm pass = %d, want 3 (all hits)", st.Verified)
	}
}

// TestVerifyEachWorkers pins that the worker fan-out returns the same
// verdicts as the serial path for a larger profile.
func TestVerifyEachWorkers(t *testing.T) {
	reg := NewRegistry()
	var envs []Envelope
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("P%d", i+1)
		_, env := testEnv(t, reg, id, int64(i+1), fmt.Sprintf(`{"proc":%q}`, id))
		envs = append(envs, env)
	}
	envs[7].Payload = append([]byte(nil), envs[7].Payload...)
	envs[7].Payload[0] ^= 1

	for _, workers := range []int{1, 4} {
		bv := NewBatchVerifier(reg, nil)
		bv.Workers = workers
		errs := bv.VerifyEach(envs)
		for i, err := range errs {
			if i == 7 {
				if !errors.Is(err, ErrBadSignature) {
					t.Errorf("workers=%d envs[7]: %v, want ErrBadSignature", workers, err)
				}
			} else if err != nil {
				t.Errorf("workers=%d envs[%d]: %v", workers, i, err)
			}
		}
	}
}

// TestHotPathAllocs is the CI guard for the envelope hot path: sealing
// into a warm envelope, a memo-hit verification and the pooled
// signing-byte assembly must all stay at 0 allocs/op, so an accidental
// per-message allocation fails the build instead of shipping as a perf
// regression. (The payload codec's 0 allocs/op guard lives next to the
// payload types, in internal/referee.)
func TestHotPathAllocs(t *testing.T) {
	reg := NewRegistry()
	k, env := testEnv(t, reg, "P1", 1, `{"proc":"P1","bid":1.5}`)
	payload := append([]byte(nil), env.Payload...)

	var warm Envelope
	if err := SealInto(k, "dls/bid", payload, &warm); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := SealInto(k, "dls/bid", payload, &warm); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SealInto into a warm envelope: %v allocs/op, want 0", n)
	}
	if err := warm.Verify(reg); err != nil {
		t.Fatalf("warm-sealed envelope does not verify: %v", err)
	}

	bv := NewBatchVerifier(reg, NewVerifyMemo())
	if err := bv.Verify(&env); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := bv.Verify(&env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("memo-hit Verify: %v allocs/op, want 0", n)
	}

	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = appendSigningBytes(buf[:0], env.Kind, env.Sender, env.Payload)
	}); n != 0 {
		t.Errorf("appendSigningBytes into a warm buffer: %v allocs/op, want 0", n)
	}
}
