package sig

import (
	"strings"
	"testing"
	"testing/quick"
)

type bidMsg struct {
	Bid  float64 `json:"bid"`
	Proc string  `json:"proc"`
}

func newPair(t *testing.T, id string, seed int64) *KeyPair {
	t.Helper()
	k, err := GenerateKeyPair(id, DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := newPair(t, "P1", 1)
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	env, err := Seal(k, "bid", bidMsg{Bid: 2.5, Proc: "P1"})
	if err != nil {
		t.Fatal(err)
	}
	var got bidMsg
	if err := env.Open(reg, &got); err != nil {
		t.Fatal(err)
	}
	if got.Bid != 2.5 || got.Proc != "P1" {
		t.Errorf("round trip gave %+v", got)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	k := newPair(t, "P1", 2)
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	env, err := Seal(k, "bid", bidMsg{Bid: 2.5, Proc: "P1"})
	if err != nil {
		t.Fatal(err)
	}

	tampered := env
	tampered.Payload = []byte(strings.Replace(string(env.Payload), "2.5", "9.5", 1))
	if err := tampered.Verify(reg); err == nil {
		t.Error("payload tampering accepted")
	}

	rekinded := env
	rekinded.Kind = "payment"
	if err := rekinded.Verify(reg); err == nil {
		t.Error("kind substitution accepted (cross-phase replay)")
	}

	resent := env
	resent.Sender = "P2"
	k2 := newPair(t, "P2", 3)
	if err := reg.Register(k2.ID, k2.Public); err != nil {
		t.Fatal(err)
	}
	if err := resent.Verify(reg); err == nil {
		t.Error("sender substitution accepted")
	}

	flipped := env
	flipped.Signature = append([]byte(nil), env.Signature...)
	flipped.Signature[0] ^= 0xFF
	if err := flipped.Verify(reg); err == nil {
		t.Error("flipped signature accepted")
	}
}

func TestVerifyUnknownSender(t *testing.T) {
	k := newPair(t, "P1", 4)
	env, err := Seal(k, "bid", bidMsg{Bid: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Verify(NewRegistry()); err == nil {
		t.Error("unregistered sender accepted")
	}
}

func TestOpenRejectsBadPayload(t *testing.T) {
	k := newPair(t, "P1", 5)
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	// Seal raw JSON that is valid for signing but not a bidMsg object.
	env, err := Seal(k, "bid", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var got bidMsg
	if err := env.Open(reg, &got); err == nil {
		t.Error("type-mismatched payload accepted")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	k := newPair(t, "P1", 6)
	if err := reg.Register("", k.Public); err == nil {
		t.Error("empty identity accepted")
	}
	if err := reg.Register("P1", k.Public[:5]); err == nil {
		t.Error("truncated key accepted")
	}
	if err := reg.Register("P1", k.Public); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("P1", k.Public); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, ok := reg.PublicKey("P1"); !ok {
		t.Error("registered key not found")
	}
	if _, ok := reg.PublicKey("P2"); ok {
		t.Error("phantom key found")
	}
	k2 := newPair(t, "P0", 7)
	if err := reg.Register("P0", k2.Public); err != nil {
		t.Fatal(err)
	}
	ids := reg.Identities()
	if len(ids) != 2 || ids[0] != "P0" || ids[1] != "P1" {
		t.Errorf("identities = %v", ids)
	}
}

func TestGenerateKeyPairValidation(t *testing.T) {
	if _, err := GenerateKeyPair("", nil); err == nil {
		t.Error("empty id accepted")
	}
	k, err := GenerateKeyPair("X", nil) // crypto/rand path
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Public) == 0 {
		t.Error("no public key generated")
	}
}

func TestSealRequiresPrivateKey(t *testing.T) {
	if _, err := Seal(nil, "bid", 1); err == nil {
		t.Error("nil keypair accepted")
	}
	if _, err := Seal(&KeyPair{ID: "x"}, "bid", 1); err == nil {
		t.Error("public-only keypair accepted")
	}
	k := newPair(t, "P1", 8)
	if _, err := Seal(k, "bid", func() {}); err == nil {
		t.Error("unmarshalable payload accepted")
	}
}

func TestEqual(t *testing.T) {
	k := newPair(t, "P1", 9)
	a, _ := Seal(k, "bid", bidMsg{Bid: 1})
	b, _ := Seal(k, "bid", bidMsg{Bid: 1})
	if !a.Equal(b) {
		t.Error("identical envelopes not equal (Ed25519 is deterministic)")
	}
	c, _ := Seal(k, "bid", bidMsg{Bid: 2})
	if a.Equal(c) {
		t.Error("different payloads equal")
	}
}

func TestIsEquivocation(t *testing.T) {
	k := newPair(t, "P1", 10)
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	bv := NewBatchVerifier(reg, nil)
	a, _ := Seal(k, "bid", bidMsg{Bid: 1})
	b, _ := Seal(k, "bid", bidMsg{Bid: 2})
	if !bv.IsEquivocation(a, b) {
		t.Error("genuine equivocation not detected")
	}
	same, _ := Seal(k, "bid", bidMsg{Bid: 1})
	if bv.IsEquivocation(a, same) {
		t.Error("identical payloads flagged as equivocation")
	}
	other, _ := Seal(k, "payment", bidMsg{Bid: 2})
	if bv.IsEquivocation(a, other) {
		t.Error("different kinds flagged as equivocation")
	}
	// A forged second message must not prove equivocation.
	forged := b
	forged.Signature = append([]byte(nil), b.Signature...)
	forged.Signature[3] ^= 0x01
	if bv.IsEquivocation(a, forged) {
		t.Error("forged message accepted as equivocation evidence")
	}
}

func TestDeterministicSourceReproducible(t *testing.T) {
	k1 := newPair(t, "P1", 42)
	k2 := newPair(t, "P1", 42)
	if string(k1.Public) != string(k2.Public) {
		t.Error("same seed produced different keys")
	}
	k3 := newPair(t, "P1", 43)
	if string(k1.Public) == string(k3.Public) {
		t.Error("different seeds produced identical keys")
	}
}

// Property: every sealed envelope verifies, and any single-byte payload
// mutation is rejected.
func TestQuickSealVerifyAndTamper(t *testing.T) {
	k := newPair(t, "P1", 11)
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	f := func(bid float64, label string, flip uint8) bool {
		env, err := Seal(k, "bid", bidMsg{Bid: bid, Proc: label})
		if err != nil {
			// Non-finite floats cannot be marshaled to JSON; acceptable.
			return true
		}
		if env.Verify(reg) != nil {
			return false
		}
		if len(env.Payload) == 0 {
			return true
		}
		tampered := env
		tampered.Payload = append([]byte(nil), env.Payload...)
		tampered.Payload[int(flip)%len(tampered.Payload)] ^= 0x5A
		return tampered.Verify(reg) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
