package bus

import (
	"testing"

	"dlsbl/internal/sig"
)

func faultyBus(t testing.TB, plan *FaultPlan, ids ...string) *Bus {
	t.Helper()
	b, err := NewFaulty(0.1, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := b.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func sealedBy(t testing.TB, id string, v any) (*sig.Registry, sig.Envelope) {
	t.Helper()
	reg := sig.NewRegistry()
	k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(id, k.Public); err != nil {
		t.Fatal(err)
	}
	env, err := sig.Seal(k, "test", v)
	if err != nil {
		t.Fatal(err)
	}
	return reg, env
}

func TestFaultPlanValidate(t *testing.T) {
	if err := (&FaultPlan{Drop: 1.5}).Validate(); err == nil {
		t.Error("Drop=1.5 accepted")
	}
	if err := (&FaultPlan{JitterMax: -1}).Validate(); err == nil {
		t.Error("negative jitter accepted")
	}
	if err := (&FaultPlan{Drop: 0.5, Duplicate: 1}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
}

func TestDropLosesDeliveries(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 7, Drop: 1}, "a", "b", "c")
	_, env := sealedBy(t, "a", "x")
	if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "c"} {
		msgs, err := b.Drain(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 0 {
			t.Errorf("%s received %d messages through a 100%% drop plan", id, len(msgs))
		}
	}
	if s := b.Stats(); s.Dropped != 2 || s.Deliveries != 0 {
		t.Errorf("stats = %+v, want Dropped=2 Deliveries=0", s)
	}
}

func TestDuplicatePreservesNonce(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 7, Duplicate: 1}, "a", "b")
	_, env := sealedBy(t, "a", "x")
	nonce, err := b.SendTagged("a", "b", "k", env, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("got %d copies, want 2", len(msgs))
	}
	for _, m := range msgs {
		if m.Nonce != nonce {
			t.Errorf("copy nonce %d, want %d", m.Nonce, nonce)
		}
	}
	if s := b.Stats(); s.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", s.Duplicated)
	}
}

func TestCorruptBreaksSignatureOnly(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 7, Corrupt: 1}, "a", "b", "c")
	reg, env := sealedBy(t, "a", "payload")
	if _, err := broadcast(b, "a", "test", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	msgs, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	if err := msgs[0].Env.Verify(reg); err == nil {
		t.Error("corrupted envelope still verifies")
	}
	// The original envelope's backing arrays must be untouched.
	if err := env.Verify(reg); err != nil {
		t.Errorf("corruption mutated the shared original: %v", err)
	}
}

func TestDelayArrivesNextDrain(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 7, Delay: 1}, "a", "b")
	_, env := sealedBy(t, "a", "x")
	if err := b.Send("a", "b", "k", env, 1); err != nil {
		t.Fatal(err)
	}
	first, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 0 {
		t.Fatalf("delayed message visible on first drain")
	}
	second, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 1 {
		t.Fatalf("delayed message missing on second drain: got %d", len(second))
	}
	if s := b.Stats(); s.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", s.Delayed)
	}
}

func TestReorderPermutesQueue(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 3, Reorder: 1}, "a", "b")
	_, env := sealedBy(t, "a", "x")
	for i := 0; i < 5; i++ {
		if err := b.Send("a", "b", "k", env, 1); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 5 {
		t.Fatalf("got %d messages, want 5", len(msgs))
	}
	inOrder := true
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Nonce < msgs[i-1].Nonce {
			inOrder = false
		}
	}
	if inOrder {
		t.Error("100% reorder plan left the queue in FIFO order")
	}
	if s := b.Stats(); s.Reordered == 0 {
		t.Error("Reordered counter is zero")
	}
}

func TestUnresponsiveBlackholesBothDirections(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 7, Unresponsive: []string{"b"}}, "a", "b", "c")
	_, env := sealedBy(t, "a", "x")
	if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("b", "c", "k", env, 1); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := b.Drain("b"); len(msgs) != 0 {
		t.Error("blackholed endpoint received traffic")
	}
	cMsgs, _ := b.Drain("c")
	if len(cMsgs) != 1 || cMsgs[0].From != "a" {
		t.Errorf("c received %v, want only a's broadcast", cMsgs)
	}
	if s := b.Stats(); s.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2 (one to b, one from b)", s.Dropped)
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() Stats {
		plan := &FaultPlan{Seed: 99, Drop: 0.2, Duplicate: 0.2, Delay: 0.2, Corrupt: 0.2, Reorder: 0.2}
		b := faultyBus(t, plan, "a", "b", "c", "d")
		_, env := sealedBy(t, "a", "x")
		for i := 0; i < 50; i++ {
			if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
				t.Fatal(err)
			}
			if err := b.Send("b", "c", "k", env, 2); err != nil {
				t.Fatal(err)
			}
		}
		return b.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different fault sequences:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.Delayed == 0 || a.Corrupted == 0 {
		t.Errorf("mixed plan left a fault class unexercised: %+v", a)
	}
}

func TestJitterStretchesTransfers(t *testing.T) {
	reliable := faultyBus(t, nil, "a")
	jittery := faultyBus(t, &FaultPlan{Seed: 5, JitterMax: 0.5}, "a")
	_, e1, err := reliable.ReserveTransferTo(0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := jittery.ReserveTransferTo(0, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if !(e2 > e1) || e2 > e1+0.5 {
		t.Errorf("jittered transfer ends at %v, reliable at %v; want (e1, e1+0.5]", e2, e1)
	}
}

// BenchmarkBroadcastReliable guards the zero-overhead claim for the nil
// FaultPlan: the delivery path of a one-broadcast BroadcastEach must not
// regress relative to the seed implementation (one append + counter
// updates per receiver).
func BenchmarkBroadcastReliable(b *testing.B) {
	bench := func(b *testing.B, plan *FaultPlan) {
		bus := faultyBus(b, plan, "a", "b", "c", "d", "e", "f", "g", "h")
		_, env := sealedBy(b, "a", "x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := broadcast(bus, "a", "k", env, 1, 0); err != nil {
				b.Fatal(err)
			}
			if i%64 == 63 { // keep inboxes bounded
				for _, id := range []string{"b", "c", "d", "e", "f", "g", "h"} {
					if _, err := bus.Drain(id); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("nil-plan", func(b *testing.B) { bench(b, nil) })
	b.Run("mixed-faults", func(b *testing.B) {
		bench(b, &FaultPlan{Seed: 1, Drop: 0.1, Duplicate: 0.05, Delay: 0.1, Corrupt: 0.05, Reorder: 0.1})
	})
}
