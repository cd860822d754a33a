package protocol

import (
	"reflect"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// open verifies an envelope through the run's batch verifier and decodes
// its payload: how the reference collection in bidoracle_test.go reads
// each copy, where the collection now decodes through the transport.
func (r *run) open(env *sig.Envelope, v any) error {
	return r.ver.Open(env, v)
}

// rxRig is a transport over a reliable simulated bus with P1–P3 and the
// referee attached, their keys registered, and its verifier in reach.
type rxRig struct {
	net  *bus.Bus
	xp   *transport
	ver  *sig.BatchVerifier
	keys map[string]*sig.KeyPair
}

func newRxRig(t *testing.T) *rxRig {
	t.Helper()
	net, err := bus.New(0.1)
	if err != nil {
		t.Fatal(err)
	}
	reg := sig.NewRegistry()
	keys := map[string]*sig.KeyPair{}
	for i, id := range []string{"P1", "P2", "P3", referee.Account} {
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(id, k.Public); err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(id); err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	ver := sig.NewBatchVerifier(reg, nil)
	xp, err := newTransport(net, ver, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return &rxRig{net: net, xp: xp, ver: ver, keys: keys}
}

// bid seals a bid of the given value under from's key.
func (g *rxRig) bid(t *testing.T, from string, v float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(g.keys[from], referee.KindBid, referee.BidPayload{Proc: from, Bid: v})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// deliver sends env from → to under nonce and pulls to's inbox,
// returning the verifier's counters from just before the pull.
func (g *rxRig) deliver(t *testing.T, from, to string, env sig.Envelope, nonce uint64) sig.BatchStats {
	t.Helper()
	if _, err := g.net.SendTagged(from, to, referee.KindBid, env, 1, nonce); err != nil {
		t.Fatal(err)
	}
	before := g.ver.Stats()
	if err := g.xp.pull(to); err != nil {
		t.Fatal(err)
	}
	return before
}

// pending is the number of copies waiting at endpoint id.
func (g *rxRig) pending(id string) int { return len(g.xp.buf(id).pending) }

// inTable reports whether (from, nonce) has a verified first copy.
func (g *rxRig) inTable(from string, nonce uint64) bool {
	_, ok := g.xp.index[nonceKey{from: from, nonce: nonce}]
	return ok
}

// copyOf returns env in freshly allocated slices, as a socket delivers it.
func copyOf(env sig.Envelope) sig.Envelope {
	env.Payload = append([]byte(nil), env.Payload...)
	env.Signature = append([]byte(nil), env.Signature...)
	return env
}

// TestTransportVerifiesEachMessageOnce pins the receive table: the first
// copy of a logical message passes the verifier and is entered under its
// (bus sender, nonce); a later byte-identical copy is accepted without
// touching the verifier; a copy that fails is discarded and counted and
// never entered; a different, validly signed envelope under a taken key
// is verified in full and deduplicated as before; and the equivocator's
// two bids still reach the collection as evidence.
func TestTransportVerifiesEachMessageOnce(t *testing.T) {
	t.Run("corrupt copies", func(t *testing.T) {
		g := newRxRig(t)
		orig := g.bid(t, "P1", 2)
		n := g.net.NextNonce()
		g.deliver(t, "P1", "P2", orig, n)
		if g.pending("P2") != 1 || !g.inTable("P1", n) {
			t.Fatalf("first copy: %d pending, in table %v", g.pending("P2"), g.inTable("P1", n))
		}
		// A corrupted copy of the verified message is discarded and
		// counted, and the entry still holds the verified copy.
		bad := copyOf(orig)
		bad.Payload[len(bad.Payload)-1] ^= 1
		g.deliver(t, "P1", "P3", bad, n)
		if g.xp.stats.CorruptDiscards != 1 || g.pending("P3") != 0 {
			t.Fatalf("corrupted copy of a verified message: %d corrupt discards, %d pending", g.xp.stats.CorruptDiscards, g.pending("P3"))
		}
		if mi := g.xp.index[nonceKey{from: "P1", nonce: n}]; !g.xp.first[mi].Matches(&orig) {
			t.Fatal("the table entry no longer holds the verified copy")
		}
		// A corrupted copy of a message nobody has verified yet fails
		// every time it arrives and is never entered.
		n2 := g.net.NextNonce()
		for k := 1; k <= 2; k++ {
			g.deliver(t, "P1", "P2", bad, n2)
			if g.xp.stats.CorruptDiscards != 1+k || g.inTable("P1", n2) {
				t.Fatalf("corrupted first copy, arrival %d: %d corrupt discards, in table %v", k, g.xp.stats.CorruptDiscards, g.inTable("P1", n2))
			}
		}
		// The valid copy that follows is entered, and a byte-identical
		// copy after it, in slices of its own, is accepted with no
		// verification at all.
		g.deliver(t, "P1", "P3", orig, n2)
		if !g.inTable("P1", n2) || g.pending("P3") != 1 {
			t.Fatalf("valid copy after corrupt ones: in table %v, %d pending", g.inTable("P1", n2), g.pending("P3"))
		}
		before := g.deliver(t, "P1", "P2", copyOf(orig), n2)
		if after := g.ver.Stats(); after != before || g.pending("P2") != 2 {
			t.Fatalf("byte-identical copy: verifier %+v → %+v, %d pending; want no verification and the copy kept", before, after, g.pending("P2"))
		}
	})

	t.Run("different envelope under a taken key", func(t *testing.T) {
		g := newRxRig(t)
		first, second := g.bid(t, "P1", 2), g.bid(t, "P1", 3.5)
		n := g.net.NextNonce()
		g.deliver(t, "P1", "P2", first, n)
		before := g.deliver(t, "P1", "P2", second, n)
		after := g.ver.Stats()
		if after.Verified != before.Verified+1 {
			t.Fatalf("second envelope under a taken key: verifier %+v → %+v, want one full verification", before, after)
		}
		if g.xp.stats.DupDiscards != 1 || g.pending("P2") != 1 {
			t.Fatalf("second envelope at a holder: %d dup discards, %d pending", g.xp.stats.DupDiscards, g.pending("P2"))
		}
		// At an endpoint without a copy it is kept, through the verifier
		// again (a memo hit now), while the entry keeps the first copy.
		before = g.deliver(t, "P1", "P3", second, n)
		if after := g.ver.Stats(); after == before || g.pending("P3") != 1 {
			t.Fatalf("second envelope at a non-holder: verifier %+v → %+v, %d pending", before, after, g.pending("P3"))
		}
		mi := g.xp.index[nonceKey{from: "P1", nonce: n}]
		if !g.xp.first[mi].Matches(&first) || g.xp.first[mi].Matches(&second) {
			t.Fatal("the table entry is not the first verified copy")
		}
		for id, want := range map[string]float64{"P2": 2, "P3": 3.5} {
			m, ok := g.xp.takeNonce(id, "P1", n)
			var bp referee.BidPayload
			if !ok {
				t.Fatalf("%s holds no copy", id)
			}
			if err := g.xp.open(m, &bp); err != nil || bp.Bid != want {
				t.Fatalf("%s opens bid %v (%v), want %v", id, bp.Bid, err, want)
			}
		}
		// The same envelope relayed by another bus sender is a logical
		// message of its own: the table is keyed by the bus sender.
		relay := g.net.NextNonce()
		g.deliver(t, referee.Account, "P2", copyOf(first), relay)
		if !g.inTable(referee.Account, relay) || g.pending("P2") != 1 {
			t.Fatalf("relayed copy: in table %v, %d pending", g.inTable(referee.Account, relay), g.pending("P2"))
		}
	})

	t.Run("equivocator evidence", func(t *testing.T) {
		cfg := coldConfig(5)
		cfg.Behaviors = make([]agent.Behavior, 5)
		cfg.Behaviors[2] = agent.Equivocator
		c := captureRound(cfg, (*run).takeBids, (*run).scanBids)
		if c.err != nil {
			t.Fatal(c.err)
		}
		ev, ok := c.evidence[2]
		if !ok || len(c.equivocators) != 1 {
			t.Fatalf("equivocators %v: P3 not detected", c.equivocators)
		}
		if ev[0].Sender != "P3" || ev[1].Sender != "P3" || ev[0].Equal(ev[1]) {
			t.Fatalf("evidence is not two different bids signed by P3: %q, %q", ev[0].Sender, ev[1].Sender)
		}
		if c.out.Fines[2] <= 0 {
			t.Fatalf("P3 not fined on its evidence: fines %v", c.out.Fines)
		}
	})
}

// TestTransportResetMatchesNew plays the same exchange on a new transport
// and on one reset, with its bus, after an earlier run that left copies
// pending under the nonces the exchange reuses, seen bits, table entries,
// stats and a tracer. The reset transport must hand back the exchange's
// own copies, with the same stats, and trace nothing into the earlier
// run's recorder.
func TestTransportResetMatchesNew(t *testing.T) {
	play := func(g *rxRig) ([]*bus.Message, []string, FaultStats) {
		t.Helper()
		var got []*bus.Message
		for i, from := range []string{"P1", "P2"} {
			m, err := g.xp.sendReliable(from, referee.Account, referee.KindBid, g.bid(t, from, float64(5+i)), 1)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m)
		}
		missing, err := g.xp.broadcastReliable("P3", referee.KindBid, g.bid(t, "P3", 7), 1, []string{"P1", "P2"})
		if err != nil {
			t.Fatal(err)
		}
		return got, missing, g.xp.stats
	}
	fresh, reused := newRxRig(t), newRxRig(t)
	rec := obs.NewRecorder()
	reused.xp.tracer = rec
	for i := 0; i < 3; i++ {
		reused.deliver(t, "P1", referee.Account, reused.bid(t, "P1", float64(10+i)), reused.net.NextNonce())
	}
	reused.xp.stats.Retransmits, reused.xp.phaseBackoff = 3, 4
	if err := reused.net.Reset(0.1, nil); err != nil {
		t.Fatal(err)
	}
	if err := reused.xp.reset(reused.ver, RetryPolicy{}); err != nil {
		t.Fatal(err)
	}
	seen := len(rec.Records())
	fm, fmiss, fs := play(fresh)
	rm, rmiss, rs := play(reused)
	if !reflect.DeepEqual(rm, fm) {
		t.Errorf("after reset the exchange took %+v, a new transport %+v", rm, fm)
	}
	if !reflect.DeepEqual(rmiss, fmiss) || rs != fs {
		t.Errorf("after reset: missing %v, stats %+v; a new transport: %v, %+v", rmiss, rs, fmiss, fs)
	}
	if reused.pending(referee.Account) != fresh.pending(referee.Account) {
		t.Errorf("after reset %d copies wait at the referee, %d with a new transport",
			reused.pending(referee.Account), fresh.pending(referee.Account))
	}
	if got := len(rec.Records()); got != seen {
		t.Errorf("the earlier run's recorder received %d records after the reset", got-seen)
	}
}
