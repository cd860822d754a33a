package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dlsbl/internal/adversarytest"
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

// takeNonce removes and returns endpoint id's pending copy with the
// given logical identity, if present.
func (t *transport) takeNonce(id, from string, nonce uint64) (*bus.Message, bool) {
	var got *bus.Message
	t.takeEach(id, func(m *bus.Message) bool {
		if got != nil || m.From != from || m.Nonce != nonce {
			return false
		}
		got = m
		return true
	})
	return got, got != nil
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
		n := uint64(1)
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
		n2 := uint64(2)
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
		n := uint64(1)
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
		relay := uint64(2)
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

// TestDeliverTakesOnlyItsSender pins that the delivery loop takes a copy
// for a logical message only from that message's bus sender: a validly
// signed copy another endpoint sent earlier under the same nonce stays
// pending, and the loop returns the sender's own.
func TestDeliverTakesOnlyItsSender(t *testing.T) {
	g := newRxRig(t)
	// The bus numbers the next fresh nonce 1; P3 sends under it first.
	g.deliver(t, "P3", referee.Account, g.bid(t, "P3", 4), 1)
	m, err := g.xp.sendReliable("P1", referee.Account, referee.KindBid, g.bid(t, "P1", 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != "P1" || m.Nonce != 1 || g.pending(referee.Account) != 1 {
		t.Fatalf("took %s's copy under nonce %d, %d left pending; want P1's under 1 and P3's pending", m.From, m.Nonce, g.pending(referee.Account))
	}
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
		reused.deliver(t, "P1", referee.Account, reused.bid(t, "P1", float64(10+i)), uint64(i+1))
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

// The reliable sends as they stood before they became callers of
// transport.deliver. Only what the medium no longer offers is adapted:
// the first transmission's SendTagged allocates the nonce NextNonce used
// to, a one-entry BroadcastEach stands in for BroadcastTagged, and the
// broadcast also returns the copy each receiver took, which the original
// consumed. TestReliableSendsMatchReference holds the folded loop to
// them.

// oracleSendReliable is the reference transport.sendReliable.
func oracleSendReliable(t *transport, from, to, kind string, env sig.Envelope, size int) (*bus.Message, error) {
	var nonce uint64
	for attempt := 1; ; attempt++ {
		n, err := t.net.SendTagged(from, to, kind, env, size, nonce)
		if err != nil {
			return nil, err
		}
		nonce = n
		if attempt > 1 {
			t.stats.Retransmits++
			t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: to, Msg: kind})
		}
		if err := t.pull(to); err != nil {
			return nil, err
		}
		if m, ok := t.takeNonce(to, from, nonce); ok {
			return m, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, To: to, Msg: kind})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			return nil, fmt.Errorf("%w: %s → %s (%s) after %d attempts",
				ErrUnreachable, from, to, kind, attempt)
		}
	}
}

// oracleBroadcastReliable is the reference transport.broadcastReliable;
// took[k] is the copy receivers[k] took, nil if none.
func oracleBroadcastReliable(t *transport, from, kind string, env sig.Envelope, size int, receivers []string) (out []string, took []*bus.Message, err error) {
	bs := []bus.Broadcast{{From: from, Kind: kind, Env: env, Size: size}}
	if err := t.net.BroadcastEach(bs); err != nil {
		return nil, nil, err
	}
	nonce := bs[0].Nonce
	missing := make([]bool, len(receivers))
	for k := range missing {
		missing[k] = true
	}
	took = make([]*bus.Message, len(receivers))
	left := len(receivers)
	for attempt := 1; ; attempt++ {
		for k, r := range receivers {
			if !missing[k] {
				continue
			}
			if err := t.pull(r); err != nil {
				return nil, nil, err
			}
			if m, ok := t.takeNonce(r, from, nonce); ok {
				missing[k] = false
				took[k] = m
				left--
			}
		}
		if left == 0 {
			return nil, took, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, Msg: kind,
			Detail: fmt.Sprintf("%d receivers missing", left)})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			for k, r := range receivers {
				if missing[k] {
					out = append(out, r)
				}
			}
			return out, took, nil
		}
		for k, r := range receivers {
			if missing[k] {
				if _, err := t.net.SendTagged(from, r, kind, env, size, nonce); err != nil {
					return nil, nil, err
				}
				t.stats.Retransmits++
				t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: r, Msg: kind})
			}
		}
	}
}

// sendCase is one seeded case of TestReliableSendsMatchReference: the
// endpoints P1… (and sometimes a bystander that awaits nothing) on a bus
// under plan, and either one broadcast from P1 to the other Pi or a
// sequence of unicasts.
type sendCase struct {
	name      string
	ids       []string
	plan      *bus.FaultPlan
	policy    RetryPolicy
	receivers []string    // the broadcast's, when sends is empty
	sends     [][2]string // the unicasts' (from, to), in order
}

// drawSendCase draws case k: 2 to 16 receivers; a reliable bus, loss and
// duplication, delay and reordering, corruption, an unresponsive
// receiver or severed pairs; an attempt budget of 1 to 8, and a phase
// deadline in one case of three.
func drawSendCase(k int) sendCase {
	rng := rand.New(rand.NewSource(int64(104729 * (k + 1))))
	n := 2 + rng.Intn(15)
	c := sendCase{policy: RetryPolicy{MaxAttempts: 1 + rng.Intn(8)}}
	if rng.Intn(3) == 0 {
		c.policy.PhaseDeadline = float64(1 + rng.Intn(12))
	}
	for i := 0; i <= n; i++ {
		c.ids = append(c.ids, adversarytest.ProcID(i))
	}
	broadcast := (k/6)%2 == 0
	if broadcast {
		c.receivers = c.ids[1:]
	} else {
		for len(c.sends) < 1+rng.Intn(2*n) {
			from, to := c.ids[rng.Intn(n+1)], c.ids[rng.Intn(n+1)]
			if from != to {
				c.sends = append(c.sends, [2]string{from, to})
			}
		}
	}
	if rng.Intn(4) == 0 {
		c.ids = append(c.ids, referee.StandbyAccount)
	}
	// victim is a receiver the plan singles out: the broadcast's, or the
	// addressee of a unicast.
	victim, sender := c.ids[1+rng.Intn(n)], c.ids[0]
	if !broadcast {
		s := c.sends[rng.Intn(len(c.sends))]
		sender, victim = s[0], s[1]
	}
	p := &bus.FaultPlan{Seed: int64(5000 + k)}
	kind := ""
	switch k % 6 {
	case 0:
		kind, p = "reliable", nil
	case 1:
		kind = "loss"
		p.Drop, p.Duplicate = 0.5*rng.Float64(), 0.3*rng.Float64()
	case 2:
		kind = "delay+reorder"
		p.Delay, p.Reorder, p.Duplicate = 0.4*rng.Float64(), 0.6*rng.Float64(), 0.3*rng.Float64()
	case 3:
		kind = "corrupt"
		p.Corrupt, p.Drop, p.Duplicate = 0.3*rng.Float64(), 0.1, 0.2
	case 4:
		kind = "unresponsive"
		p.Drop, p.Reorder, p.Unresponsive = 0.1, 0.3, []string{victim}
	case 5:
		kind = "pairs"
		drop := 1.0
		if rng.Intn(2) == 1 {
			drop = 0.5
		}
		p.Pairs = []bus.PairFault{{From: sender, To: victim, Drop: drop}}
		p.Delay, p.Duplicate = 0.2, 0.2
	}
	c.plan = p
	shape := fmt.Sprintf("%d unicasts", len(c.sends))
	if broadcast {
		shape = fmt.Sprintf("broadcast to %d", n)
	}
	c.name = fmt.Sprintf("case %d (%s, %s, %d attempts)", k, shape, kind, c.policy.MaxAttempts)
	return c
}

// sendRig is a transport over a simulated bus under c's plan, with c's
// endpoints attached and their keys registered.
func sendRig(t *testing.T, c sendCase, keys map[string]*sig.KeyPair) (*bus.Bus, *transport) {
	t.Helper()
	net, err := bus.NewFaulty(0.1, c.plan)
	if err != nil {
		t.Fatal(err)
	}
	reg := sig.NewRegistry()
	for _, id := range c.ids {
		if err := reg.Register(id, keys[id].Public); err != nil {
			t.Fatal(err)
		}
		if err := net.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	xp, err := newTransport(net, sig.NewBatchVerifier(reg, nil), c.policy)
	if err != nil {
		t.Fatal(err)
	}
	return net, xp
}

// sameCopy reports whether two delivered copies carry the same sender,
// nonce and envelope bytes; a nil copy matches only a nil one.
func sameCopy(a, b *bus.Message) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.From == b.From && a.Nonce == b.Nonce && a.Env.Equal(b.Env)
}

// TestReliableSendsMatchReference plays 240 seeded cases through the
// folded delivery loop and through the reference sends above, each on a
// bus of its own built from the same plan. Every case must deliver the
// same copies (sender, nonce and bytes) and miss the same receivers or
// fail with the same error, with the same Retransmits, Timeouts and
// BackoffTime and the same bus Stats. A unicast case plays a sequence
// of sendReliable calls and must match the discard counters too. A
// broadcast case plays broadcastReliable, and the loop itself with rows
// to read the copies it took, on two more buses: later attempts also
// drain receivers that already hold their copy, so they may count more
// discards than the reference, never fewer.
func TestReliableSendsMatchReference(t *testing.T) {
	keys := map[string]*sig.KeyPair{}
	for i := 0; i <= 17; i++ {
		id := referee.StandbyAccount
		if i > 0 {
			id = adversarytest.ProcID(i - 1)
		}
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = k
	}
	const cases = 240
	retried, missed, moreDiscards := 0, 0, 0
	for k := 0; k < cases; k++ {
		c := drawSendCase(k)
		refNet, ref := sendRig(t, c, keys)
		foldNet, fold := sendRig(t, c, keys)
		if len(c.sends) > 0 {
			for i, s := range c.sends {
				env := sealBid(t, keys[s[0]], s[0], float64(i+1))
				want, wantErr := oracleSendReliable(ref, s[0], s[1], referee.KindBid, env, 1)
				got, err := fold.sendReliable(s[0], s[1], referee.KindBid, env, 1)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameCopy(got, want) {
					t.Fatalf("%s, send %d %s → %s: took %+v (%v), reference %+v (%v)", c.name, i, s[0], s[1], got, err, want, wantErr)
				}
				if wantErr != nil {
					missed++
				}
			}
			if fold.stats != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", c.name, fold.stats, ref.stats)
			}
		} else {
			loopNet, loop := sendRig(t, c, keys)
			from := c.ids[0]
			env := sealBid(t, keys[from], from, 1)
			wantOut, took, wantErr := oracleBroadcastReliable(ref, from, referee.KindBid, env, 1, c.receivers)
			gotOut, err := fold.broadcastReliable(from, referee.KindBid, env, 1, c.receivers)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("%s: missing %v (%v), reference %v (%v)", c.name, gotOut, err, wantOut, wantErr)
			}
			bs := []bus.Broadcast{{From: from, Kind: referee.KindBid, Env: env, Size: 1}}
			if err := loop.emit(bs, ""); err != nil {
				t.Fatal(err)
			}
			rows := make([][]*bus.Message, len(c.receivers))
			pairs, _, err := loop.deliver(bs, c.receivers, rows)
			if err != nil {
				t.Fatal(err)
			}
			for r, row := range rows {
				var got *bus.Message
				if len(row) > 0 {
					got = row[0]
				}
				if len(row) > 1 || pairs[r] != (got == nil) || !sameCopy(got, took[r]) {
					t.Fatalf("%s: %s took %d copies %+v (missing %v), reference %+v", c.name, c.receivers[r], len(row), row, pairs[r], took[r])
				}
			}
			if loop.stats != fold.stats || loopNet.Stats() != foldNet.Stats() {
				t.Fatalf("%s: the loop counts %+v and %+v, broadcastReliable %+v and %+v", c.name, loop.stats, loopNet.Stats(), fold.stats, foldNet.Stats())
			}
			if fold.stats.DupDiscards < ref.stats.DupDiscards || fold.stats.CorruptDiscards < ref.stats.CorruptDiscards {
				t.Fatalf("%s: fewer discards than the reference: %+v, %+v", c.name, fold.stats, ref.stats)
			}
			if fold.stats.DupDiscards+fold.stats.CorruptDiscards > ref.stats.DupDiscards+ref.stats.CorruptDiscards {
				moreDiscards++
			}
			if len(wantOut) > 0 {
				missed++
			}
		}
		f, r := fold.stats, ref.stats
		if f.Retransmits != r.Retransmits || f.Timeouts != r.Timeouts || f.BackoffTime != r.BackoffTime || f.Evictions != r.Evictions {
			t.Fatalf("%s: stats %+v, reference %+v", c.name, f, r)
		}
		if refNet.Stats() != foldNet.Stats() {
			t.Fatalf("%s: bus stats %+v, reference %+v", c.name, foldNet.Stats(), refNet.Stats())
		}
		if r.Retransmits > 0 {
			retried++
		}
	}
	t.Logf("%d cases: %d retried, %d with a receiver missed, %d broadcasts with extra discards", cases, retried, missed, moreDiscards)
	if retried < cases/4 || missed == 0 || moreDiscards == 0 {
		t.Fatal("the sweep lost its coverage")
	}
}

// sealBid seals a bid of the given value under k.
func sealBid(t *testing.T, k *sig.KeyPair, from string, v float64) sig.Envelope {
	t.Helper()
	env, err := sig.SealBinary(k, referee.KindBid, referee.BidPayload{Proc: from, Bid: v})
	if err != nil {
		t.Fatal(err)
	}
	return env
}
