package bus

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

func testEnv(t *testing.T, id string, seed int64, v any) sig.Envelope {
	t.Helper()
	k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sig.Seal(k, "test", v)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// broadcast sends one broadcast as a one-entry BroadcastEach batch and
// returns the nonce in force.
func broadcast(b *Bus, from, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error) {
	bs := []Broadcast{{From: from, Kind: kind, Env: env, Size: size, Nonce: nonce}}
	err := b.BroadcastEach(bs)
	return bs[0].Nonce, err
}

func newBus(t *testing.T, z float64, ids ...string) *Bus {
	t.Helper()
	b, err := New(z)
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

func TestNewRejectsInvalidZ(t *testing.T) {
	if _, err := New(-1); err == nil {
		t.Error("negative z accepted")
	}
}

func TestAttach(t *testing.T) {
	b := newBus(t, 0.5, "P1")
	if err := b.Attach("P1"); err == nil {
		t.Error("duplicate attach accepted")
	}
	if err := b.Attach(""); err == nil {
		t.Error("empty id accepted")
	}
	if err := b.Attach(BroadcastAddr); err == nil {
		t.Error("broadcast address accepted as endpoint")
	}
	b2 := newBus(t, 0.5, "P2", "P1", "referee")
	ids := b2.order
	want := []string{"P1", "P2", "referee"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("endpoints = %v, want %v", ids, want)
		}
	}
}

func TestBroadcastReachesAllOthers(t *testing.T) {
	b := newBus(t, 0.1, "P1", "P2", "P3")
	env := testEnv(t, "P1", 1, map[string]float64{"bid": 2})
	if _, err := broadcast(b, "P1", "bid", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	own, err := b.Drain("P1")
	if err != nil {
		t.Fatal(err)
	}
	if len(own) != 0 {
		t.Errorf("sender received its own broadcast: %v", own)
	}
	for _, id := range []string{"P2", "P3"} {
		msgs, err := b.Drain(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("%s received %d messages, want 1", id, len(msgs))
		}
		m := msgs[0]
		if m.From != "P1" || m.To != BroadcastAddr || m.Kind != "bid" || m.Size != 1 {
			t.Errorf("%s got %+v", id, m)
		}
		if !m.Env.Equal(env) {
			t.Errorf("%s received a non-identical broadcast copy", id)
		}
	}
}

func TestSendUnicast(t *testing.T) {
	b := newBus(t, 0.1, "P1", "referee")
	env := testEnv(t, "P1", 2, []float64{1, 2, 3})
	if err := b.Send("P1", "referee", "payments", env, 3); err != nil {
		t.Fatal(err)
	}
	msgs, err := b.Drain("referee")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].To != "referee" || msgs[0].Size != 3 {
		t.Errorf("referee inbox = %+v", msgs)
	}
	if err := b.Send("ghost", "referee", "x", env, 1); err == nil {
		t.Error("unknown sender accepted")
	}
	if err := b.Send("P1", "ghost", "x", env, 1); err == nil {
		t.Error("unknown receiver accepted")
	}
	if err := b.Send("P1", "referee", "x", env, -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := broadcast(b, "ghost", "x", env, 1, 0); err == nil {
		t.Error("unknown broadcaster accepted")
	}
	if _, err := broadcast(b, "P1", "x", env, -2, 0); err == nil {
		t.Error("negative broadcast size accepted")
	}
}

func TestDrainEmptiesInbox(t *testing.T) {
	b := newBus(t, 0, "P1", "P2")
	env := testEnv(t, "P1", 3, 1)
	if _, err := broadcast(b, "P1", "bid", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	first, err := b.Drain("P2")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 {
		t.Fatalf("first drain = %d messages", len(first))
	}
	second, err := b.Drain("P2")
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 0 {
		t.Error("drain did not empty the inbox")
	}
	if _, err := b.Drain("ghost"); err == nil {
		t.Error("unknown endpoint drained")
	}
}

func TestStatsAccounting(t *testing.T) {
	b := newBus(t, 0, "P1", "P2", "P3", "referee")
	env := testEnv(t, "P1", 4, 1)
	if _, err := broadcast(b, "P1", "bid", env, 1, 0); err != nil { // 3 deliveries
		t.Fatal(err)
	}
	if err := b.Send("P2", "referee", "payments", env, 4); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Messages != 2 || s.Units != 5 || s.Broadcasts != 1 || s.Unicasts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.Deliveries != 4 || s.DeliveredUnits != 7 {
		t.Errorf("delivery stats = %+v", s)
	}
}

func TestReserveTransferSerializes(t *testing.T) {
	b := newBus(t, 2, "P1")
	s1, e1, err := b.ReserveTransferTo(0, 0.5, "") // 1 time unit
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 0 || e1 != 1 {
		t.Errorf("first transfer [%v,%v), want [0,1)", s1, e1)
	}
	s2, e2, err := b.ReserveTransferTo(0, 0.25, "") // 0.5 units, must queue
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 1 || e2 != 1.5 {
		t.Errorf("second transfer [%v,%v), want [1,1.5)", s2, e2)
	}
	if _, _, err := b.ReserveTransferTo(0, -0.1, ""); err == nil {
		t.Error("negative fraction accepted")
	}
}

// Property: after any sequence of broadcasts, Deliveries =
// Messages·(endpoints−1) and every inbox except senders' holds all
// messages.
func TestQuickBroadcastFanout(t *testing.T) {
	f := func(seed int64, nEndpoints, nMsgs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nEndpoints)%8
		k := int(nMsgs) % 20
		b, err := New(0.1)
		if err != nil {
			return false
		}
		ids := make([]string, n)
		for i := range ids {
			ids[i] = string(rune('A' + i))
			if err := b.Attach(ids[i]); err != nil {
				return false
			}
		}
		for j := 0; j < k; j++ {
			from := ids[rng.Intn(n)]
			if _, err := broadcast(b, from, "m", sig.Envelope{Sender: from}, 1, 0); err != nil {
				return false
			}
		}
		s := b.Stats()
		return s.Messages == k && s.Deliveries == k*(n-1) && s.Units == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// eventLog records every delivery event's kind, endpoints and message
// kind, in order.
type eventLog []string

func (l *eventLog) BeginPhase(name, round, epoch string) {}
func (l *eventLog) EndPhase(name string)                 {}
func (l *eventLog) Event(e obs.Event) {
	*l = append(*l, e.Kind+" "+e.From+"→"+e.To+" "+e.Msg)
}

// TestBroadcastEachIsTheLoop pins a BroadcastEach batch on the simulated
// bus to its broadcasts sent one batch each, in a loop: under the same
// seeded fault plan, the same nonces, inbox contents and order, stats
// and delivery events.
func TestBroadcastEachIsTheLoop(t *testing.T) {
	plan := &FaultPlan{Seed: 11, Drop: 0.2, Duplicate: 0.2, Delay: 0.2, Corrupt: 0.1, Reorder: 0.3}
	ids := []string{"P1", "P2", "P3", "P4", "referee"}
	var batch []Broadcast
	for i, from := range ids[:4] {
		batch = append(batch, Broadcast{From: from, Kind: "bid", Env: testEnv(t, from, int64(i+1), i), Size: 1})
	}
	batch = append(batch, Broadcast{From: "P2", Kind: "bid", Env: testEnv(t, "P2", 9, 9), Size: 1, Nonce: 42})
	run := func(each bool) ([]uint64, map[string][]*Message, Stats, eventLog) {
		b := faultyBus(t, plan, ids...)
		var events eventLog
		b.SetTracer(&events)
		var nonces []uint64
		if each {
			bs := slices.Clone(batch)
			if err := b.BroadcastEach(bs); err != nil {
				t.Fatal(err)
			}
			for _, x := range bs {
				nonces = append(nonces, x.Nonce)
			}
		} else {
			for _, x := range batch {
				n, err := broadcast(b, x.From, x.Kind, x.Env, x.Size, x.Nonce)
				if err != nil {
					t.Fatal(err)
				}
				nonces = append(nonces, n)
			}
		}
		inboxes := map[string][]*Message{}
		for _, id := range ids {
			for drain := 0; drain < 2; drain++ { // the second drain releases delayed copies
				msgs, err := b.Drain(id)
				if err != nil {
					t.Fatal(err)
				}
				inboxes[id] = append(inboxes[id], msgs...)
			}
		}
		return nonces, inboxes, b.Stats(), events
	}
	loopN, loopIn, loopSt, loopEv := run(false)
	eachN, eachIn, eachSt, eachEv := run(true)
	if !reflect.DeepEqual(eachN, loopN) || eachN[4] != 42 {
		t.Errorf("nonces: BroadcastEach %v, loop %v", eachN, loopN)
	}
	if !reflect.DeepEqual(eachIn, loopIn) {
		t.Error("inboxes differ from the loop's")
	}
	if eachSt != loopSt || loopSt.Dropped+loopSt.Duplicated+loopSt.Delayed+loopSt.Corrupted+loopSt.Reordered == 0 {
		t.Errorf("stats: BroadcastEach %+v, loop %+v (want equal, with faults drawn)", eachSt, loopSt)
	}
	if !reflect.DeepEqual(eachEv, loopEv) {
		t.Errorf("events differ:\n each %v\n loop %v", eachEv, loopEv)
	}
}

// TestDetach pins endpoint release: a detached endpoint loses what was
// queued or delayed for it, later broadcasts skip it, traffic naming it
// fails as unknown, and it can be attached again.
func TestDetach(t *testing.T) {
	b := faultyBus(t, &FaultPlan{Seed: 3, Delay: 1}, "P1", "P2", "P3")
	env := testEnv(t, "P1", 1, 1)
	if _, err := broadcast(b, "P1", "bid", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	b.Detach("P2")
	b.Detach("P2") // a second detach does nothing
	b.Detach("ghost")
	if got := b.order; !reflect.DeepEqual(got, []string{"P1", "P3"}) {
		t.Fatalf("endpoints after detaching P2: %v", got)
	}
	if _, err := broadcast(b, "P1", "bid", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	if st := b.Stats(); st.Deliveries != 3 {
		t.Errorf("Deliveries = %d, want 3: the second broadcast must skip P2", st.Deliveries)
	}
	if _, err := b.Drain("P2"); err == nil {
		t.Error("drained a detached endpoint")
	}
	if _, err := b.SendTagged("P1", "P2", "k", env, 1, 0); err == nil {
		t.Error("sent to a detached endpoint")
	}
	if err := b.Attach("P2"); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	for drain := 0; drain < 2; drain++ {
		if msgs, err := b.Drain("P2"); err != nil || len(msgs) != 0 {
			t.Fatalf("re-attached P2 drained %d messages (%v), want none of the old ones", len(msgs), err)
		}
	}
}

// TestResetMatchesFreshBus resets one reliable bus through the plans
// A → B → nil → A and, after each Reset, plays the same round on it and
// on a bus freshly built under that plan. Before each Reset the bus plays
// another round (traffic left in its inboxes, delayed copies staged, an
// endpoint marked dead, the data plane booked, a tracer installed). The
// round's nonces (from 1), inboxes, stats (from zero), delivery events —
// the fault draws, delivery by delivery — and data-plane reservation
// must match, and the earlier tracer must see nothing more.
func TestResetMatchesFreshBus(t *testing.T) {
	ids := []string{"P1", "P2", "P3", "referee"}
	a := &FaultPlan{Seed: 5, Drop: 0.2, Duplicate: 0.2, Delay: 0.3, Reorder: 0.3}
	b := &FaultPlan{Seed: 8, Drop: 0.1, Corrupt: 0.2, Reorder: 0.4, JitterMax: 0.5,
		Unresponsive: []string{"P3"}, Pairs: []PairFault{{From: "P1", To: "P2", Drop: 0.5, Jitter: 0.2}}}
	round := func(b *Bus) ([]uint64, map[string][]*Message, Stats, eventLog, [2]float64) {
		var events eventLog
		b.SetTracer(&events)
		var nonces []uint64
		for i, from := range ids[:3] {
			n, err := broadcast(b, from, "bid", testEnv(t, from, int64(i+1), i), 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			nonces = append(nonces, n)
		}
		n, err := b.SendTagged("P2", "referee", "claim", testEnv(t, "P2", 7, 7), 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		nonces = append(nonces, n)
		start, end, err := b.ReserveTransferTo(0, 0.5, "P2")
		if err != nil {
			t.Fatal(err)
		}
		inboxes := map[string][]*Message{}
		for _, id := range ids {
			for drain := 0; drain < 2; drain++ {
				msgs, err := b.Drain(id)
				if err != nil {
					t.Fatal(err)
				}
				inboxes[id] = append(inboxes[id], msgs...)
			}
		}
		return nonces, inboxes, b.Stats(), events, [2]float64{start, end}
	}
	reused := newBus(t, 0.7, ids...)
	for k, plan := range []*FaultPlan{a, b, nil, a} {
		fresh := faultyBus(t, plan, ids...)
		var earlier eventLog
		reused.SetTracer(&earlier)
		for i := 0; i < 5; i++ {
			if _, err := broadcast(reused, "P3", "noise", testEnv(t, "P3", 9, i), 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := reused.Drain("P1"); err != nil {
			t.Fatal(err)
		}
		reused.MarkUnresponsive("P2")
		if _, _, err := reused.ReserveTransferTo(0, 3, "P1"); err != nil {
			t.Fatal(err)
		}
		if err := reused.Reset(0.1, plan); err != nil { // faultyBus's z
			t.Fatal(err)
		}
		seen := len(earlier)

		fn, fi, fs, fe, fr := round(fresh)
		rn, ri, rs, re, rr := round(reused)
		if !reflect.DeepEqual(rn, fn) || rn[0] != 1 {
			t.Errorf("step %d, plan %v: nonces %v after Reset, %v on a fresh bus", k, plan, rn, fn)
		}
		if !reflect.DeepEqual(ri, fi) {
			t.Errorf("step %d, plan %v: inboxes differ from a fresh bus's", k, plan)
		}
		if rs != fs {
			t.Errorf("step %d, plan %v: stats %+v after Reset, %+v on a fresh bus", k, plan, rs, fs)
		}
		if plan != nil && fs.Dropped+fs.Duplicated+fs.Delayed+fs.Corrupted+fs.Reordered == 0 {
			t.Errorf("step %d, plan %v: the round drew no fault", k, plan)
		}
		if !reflect.DeepEqual(re, fe) {
			t.Errorf("step %d, plan %v: delivery events differ from a fresh bus's:\n reset %v\n fresh %v", k, plan, re, fe)
		}
		if rr != fr {
			t.Errorf("step %d, plan %v: transfer booked at %v after Reset, %v on a fresh bus", k, plan, rr, fr)
		}
		if len(earlier) != seen {
			t.Errorf("step %d, plan %v: the tracer installed before Reset saw %d more events", k, plan, len(earlier)-seen)
		}
		if got := reused.order; !reflect.DeepEqual(got, fresh.order) {
			t.Errorf("step %d, plan %v: endpoints %v after Reset", k, plan, got)
		}
	}
	if err := newBus(t, 1, "P1").Reset(-1, nil); err == nil {
		t.Error("Reset accepted a negative transfer time")
	}
	if err := newBus(t, 1, "P1").Reset(1, &FaultPlan{Drop: 2}); err == nil {
		t.Error("Reset accepted an invalid fault plan")
	}
}

// TestResetReusesFaultState pins that a Reset under a fault plan
// reseeds the bus's fault state in place: once a plan has been
// instantiated, a Reset under any plan allocates no more than one
// without a plan does (the data-plane port). Building the fault state
// afresh costs a new PRNG source of about 4.9 KB and its maps.
func TestResetReusesFaultState(t *testing.T) {
	plan := &FaultPlan{Seed: 3, Drop: 0.1, Reorder: 0.2, Unresponsive: []string{"P3"},
		Pairs: []PairFault{{From: "P1", To: "P2", Drop: 1}}}
	b := faultyBus(t, plan, "P1", "P2", "P3", "referee")
	reset := func(p *FaultPlan) func() {
		return func() {
			if err := b.Reset(0.1, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(20, reset(nil))
	if got := testing.AllocsPerRun(20, reset(plan)); got > base {
		t.Errorf("a Reset under a fault plan allocates %.0f times, without a plan %.0f", got, base)
	}
}
