package bus

import (
	"reflect"
	"testing"
)

// TestDeliveriesShareOneRecord pins the records behind Drain: every
// recipient of one emission holds the same record; a fault-corrupted
// delivery is a record of its own, and the other recipients' copies
// still verify; a duplicate, a delay or a reorder delivers the shared
// record again; and Reset rewinds the record storage, zeroing what it
// handed out and filing the next round's emissions over the same records,
// under every fault as on a reliable bus.
func TestDeliveriesShareOneRecord(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	reg, env := sealedBy(t, "a", "x")
	drainAll := func(t *testing.T, b *Bus, id string) []*Message {
		t.Helper()
		var held []*Message
		for drain := 0; drain < 2; drain++ { // the second drain releases delayed copies
			msgs, err := b.Drain(id)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, msgs...)
		}
		return held
	}

	t.Run("one emission", func(t *testing.T) {
		b := newBus(t, 0, ids...)
		if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.BroadcastEach([]Broadcast{{From: "a", Kind: "k", Env: env, Size: 1}}); err != nil {
			t.Fatal(err)
		}
		first := drainAll(t, b, "b")
		if len(first) != 2 || first[0] == first[1] {
			t.Fatalf("b holds %d deliveries of two emissions, want two distinct records", len(first))
		}
		for _, id := range ids[2:] {
			held := drainAll(t, b, id)
			if len(held) != 2 || held[0] != first[0] || held[1] != first[1] {
				t.Errorf("%s does not hold the records b holds", id)
			}
		}
	})

	t.Run("corrupted delivery", func(t *testing.T) {
		b := faultyBus(t, &FaultPlan{Seed: 1, Pairs: []PairFault{{From: "a", To: "c", Corrupt: 1}}}, ids...)
		if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
			t.Fatal(err)
		}
		got := map[string]*Message{}
		for _, id := range ids[1:] {
			held := drainAll(t, b, id)
			if len(held) != 1 {
				t.Fatalf("%s holds %d deliveries, want 1", id, len(held))
			}
			got[id] = held[0]
		}
		if got["b"] != got["d"] {
			t.Error("the clean recipients hold different records")
		}
		if got["c"] == got["b"] || got["c"].Env.Verify(reg) == nil {
			t.Error("the corrupted delivery shares the clean record or still verifies")
		}
		for _, id := range []string{"b", "d"} {
			if err := got[id].Env.Verify(reg); err != nil {
				t.Errorf("%s's copy no longer verifies after c's was corrupted: %v", id, err)
			}
		}
	})

	t.Run("duplicate, delay and reorder", func(t *testing.T) {
		b := faultyBus(t, &FaultPlan{Seed: 3, Duplicate: 1, Delay: 0.5, Reorder: 0.5}, ids...)
		for range 4 {
			if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		record := map[uint64]*Message{} // nonce → the record its first holder holds
		for _, id := range ids[1:] {
			for _, msg := range drainAll(t, b, id) {
				if rec, ok := record[msg.Nonce]; !ok {
					record[msg.Nonce] = msg
				} else if rec != msg {
					t.Fatalf("%s holds a copy of emission %d that is not its record", id, msg.Nonce)
				}
			}
		}
		if st := b.Stats(); len(record) != 4 || st.Duplicated == 0 || st.Delayed == 0 || st.Reordered == 0 {
			t.Fatalf("%d records for 4 emissions, stats %+v: want every fault drawn", len(record), st)
		}
	})

	t.Run("reset rewinds", func(t *testing.T) {
		b := newBus(t, 0, ids...)
		// 40 emissions fill the first two chunks (8 and 16 records at
		// four endpoints) and reach into the third.
		round := func() []*Message {
			var recs []*Message
			for i := 0; i < 40; i++ {
				if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
					t.Fatal(err)
				}
				recs = append(recs, drainAll(t, b, "b")...)
				for _, id := range ids[2:] {
					drainAll(t, b, id)
				}
			}
			for i, rec := range recs {
				if rec.Nonce != uint64(i+1) {
					t.Fatalf("record %d holds emission %d: a later chunk moved it", i+1, rec.Nonce)
				}
			}
			return recs
		}
		before := round()
		if err := b.Reset(0, nil); err != nil {
			t.Fatal(err)
		}
		for i, rec := range before {
			if !reflect.DeepEqual(*rec, Message{}) {
				t.Fatalf("record %d survived the Reset: %+v", i+1, *rec)
			}
		}
		after := round()
		for i := range before {
			if after[i] != before[i] {
				t.Fatalf("emission %d after the Reset was filed in a record of its own", i+1)
			}
		}
	})

	t.Run("reset under faults", func(t *testing.T) {
		plan := &FaultPlan{Seed: 5, Drop: 0.1, Duplicate: 0.3, Delay: 0.3, Corrupt: 0.2, Reorder: 0.3}
		round := func(b *Bus) (map[string][]Message, Stats) {
			for i, from := range ids {
				if _, err := broadcast(b, from, "k", testEnv(t, from, int64(i+1), i), 1, 0); err != nil {
					t.Fatal(err)
				}
			}
			inboxes := map[string][]Message{}
			for _, id := range ids {
				for _, msg := range drainAll(t, b, id) {
					inboxes[id] = append(inboxes[id], *msg)
				}
			}
			return inboxes, b.Stats()
		}
		fresh := faultyBus(t, plan, ids...)
		reused := faultyBus(t, plan, ids...)
		for i := 0; i < 3; i++ {
			round(reused)
		}
		if err := reused.Reset(0.1, plan); err != nil {
			t.Fatal(err)
		}
		fi, fs := round(fresh)
		ri, rs := round(reused)
		if !reflect.DeepEqual(ri, fi) || rs != fs {
			t.Errorf("after Reset the round delivered %+v (stats %+v), a fresh bus %+v (%+v)", ri, rs, fi, fs)
		}
		if fs.Corrupted == 0 || fs.Duplicated == 0 || fs.Delayed == 0 || fs.Reordered == 0 {
			t.Errorf("stats %+v: want every fault drawn", fs)
		}
	})
}
