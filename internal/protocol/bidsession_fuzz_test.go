package protocol

import (
	"reflect"
	"testing"

	"dlsbl/internal/dlt"
)

// FuzzBidSessionMembership drives a BidSession through arbitrary
// interleavings of rounds, joins, leaves and rate announcements and
// checks it against an independent membership model. Two invariants,
// asserted after every round:
//
//  1. No stale member sets: the round's participant set is exactly the
//     model's current active set — a member that joined is served, a
//     member that left never is.
//  2. No spurious re-bids: the round reuses the cached bids if and only
//     if the active set and announced rates are unchanged since the
//     round that captured the cache. In particular, announcing a rate a
//     member already has, or changing a rate and reverting it before the
//     next round, must NOT trigger a rebid.
//  3. Nothing carries over between rounds: a twin session fed the same
//     operations but dropping its round state before every round yields
//     reflect.DeepEqual outcomes and the same errors.
//
// The input is a byte stream of (op, arg) pairs: op%4 selects
// run/join/leave/announce, arg parameterizes it. The model never looks at
// bidProfile or the session internals — it recomputes expectations from
// first principles, so the two can disagree.
func FuzzBidSessionMembership(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))                         // run ×3: one bid, two reuses
	f.Add([]byte("\x00\x00\x01\x04\x00\x00\x00\x00"))                 // join mid-stream
	f.Add([]byte("\x00\x00\x02\x01\x00\x00"))                         // leave mid-stream
	f.Add([]byte("\x00\x00\x03\x05\x00\x00\x03\x05\x00\x00"))         // rate change, then same-rate announce
	f.Add([]byte("\x00\x00\x03\x09\x03\x01\x00\x00"))                 // change then revert before the round
	f.Add([]byte("\x01\x07\x02\x02\x03\x06\x00\x00\x02\x01\x00\x00")) // churn burst
	f.Add([]byte("\x02\x00\x02\x07\x03\x00"))                         // illegal ops only

	f.Fuzz(func(t *testing.T, ops []byte) {
		s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		twin.freshState = true
		// The model.
		rates := []float64{2, 3, 4}
		gone := []bool{false, false, false}
		active := func() int {
			n := 0
			for _, g := range gone {
				if !g {
					n++
				}
			}
			return n
		}
		var snapRates []float64 // announced rates when the cache was captured
		var snapGone []bool     // membership when the cache was captured
		const maxOps = 24
		steps := 0

		rateOf := func(arg byte) float64 { return 0.5 + float64(arg%16)*0.25 }

		for k := 0; k+1 < len(ops) && steps < maxOps; k += 2 {
			steps++
			op, arg := ops[k], ops[k+1]
			switch op % 4 {
			case 0: // serve a round
				out, err := s.Run(JobConfig{Seed: 42, NBlocks: 4 * len(rates)})
				if err != nil {
					t.Fatalf("step %d: %v", steps, err)
				}
				fresh, err := twin.Run(JobConfig{Seed: 42, NBlocks: 4 * len(rates)})
				if err != nil {
					t.Fatalf("step %d: the twin without round state: %v", steps, err)
				}
				if !reflect.DeepEqual(out, fresh) {
					t.Fatalf("step %d: the outcome differs from the twin's, whose round state is built afresh", steps)
				}
				if !out.Completed {
					t.Fatalf("step %d: honest round did not complete", steps)
				}
				if len(out.Participated) != len(rates) {
					t.Fatalf("step %d: round over %d members, model has %d", steps, len(out.Participated), len(rates))
				}
				for i := range rates {
					if out.Participated[i] == gone[i] {
						t.Fatalf("step %d: member P%d participated=%v but gone=%v — stale member set",
							steps, i+1, out.Participated[i], gone[i])
					}
				}
				wantReuse := snapGone != nil && len(snapGone) == len(gone)
				if wantReuse {
					for i := range gone {
						if gone[i] != snapGone[i] || (!gone[i] && rates[i] != snapRates[i]) {
							wantReuse = false
							break
						}
					}
				}
				if out.BidReused != wantReuse {
					t.Fatalf("step %d: BidReused=%v, model expects %v (gone=%v rates=%v snapGone=%v snapRates=%v)",
						steps, out.BidReused, wantReuse, gone, rates, snapGone, snapRates)
				}
				snapRates = append([]float64(nil), rates...)
				snapGone = append([]bool(nil), gone...)

			case 1: // join
				if len(rates) >= 8 {
					continue // keep the pool small; skip in both model and impl
				}
				w := rateOf(arg)
				idx, err := s.Join(w)
				if err != nil || idx != len(rates) {
					t.Fatalf("step %d: Join(%v) = (%d, %v)", steps, w, idx, err)
				}
				if _, err := twin.Join(w); err != nil {
					t.Fatalf("step %d: the twin's Join(%v): %v", steps, w, err)
				}
				rates = append(rates, w)
				gone = append(gone, false)

			case 2: // leave
				i := int(arg) % len(rates)
				legal := !gone[i] && i != 0 && active() > 2 // P1 originates under NCP-FE
				err := s.Leave(i)
				if legal != (err == nil) {
					t.Fatalf("step %d: Leave(%d) err=%v, model says legal=%v", steps, i, err, legal)
				}
				if twinErr := twin.Leave(i); (twinErr == nil) != (err == nil) {
					t.Fatalf("step %d: Leave(%d) err=%v, the twin's %v", steps, i, err, twinErr)
				}
				if legal {
					gone[i] = true
				}

			case 3: // announce rate
				i := int(arg) % len(rates)
				w := rateOf(arg / byte(len(rates)))
				err := s.AnnounceRate(i, w)
				if gone[i] != (err != nil) {
					t.Fatalf("step %d: AnnounceRate(%d, %v) err=%v, gone=%v", steps, i, w, err, gone[i])
				}
				if twinErr := twin.AnnounceRate(i, w); (twinErr == nil) != (err == nil) {
					t.Fatalf("step %d: AnnounceRate(%d, %v) err=%v, the twin's %v", steps, i, w, err, twinErr)
				}
				if !gone[i] {
					rates[i] = w
				}
			}
		}
	})
}
