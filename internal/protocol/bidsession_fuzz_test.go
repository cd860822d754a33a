package protocol

import (
	"reflect"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
)

// FuzzBidSessionMembership drives a BidSession through arbitrary
// interleavings of rounds, abstentions, returns and bid-factor changes
// and checks it against an independent model of who bids what. Three
// invariants, asserted after every round:
//
//  1. No stale member sets: the round's participant set is exactly the
//     model's — a member that abstains is never served, a member that
//     returned always is — and the round fails exactly when the model
//     says setup must refuse it (the load originator abstains, or fewer
//     than two members bid).
//  2. No spurious re-bids: the round reuses the cached bids if and only
//     if the participants and their bid factors are unchanged since the
//     round that captured the cache, splices when exactly one member
//     that bid then changed, and runs the full exchange otherwise. In
//     particular, setting a factor a member already has, or changing a
//     factor and restoring it before the next round, must NOT trigger a
//     rebid.
//  3. Nothing carries over between rounds: a twin session fed the same
//     operations but dropping its round state before every round yields
//     reflect.DeepEqual outcomes and the same errors.
//
// The input is a byte stream of (op, arg) pairs: op%4 selects run,
// toggle member arg%3's abstention, set member arg%3's bid factor, or
// restore it to truthful. The model never looks at bidProfile or the
// session internals — it recomputes expectations from first principles,
// so the two can disagree.
func FuzzBidSessionMembership(f *testing.F) {
	f.Add([]byte("\x00\x00\x00\x00\x00\x00"))                                 // run ×3: one bid, two reuses
	f.Add([]byte("\x00\x00\x01\x01\x00\x00\x01\x01\x00\x00"))                 // P2 abstains, then returns
	f.Add([]byte("\x00\x00\x01\x01\x00\x00"))                                 // abstention mid-stream
	f.Add([]byte("\x00\x00\x02\x05\x00\x00\x02\x05\x00\x00"))                 // factor change, then the same factor again
	f.Add([]byte("\x00\x00\x02\x0a\x03\x01\x00\x00"))                         // change then restore before the round
	f.Add([]byte("\x01\x02\x02\x07\x00\x00\x01\x02\x03\x01\x00\x00\x00\x00")) // churn burst
	f.Add([]byte("\x01\x00\x00\x00\x01\x00\x01\x01\x01\x02\x00\x00"))         // rounds setup refuses

	f.Fuzz(func(t *testing.T, ops []byte) {
		w := []float64{2, 3, 4}
		s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.1, TrueW: w})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.1, TrueW: w})
		if err != nil {
			t.Fatal(err)
		}
		twin.freshState = true
		// The model: who abstains and each member's bid factor, now and
		// when the cache was captured (snapAbstain is nil before then).
		abstain := make([]bool, len(w))
		factor := []float64{1, 1, 1}
		var snapAbstain []bool
		var snapFactor []float64
		const maxOps = 24
		steps := 0

		factorOf := func(arg byte) float64 { return 0.5 + float64(arg%8)*0.25 }

		for k := 0; k+1 < len(ops) && steps < maxOps; k += 2 {
			steps++
			op, arg := ops[k], ops[k+1]
			i := int(arg) % len(w)
			switch op % 4 {
			case 0: // serve a round
				job := JobConfig{Seed: 42, NBlocks: 12, Behaviors: make([]agent.Behavior, len(w))}
				present := 0
				for j := range w {
					job.Behaviors[j] = agent.Behavior{BidFactor: factor[j], Abstain: abstain[j]}
					if !abstain[j] {
						present++
					}
				}
				out, err := s.Run(job)
				fresh, twinErr := twin.Run(job)
				if (err == nil) != (twinErr == nil) || (err != nil && err.Error() != twinErr.Error()) {
					t.Fatalf("step %d: err %v, the twin's %v", steps, err, twinErr)
				}
				// P1 originates the load under NCP-FE.
				if refused := abstain[0] || present < 2; refused != (err != nil) {
					t.Fatalf("step %d: err %v, model says refused=%v (abstain=%v)", steps, err, refused, abstain)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(out, fresh) {
					t.Fatalf("step %d: the outcome differs from the twin's, whose round state is built afresh", steps)
				}
				if !out.Completed {
					t.Fatalf("step %d: honest round did not complete", steps)
				}
				for j := range w {
					if out.Participated[j] == abstain[j] {
						t.Fatalf("step %d: member P%d participated=%v but abstains=%v — stale member set",
							steps, j+1, out.Participated[j], abstain[j])
					}
				}
				want := "full"
				if snapAbstain != nil {
					changed, fromCache := 0, true
					for j := range w {
						if abstain[j] != snapAbstain[j] || (!abstain[j] && factor[j] != snapFactor[j]) {
							changed++
							fromCache = fromCache && !snapAbstain[j]
						}
					}
					switch {
					case changed == 0:
						want = "reuse"
					case changed == 1 && fromCache:
						want = "splice"
					}
				}
				if got := roundKind(out); got != want {
					t.Fatalf("step %d: a %s round, model expects %s (abstain=%v factor=%v snapAbstain=%v snapFactor=%v)",
						steps, got, want, abstain, factor, snapAbstain, snapFactor)
				}
				snapAbstain = append([]bool(nil), abstain...)
				snapFactor = append([]float64(nil), factor...)

			case 1: // toggle an abstention
				abstain[i] = !abstain[i]

			case 2: // set a bid factor
				factor[i] = factorOf(arg / byte(len(w)))

			case 3: // restore a truthful bid
				factor[i] = 1
			}
		}
	})
}
