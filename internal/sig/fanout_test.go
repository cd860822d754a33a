package sig

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// withProcs runs f once at GOMAXPROCS 1 (the inline path) and once at
// GOMAXPROCS 4 (the worker fan-out), restoring the setting afterwards.
func withProcs(t *testing.T, f func(t *testing.T, procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		f(t, procs)
	}
}

// TestSealEachMatchesSerial: the fused pass returns, in request order,
// exactly the envelopes serial SealBinary calls produce — several
// signers, two kinds, and a signer with two requests in one batch — and
// verifies each one as it signs it: every envelope that verifies is
// memoized, so checking it again is a memo hit, while a forger's envelope
// (signed under an identity whose registered key is not the signer's) is
// returned unmemoized and still fails a later check.
func TestSealEachMatchesSerial(t *testing.T) {
	reg := NewRegistry()
	var keys []*KeyPair
	for i := 0; i < 6; i++ {
		k, err := GenerateKeyPair(fmt.Sprintf("P%d", i+1), DeterministicSource(int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(k.ID, k.Public); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	forger, err := GenerateKeyPair("P1", DeterministicSource(99))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Sealing
	for i, k := range keys {
		kind := "dls/bid"
		if i%2 == 1 {
			kind = "dls/payment"
		}
		reqs = append(reqs, Sealing{Key: k, Kind: kind, Payload: binPayload{Name: k.ID, X: float64(i), Xs: []float64{1, 2, float64(i)}}})
		if i == 2 {
			reqs = append(reqs, Sealing{Key: k, Kind: kind, Payload: binPayload{Name: k.ID, X: -1}})
		}
	}
	forged := len(reqs)
	reqs = append(reqs, Sealing{Key: forger, Kind: "dls/bid", Payload: binPayload{Name: "P1", X: 7}})
	want := make([]Envelope, len(reqs))
	for i, q := range reqs {
		env, err := SealBinary(q.Key, q.Kind, q.Payload)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = env
	}
	withProcs(t, func(t *testing.T, procs int) {
		memo := NewVerifyMemo()
		bv := NewBatchVerifier(reg, memo)
		got, err := bv.SealEach(reqs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d envelopes, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Errorf("GOMAXPROCS=%d: envelope %d differs from serial SealBinary", procs, i)
			}
		}
		if st := bv.Stats(); st != (BatchStats{Verified: len(reqs) - 1, Batches: 1}) {
			t.Errorf("GOMAXPROCS=%d: stats %+v, want %d verified in 1 batch", procs, st, len(reqs)-1)
		}
		if ms := memo.Stats(); ms.Size != len(reqs)-1 || ms.Hits != 0 || ms.Misses != 0 {
			t.Errorf("GOMAXPROCS=%d: memo %+v, want %d digests and no lookups", procs, ms, len(reqs)-1)
		}
		for i := range got {
			err := bv.Verify(&got[i])
			if i == forged {
				if !errors.Is(err, ErrBadSignature) {
					t.Errorf("GOMAXPROCS=%d: forged envelope: %v, want ErrBadSignature", procs, err)
				}
			} else if err != nil {
				t.Errorf("GOMAXPROCS=%d: envelope %d: %v", procs, i, err)
			}
		}
		if st := bv.Stats(); st.MemoHits != len(reqs)-1 || st.Verified != len(reqs)-1 {
			t.Errorf("GOMAXPROCS=%d: after re-checking, stats %+v; want every sealed envelope a memo hit", procs, st)
		}
	})
}

// TestSealEachError: a request without a private key fails the pass with
// the first error in request order, and the failed pass memoizes and
// counts nothing.
func TestSealEachError(t *testing.T) {
	k, err := GenerateKeyPair("P1", DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		t.Fatal(err)
	}
	reqs := []Sealing{
		{Key: k, Kind: "dls/bid", Payload: binPayload{Name: "a"}},
		{Key: &KeyPair{ID: "P2"}, Kind: "dls/bid", Payload: binPayload{Name: "b"}},
	}
	withProcs(t, func(t *testing.T, procs int) {
		memo := NewVerifyMemo()
		bv := NewBatchVerifier(reg, memo)
		if envs, err := bv.SealEach(reqs, nil); err == nil || envs != nil {
			t.Errorf("GOMAXPROCS=%d: sealing without a private key = (%v, %v), want an error", procs, envs, err)
		}
		if st, ms := bv.Stats(), memo.Stats(); st != (BatchStats{}) || ms.Size != 0 {
			t.Errorf("GOMAXPROCS=%d: failed pass left stats %+v and %d memoized digests", procs, st, ms.Size)
		}
	})
}

// TestSealEachReusesEnvelopes: sealing into the envelopes an earlier pass
// returned gives, request for request, the envelopes a fresh pass gives:
// byte-identical, with payloads exactly as long as their encoding
// although the reused envelopes have room for longer ones. When the batch
// shrinks or keeps its size the bytes land in the earlier envelopes' own
// storage, a batch that outgrows dst gets fresh envelopes, and either way
// the pass verifies and memoizes as a fresh one does.
func TestSealEachReusesEnvelopes(t *testing.T) {
	reg := NewRegistry()
	keys := make([]*KeyPair, 3)
	for i := range keys {
		k, err := GenerateKeyPair(fmt.Sprintf("P%d", i+1), DeterministicSource(int64(60+i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(k.ID, k.Public); err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	// batch returns n requests whose payloads carry width floats each.
	batch := func(n, width int, x float64) []Sealing {
		reqs := make([]Sealing, n)
		for i := range reqs {
			k := keys[i%len(keys)]
			xs := make([]float64, width)
			for j := range xs {
				xs[j] = x + float64(i*width+j)
			}
			reqs[i] = Sealing{Key: k, Kind: "dls/payment", Payload: binPayload{Name: k.ID, X: x, Xs: xs}}
		}
		return reqs
	}
	const held = 4
	withProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{2, held, 6} {
			bv := NewBatchVerifier(reg, NewVerifyMemo())
			dst, err := bv.SealEach(batch(held, 32, 1), nil)
			if err != nil {
				t.Fatal(err)
			}
			payloadAt := make([]*byte, held)
			for i := range dst {
				payloadAt[i] = &dst[i].Payload[0]
			}
			reqs := batch(n, 2, 7)
			want, err := NewBatchVerifier(reg, NewVerifyMemo()).SealEach(reqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bv.SealEach(reqs, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("GOMAXPROCS=%d n=%d: %d envelopes", procs, n, len(got))
			}
			for i := range got {
				if !got[i].Equal(want[i]) || len(got[i].Payload) != len(want[i].Payload) {
					t.Errorf("GOMAXPROCS=%d n=%d: envelope %d (payload %d bytes) differs from a fresh seal (%d bytes)",
						procs, n, i, len(got[i].Payload), len(want[i].Payload))
				}
				if n <= held && (&got[i].Payload[0] != payloadAt[i] || cap(got[i].Payload) <= len(got[i].Payload)) {
					t.Errorf("GOMAXPROCS=%d n=%d: envelope %d was not sealed into dst's payload storage", procs, n, i)
				}
			}
			if st := bv.Stats(); st != (BatchStats{Verified: held + n, Batches: 2}) {
				t.Errorf("GOMAXPROCS=%d n=%d: stats %+v, want %d verified in 2 batches", procs, n, st, held+n)
			}
			for i := range got {
				if err := bv.Verify(&got[i]); err != nil {
					t.Errorf("GOMAXPROCS=%d n=%d: envelope %d: %v", procs, n, i, err)
				}
			}
			if st := bv.Stats(); st.MemoHits != n {
				t.Errorf("GOMAXPROCS=%d n=%d: %d memo hits re-checking the reused envelopes, want %d", procs, n, st.MemoHits, n)
			}
		}
	})
}

// TestGenerateKeyPairsMatchesSerial: the batch generator yields, in ids
// order, the keys serial GenerateKeyPair draws from each seed's
// DeterministicSource.
func TestGenerateKeyPairsMatchesSerial(t *testing.T) {
	ids := []string{"referee", "P1", "P2", "P4", "P5", "standby"}
	seeds := []int64{9, 10, 11, 12, 13, 20}
	withProcs(t, func(t *testing.T, procs int) {
		got, err := GenerateKeyPairs(ids, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			want, err := GenerateKeyPair(id, DeterministicSource(seeds[i]))
			if err != nil {
				t.Fatal(err)
			}
			if got[i].ID != id || !bytes.Equal(got[i].Public, want.Public) || !bytes.Equal(got[i].private, want.private) {
				t.Errorf("GOMAXPROCS=%d: key %d (%s) differs from serial GenerateKeyPair", procs, i, id)
			}
		}
	})
	if _, err := GenerateKeyPairs(ids, seeds[:2]); err == nil {
		t.Error("mismatched seeds accepted")
	}
	if _, err := GenerateKeyPairs([]string{"P1", ""}, []int64{1, 2}); err == nil {
		t.Error("empty identity accepted")
	}
}
