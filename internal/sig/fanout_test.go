package sig

import (
	"bytes"
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

// TestSealBinaryEachMatchesSerial: the batch sealer returns, in request
// order, exactly the envelopes serial SealBinary calls produce — several
// signers, two kinds, and a signer with two requests in one batch.
func TestSealBinaryEachMatchesSerial(t *testing.T) {
	var keys []*KeyPair
	for i := 0; i < 6; i++ {
		k, err := GenerateKeyPair(fmt.Sprintf("P%d", i+1), DeterministicSource(int64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
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
	want := make([]Envelope, len(reqs))
	for i, q := range reqs {
		env, err := SealBinary(q.Key, q.Kind, q.Payload)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = env
	}
	withProcs(t, func(t *testing.T, procs int) {
		got, err := SealBinaryEach(reqs)
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
	})
}

// TestSealBinaryEachError: a request without a private key fails the
// batch with the first error in request order.
func TestSealBinaryEachError(t *testing.T) {
	k, err := GenerateKeyPair("P1", DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Sealing{
		{Key: k, Kind: "dls/bid", Payload: binPayload{Name: "a"}},
		{Key: &KeyPair{ID: "P2"}, Kind: "dls/bid", Payload: binPayload{Name: "b"}},
	}
	withProcs(t, func(t *testing.T, procs int) {
		if envs, err := SealBinaryEach(reqs); err == nil || envs != nil {
			t.Errorf("GOMAXPROCS=%d: sealing without a private key = (%v, %v), want an error", procs, envs, err)
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
