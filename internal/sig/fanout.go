// Per-party crypto on every core.
//
// In DLS-BL-NCP the m processors are independent machines: each
// generates its own key set, signs its own bid and its own payment
// vector, and the verifications of independent envelopes are
// independent too. A simulation that plays all m parties in one process
// would otherwise do that work one party after another. The batch forms
// here run it across GOMAXPROCS workers through one loop, forEach, and
// return results in index order that are byte-identical to the serial
// calls: Ed25519 signing is deterministic, and every seeded key draws
// from its own source.
package sig

import (
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach calls f(0), …, f(n-1) across up to GOMAXPROCS goroutines and
// returns once every call has. At GOMAXPROCS 1, or for a single call, it
// runs the calls inline in index order. Calls must write disjoint state.
func forEach(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Sealing is one SealBinary call awaiting a batch: the signer's key set,
// the message kind and the payload.
type Sealing struct {
	Key     *KeyPair
	Kind    string
	Payload BinaryAppender
}

// SealEach seals every request as SealBinary would and verifies each
// envelope in the same fan-out: the worker that signs request i checks
// the signature it just made against the registry and computes its memo
// digest. After the barrier the digests of the envelopes that verified
// are memoized, so a delivered copy of one is a memo hit, and the pass
// counts as one batch. It returns the envelopes in request order, or the
// first sealing error in request order; an envelope that fails its check
// (its signer's key is not the one registered under its identity) is
// still returned, as SealBinary returns it, and is not memoized.
func (b *BatchVerifier) SealEach(reqs []Sealing) ([]Envelope, error) {
	envs := make([]Envelope, len(reqs))
	errs := make([]error, len(reqs))
	digests := make([][sha256.Size]byte, len(reqs))
	verified := make([]bool, len(reqs))
	forEach(len(reqs), func(i int) {
		q := &reqs[i]
		env, err := SealBinary(q.Key, q.Kind, q.Payload)
		if err != nil {
			errs[i] = err
			return
		}
		envs[i] = env
		if pub, ok := b.reg.lookup(env.Sender); ok && verifyWithKey(pub, &env) == nil {
			digests[i], verified[i] = envelopeDigest(pub, &env), true
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	if len(reqs) > 0 {
		b.stats.Batches++
	}
	for i, ok := range verified {
		if ok {
			b.stats.Verified++
			b.memo.store(digests[i])
		}
	}
	return envs, nil
}

// GenerateKeyPairs generates the key set of ids[i] from
// DeterministicSource(seeds[i]) for every i, in parallel, and returns
// the pairs in ids order: the same keys the serial GenerateKeyPair calls
// yield. On failure it returns the first error in ids order.
func GenerateKeyPairs(ids []string, seeds []int64) ([]*KeyPair, error) {
	if len(seeds) != len(ids) {
		return nil, errors.New("sig: one seed per identity required")
	}
	keys := make([]*KeyPair, len(ids))
	errs := make([]error, len(ids))
	forEach(len(ids), func(i int) {
		src := detPool.Get().(*detSource)
		src.rng.Seed(seeds[i])
		keys[i], errs[i] = GenerateKeyPair(ids[i], src)
		detPool.Put(src)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return keys, nil
}

// detPool recycles the seeded sources behind GenerateKeyPairs. A
// math/rand source is about 5 KiB of state, and re-seeding one yields the
// stream a fresh DeterministicSource with that seed would.
var detPool = sync.Pool{New: func() any { return DeterministicSource(0) }}

// firstError returns the first non-nil error in index order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
