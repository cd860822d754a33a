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
	"errors"
	"runtime"
	"slices"
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
//
// When dst has room for len(reqs) envelopes, envelope i is sealed into
// dst[:len(reqs)][i], its payload and signature written into the byte
// capacity that envelope already holds, at their exact lengths;
// otherwise, and for a nil dst, into fresh envelopes. Sealing over dst
// overwrites the bytes of the envelopes it held, so a caller passes only
// storage whose earlier envelopes nothing reads any more.
func (b *BatchVerifier) SealEach(reqs []Sealing, dst []Envelope) ([]Envelope, error) {
	n := len(reqs)
	envs := slices.Grow(dst[:0], n)[:n]
	errs := slices.Grow(b.errs[:0], n)[:n]
	clear(errs)
	b.errs = errs
	digests := slices.Grow(b.digests[:0], n)[:n]
	b.digests = digests
	verified := slices.Grow(b.verified[:0], n)[:n]
	clear(verified)
	b.verified = verified
	forEach(len(reqs), func(i int) {
		q, env := &reqs[i], &envs[i]
		if err := sealBinaryInto(q.Key, q.Kind, q.Payload, env); err != nil {
			errs[i] = err
			return
		}
		if pub, ok := b.reg.lookup(env.Sender); ok && verifyWithKey(pub, env) == nil {
			digests[i], verified[i] = envelopeDigest(pub, env), true
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
