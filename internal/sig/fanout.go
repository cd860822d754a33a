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

// SealBinaryEach seals every request as SealBinary would, in parallel,
// and returns the envelopes in request order. On failure it returns the
// first error in request order.
func SealBinaryEach(reqs []Sealing) ([]Envelope, error) {
	envs := make([]Envelope, len(reqs))
	errs := make([]error, len(reqs))
	forEach(len(reqs), func(i int) {
		q := &reqs[i]
		envs[i], errs[i] = SealBinary(q.Key, q.Kind, q.Payload)
	})
	if err := firstError(errs); err != nil {
		return nil, err
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
