// Batch signature verification and the verified-envelope memo.
//
// Ed25519 verification is the protocol's dominant per-round cost once
// keys are warm: every transport delivery, every cached bid and every
// referee re-open pays ~70µs. Two observations make most of it
// avoidable. First, Ed25519 verification is deterministic — for a fixed
// (public key, message, signature) triple the answer never changes — so
// a digest over exactly that triple memoizes the decision soundly: a
// memo hit is possible only for a byte-identical envelope that already
// verified under the same registered key, and any byte change (payload,
// signature, sender, kind, or a re-registered key) changes the digest
// and falls back to a full verification. Convictability is unchanged:
// nothing unverified is ever accepted. Second, independent envelopes
// verify independently, so a whole bid profile can fan out across
// GOMAXPROCS workers.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// memoDefaultCap bounds the memo; at 64 bytes of key material per entry
// this is ~4MB worst case. A full memo resets rather than evicts — the
// next round simply re-verifies and re-warms, trading a rare latency
// blip for O(1) bookkeeping.
const memoDefaultCap = 1 << 16

// VerifyMemo remembers content digests of envelopes that have already
// passed Ed25519 verification. It is safe for concurrent use and is
// meant to live as long as its key material stays valid — a BidSession,
// a service pool. Only successful verifications are stored; failures are
// never memoized (a corrupted copy must keep failing, and an envelope
// that later verifies under a different registry entry has a different
// digest anyway).
type VerifyMemo struct {
	mu   sync.RWMutex
	set  map[[sha256.Size]byte]struct{}
	cap  int
	hits atomic.Int64
	miss atomic.Int64
}

// NewVerifyMemo returns an empty memo with the default capacity bound.
func NewVerifyMemo() *VerifyMemo {
	return &VerifyMemo{set: make(map[[sha256.Size]byte]struct{}), cap: memoDefaultCap}
}

// contains reports whether the digest is memoized, counting the outcome.
func (m *VerifyMemo) contains(d [sha256.Size]byte) bool {
	m.mu.RLock()
	_, ok := m.set[d]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.miss.Add(1)
	}
	return ok
}

// store memoizes a digest that just verified, resetting the map at the
// capacity bound.
func (m *VerifyMemo) store(d [sha256.Size]byte) {
	m.mu.Lock()
	if len(m.set) >= m.cap {
		m.set = make(map[[sha256.Size]byte]struct{})
	}
	m.set[d] = struct{}{}
	m.mu.Unlock()
}

// MemoStats are a memo's cumulative counters.
type MemoStats struct {
	// Hits counts verifications skipped because the digest was memoized.
	Hits int64
	// Misses counts digest lookups that fell through to full
	// verification.
	Misses int64
	// Size is the current number of memoized digests.
	Size int
}

// Stats returns the memo's counters; the zero value for a nil memo.
func (m *VerifyMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.RLock()
	n := len(m.set)
	m.mu.RUnlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.miss.Load(), Size: n}
}

// envelopeDigest is the memo key: SHA-256 over the registered public key,
// the domain-separated signing bytes and the signature — exactly the
// triple Ed25519 verification decides on.
func envelopeDigest(pub ed25519.PublicKey, e *Envelope) [sha256.Size]byte {
	bp := sbPool.Get().(*[]byte)
	msg := append((*bp)[:0], pub...)
	msg = appendSigningBytes(msg, e.Kind, e.Sender, e.Payload)
	msg = append(msg, e.Signature...)
	d := sha256.Sum256(msg)
	*bp = msg[:0]
	sbPool.Put(bp)
	return d
}

// BatchStats count what one BatchVerifier did.
type BatchStats struct {
	// Verified counts full Ed25519 verifications performed.
	Verified int
	// MemoHits counts verifications skipped via the memo.
	MemoHits int
	// Batches counts VerifyEach/VerifyAll invocations that had at least
	// one non-memoized envelope to verify.
	Batches int
}

// BatchVerifier verifies envelopes against one registry, consulting a
// VerifyMemo first and fanning independent verifications out across
// workers. It is NOT safe for concurrent use — each protocol run owns
// one — but the memo it consults may be shared across runs.
type BatchVerifier struct {
	reg  *Registry
	memo *VerifyMemo
	// Workers bounds the verification fan-out; 0 selects GOMAXPROCS.
	Workers int

	stats BatchStats
}

// NewBatchVerifier creates a verifier over reg that consults memo. A nil
// memo gets a fresh one private to this verifier.
func NewBatchVerifier(reg *Registry, memo *VerifyMemo) *BatchVerifier {
	if memo == nil {
		memo = NewVerifyMemo()
	}
	return &BatchVerifier{reg: reg, memo: memo}
}

// Stats returns the verifier's counters.
func (b *BatchVerifier) Stats() BatchStats { return b.stats }

// Verify checks one envelope through the memo. The envelope is not
// retained.
func (b *BatchVerifier) Verify(e *Envelope) error {
	pub, ok := b.reg.lookup(e.Sender)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSender, e.Sender)
	}
	d := envelopeDigest(pub, e)
	if b.memo.contains(d) {
		b.stats.MemoHits++
		return nil
	}
	if err := verifyWithKey(pub, e); err != nil {
		return err
	}
	b.stats.Verified++
	b.memo.store(d)
	return nil
}

// Open verifies the envelope (memoized) and decodes its payload into v.
func (b *BatchVerifier) Open(e *Envelope, v any) error {
	if err := b.Verify(e); err != nil {
		return err
	}
	return decodePayload(e.Kind, e.Sender, e.Payload, v)
}

// IsEquivocation is sig.IsEquivocation through the memoized verifier:
// same sender and kind, different payloads, both correctly signed.
func (b *BatchVerifier) IsEquivocation(x, y Envelope) bool {
	if x.Sender != y.Sender || x.Kind != y.Kind {
		return false
	}
	if string(x.Payload) == string(y.Payload) {
		return false
	}
	return b.Verify(&x) == nil && b.Verify(&y) == nil
}

// batchJob is one envelope awaiting full verification after the memo
// pre-pass.
type batchJob struct {
	idx    int
	pub    ed25519.PublicKey
	digest [sha256.Size]byte
}

// VerifyEach verifies every envelope and returns the per-envelope
// errors, index-aligned (nil entries verified). The memo pre-pass runs
// serially — hit/miss counts are deterministic for a given input — and
// only the misses fan out across Workers goroutines. Duplicate misses
// within one call (bit-identical envelopes) verify once.
func (b *BatchVerifier) VerifyEach(envs []Envelope) []error {
	errs := make([]error, len(envs))
	var pending []batchJob
	// Serial memo pre-pass, deduplicating identical envelopes.
	firstOf := make(map[[sha256.Size]byte]int)
	for i := range envs {
		e := &envs[i]
		pub, ok := b.reg.lookup(e.Sender)
		if !ok {
			errs[i] = fmt.Errorf("%w: %q", ErrUnknownSender, e.Sender)
			continue
		}
		j := batchJob{idx: i, pub: pub, digest: envelopeDigest(pub, e)}
		if b.memo.contains(j.digest) {
			b.stats.MemoHits++
			continue
		}
		if first, dup := firstOf[j.digest]; dup {
			// Same digest pending earlier in this batch: share its
			// verdict instead of verifying twice.
			errs[i] = errDefer{first}
			continue
		}
		firstOf[j.digest] = i
		pending = append(pending, j)
	}
	if len(pending) > 0 {
		b.stats.Batches++
		workers := b.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(pending) {
			workers = len(pending)
		}
		if workers <= 1 {
			for _, j := range pending {
				errs[j.idx] = verifyWithKey(j.pub, &envs[j.idx])
			}
		} else {
			var wg sync.WaitGroup
			next := atomic.Int64{}
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						k := int(next.Add(1)) - 1
						if k >= len(pending) {
							return
						}
						j := pending[k]
						errs[j.idx] = verifyWithKey(j.pub, &envs[j.idx])
					}
				}()
			}
			wg.Wait()
		}
		// Serial post-pass: count, memoize successes, resolve deferrals.
		for _, j := range pending {
			if errs[j.idx] == nil {
				b.stats.Verified++
				b.memo.store(j.digest)
			}
		}
	}
	for i, err := range errs {
		if d, ok := err.(errDefer); ok {
			if errs[d.idx] == nil {
				errs[i] = nil
				b.stats.MemoHits++
			} else {
				errs[i] = errs[d.idx]
			}
		}
	}
	return errs
}

// errDefer marks an intra-batch duplicate awaiting the first copy's
// verdict.
type errDefer struct{ idx int }

// Error satisfies the error interface; the value is internal and never
// escapes VerifyAll.
func (e errDefer) Error() string { return "sig: deferred to duplicate envelope" }

// VerifyAll verifies a whole profile of envelopes in one pass and
// returns the first failure in index order (nil when all verified).
func (b *BatchVerifier) VerifyAll(envs []Envelope) error {
	for _, err := range b.VerifyEach(envs) {
		if err != nil {
			return err
		}
	}
	return nil
}
