// Batch signature verification and the verified-envelope memo.
//
// Ed25519 verification is the protocol's dominant per-round cost once
// keys are warm, so each envelope is verified once, where it is signed:
// SealEach checks every envelope in the worker that signs it, a
// receiver byte-compares each delivered copy with the first copy of that
// message it checked, and a Verified envelope decodes without a second
// check. The memo serves the envelopes that are verified again across
// rounds — cached bids, a repeated meters vector — and the first
// delivered copy of each freshly signed one. It is sound because Ed25519
// verification is deterministic — for a fixed (public key, message,
// signature) triple the answer never changes — so a digest over exactly
// that triple memoizes the decision: a memo hit is possible only for a
// byte-identical envelope that already verified under the same
// registered key, and any byte change (payload, signature, sender, kind,
// or a re-registered key) changes the digest and falls back to a full
// verification. Convictability is unchanged: nothing unverified is ever
// accepted. Independent envelopes verify independently, so a batch fans
// out across GOMAXPROCS workers.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// memoDefaultCap bounds one generation of the memo. A digest is 32
// bytes, so the two generations hold at most 4 MiB of digests plus the
// maps' overhead. A full generation retires the older one rather than
// evicting entry by entry: digests looked up since the last turnover
// were carried into the new generation, so only those not looked up for
// a whole generation must verify again.
const memoDefaultCap = 1 << 16

// VerifyMemo remembers content digests of envelopes that have already
// passed Ed25519 verification. It is safe for concurrent use and is
// meant to live as long as its key material stays valid — a BidSession,
// a service pool. Only successful verifications are stored; failures are
// never memoized (a corrupted copy must keep failing, and an envelope
// that later verifies under a different registry entry has a different
// digest anyway).
//
// Digests live in two generations. New digests enter the current one; a
// hit in the older one moves the digest into the current one; when the
// current one fills, it becomes the older one and the previous older one
// is dropped. A digest looked up every round — a cached bid, a repeated
// meters vector — therefore survives any number of turnovers, while the
// one-round digests of fresh payment vectors age out.
type VerifyMemo struct {
	mu   sync.RWMutex
	cur  map[[sha256.Size]byte]struct{}
	old  map[[sha256.Size]byte]struct{}
	cap  int
	hits atomic.Int64
	miss atomic.Int64
}

// NewVerifyMemo returns an empty memo with the default capacity bound.
func NewVerifyMemo() *VerifyMemo {
	return &VerifyMemo{cur: make(map[[sha256.Size]byte]struct{}), cap: memoDefaultCap}
}

// contains reports whether the digest is memoized, counting the outcome.
// A digest found only in the older generation moves to the current one.
func (m *VerifyMemo) contains(d [sha256.Size]byte) bool {
	m.mu.RLock()
	_, ok := m.cur[d]
	_, aging := m.old[d]
	m.mu.RUnlock()
	if aging && !ok {
		m.mu.Lock()
		if _, still := m.old[d]; still {
			delete(m.old, d)
			m.insert(d)
		}
		m.mu.Unlock()
	}
	if ok || aging {
		m.hits.Add(1)
	} else {
		m.miss.Add(1)
	}
	return ok || aging
}

// store memoizes a digest that just verified.
func (m *VerifyMemo) store(d [sha256.Size]byte) {
	m.mu.Lock()
	m.insert(d)
	m.mu.Unlock()
}

// insert adds d to the current generation, first retiring the older
// generation when the current one is full. The retired map is cleared and
// becomes the new current one, so from the second turnover on the
// generations refill maps that have already grown to the cap. Caller
// holds the write lock.
func (m *VerifyMemo) insert(d [sha256.Size]byte) {
	if _, ok := m.cur[d]; ok {
		return
	}
	if len(m.cur) >= m.cap {
		retired := m.old
		if retired == nil {
			retired = make(map[[sha256.Size]byte]struct{})
		}
		clear(retired)
		m.old, m.cur = m.cur, retired
	}
	m.cur[d] = struct{}{}
}

// MemoStats are a memo's cumulative counters.
type MemoStats struct {
	// Hits counts verifications skipped because the digest was memoized.
	Hits int64
	// Misses counts digest lookups that fell through to full
	// verification.
	Misses int64
	// Size is the current number of memoized digests, both generations
	// together.
	Size int
}

// Stats returns the memo's counters; the zero value for a nil memo.
func (m *VerifyMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.RLock()
	n := len(m.cur) + len(m.old)
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
	// Batches counts VerifyEach invocations that had at least one
	// non-memoized envelope to verify, and SealEach passes.
	Batches int
}

// BatchVerifier verifies envelopes against one registry, consulting a
// VerifyMemo first and fanning independent verifications out across
// workers. It is NOT safe for concurrent use — one protocol run uses it
// at a time, and a BidSession resets one for each round it serves — but
// the memo it consults may be shared across runs. SealEach and
// VerifyEach keep their scratch in the verifier and rewrite it in full
// on every call.
type BatchVerifier struct {
	reg   *Registry
	memo  *VerifyMemo
	stats BatchStats

	errs     []error
	digests  [][sha256.Size]byte
	verified []bool
	vs       []Verified
	pending  []batchJob
	firstOf  map[[sha256.Size]byte]int
}

// NewBatchVerifier creates a verifier over reg that consults memo. A nil
// memo gets a fresh one private to this verifier.
func NewBatchVerifier(reg *Registry, memo *VerifyMemo) *BatchVerifier {
	b := &BatchVerifier{}
	b.Reset(reg, memo)
	return b
}

// Reset readies the verifier for another round, as NewBatchVerifier(reg,
// memo) would: it verifies against reg, consults memo (a fresh private
// one when nil) and counts from zero. The scratch of earlier SealEach and
// VerifyEach calls keeps its capacity.
func (b *BatchVerifier) Reset(reg *Registry, memo *VerifyMemo) {
	if memo == nil {
		memo = NewVerifyMemo()
	}
	b.reg, b.memo, b.stats = reg, memo, BatchStats{}
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

// Verified is an envelope whose signature a BatchVerifier has checked
// against its registry. Only this package makes one, so holding one is
// proof that the check ran, and Open decodes it without checking again.
// The zero value verifies nothing: it matches no envelope.
type Verified struct {
	env Envelope
	ok  bool
}

// Check verifies the envelope through the memo, as Verify does, and
// returns it as Verified. The result shares e's byte slices, which must
// not change afterwards.
func (b *BatchVerifier) Check(e *Envelope) (Verified, error) {
	if err := b.Verify(e); err != nil {
		return Verified{}, err
	}
	return Verified{env: *e, ok: true}, nil
}

// Matches reports whether e is byte-identical to the verified envelope —
// sender, kind, payload and signature — and so carries a signature that
// has already been checked.
func (v *Verified) Matches(e *Envelope) bool {
	return v.ok && v.env.Equal(*e)
}

// Open decodes the verified envelope's payload into dst, as
// BatchVerifier.Open does after its check.
func (v *Verified) Open(dst any) error {
	if !v.ok {
		return errors.New("sig: opening an unverified envelope")
	}
	return decodePayload(v.env.Kind, v.env.Sender, v.env.Payload, dst)
}

// IsEquivocation reports whether the two envelopes prove that a sender
// equivocated: same sender and kind, both correctly signed (through the
// memo), but different payloads. This is the "multiple authenticated
// messages" evidence the Bidding phase hands to the referee.
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

// VerifyEach verifies every envelope and returns, index-aligned, each
// one as Verified and the per-envelope errors (a nil error marks a
// verified entry; a failed one gets the zero Verified). The memo
// pre-pass runs serially — hit/miss counts are deterministic for a given
// input — and only the misses fan out across GOMAXPROCS workers.
// Duplicate misses within one call (bit-identical envelopes) verify
// once. The Verified entries share envs' byte slices. Both returned
// slices are the verifier's scratch: they stay valid until its next
// SealEach or VerifyEach call.
func (b *BatchVerifier) VerifyEach(envs []Envelope) ([]Verified, []error) {
	errs := slices.Grow(b.errs[:0], len(envs))[:len(envs)]
	clear(errs)
	b.errs = errs
	pending := b.pending[:0]
	// Serial memo pre-pass, deduplicating identical envelopes.
	if b.firstOf == nil {
		b.firstOf = make(map[[sha256.Size]byte]int)
	}
	firstOf := b.firstOf
	clear(firstOf)
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
	b.pending = pending
	if len(pending) > 0 {
		b.stats.Batches++
		forEach(len(pending), func(k int) {
			j := pending[k]
			errs[j.idx] = verifyWithKey(j.pub, &envs[j.idx])
		})
		// Serial post-pass: count, memoize successes, resolve deferrals.
		for _, j := range pending {
			if errs[j.idx] == nil {
				b.stats.Verified++
				b.memo.store(j.digest)
			}
		}
	}
	vs := slices.Grow(b.vs[:0], len(envs))[:len(envs)]
	b.vs = vs
	for i, err := range errs {
		if d, ok := err.(errDefer); ok {
			if errs[d.idx] == nil {
				errs[i] = nil
				b.stats.MemoHits++
			} else {
				errs[i] = errs[d.idx]
			}
		}
		vs[i] = Verified{}
		if errs[i] == nil {
			vs[i] = Verified{env: envs[i], ok: true}
		}
	}
	return vs, errs
}

// errDefer marks an intra-batch duplicate awaiting the first copy's
// verdict.
type errDefer struct{ idx int }

// Error satisfies the error interface; the value is internal and never
// escapes VerifyEach.
func (e errDefer) Error() string { return "sig: deferred to duplicate envelope" }
