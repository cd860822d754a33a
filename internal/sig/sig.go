// Package sig provides the cryptographic substrate the DLS-BL-NCP
// mechanism assumes (Section 4, "Initialization"): every participant owns
// a key set supporting digital signatures, public keys are registered
// under the participant's identity with a PKI, and messages travel as
// digitally signed envelopes S_β(m) = (m, SIG_β(m)).
//
// The implementation uses Ed25519 from the Go standard library, which
// satisfies the paper's only requirement — existential unforgeability —
// and binds signatures to both the sender identity and a message kind to
// rule out cross-phase replay.
package sig

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"sync"
)

// KeyPair is one participant's signing key set. The private key never
// leaves the struct; Lemma 5.2's argument relies on no second party ever
// holding it.
type KeyPair struct {
	ID      string
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a key set for the given identity. A nil source
// uses crypto/rand; tests pass a deterministic source.
func GenerateKeyPair(id string, source io.Reader) (*KeyPair, error) {
	if id == "" {
		return nil, errors.New("sig: empty identity")
	}
	if source == nil {
		source = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(source)
	if err != nil {
		return nil, fmt.Errorf("sig: generating key for %q: %w", id, err)
	}
	return &KeyPair{ID: id, Public: pub, private: priv}, nil
}

// DeterministicSource returns an io.Reader yielding a reproducible byte
// stream for key generation in tests and seeded simulations.
func DeterministicSource(seed int64) io.Reader {
	return &detSource{rng: mrand.New(mrand.NewSource(seed))}
}

type detSource struct{ rng *mrand.Rand }

// Read fills p with seeded pseudo-random bytes (io.Reader for key
// generation).
func (d *detSource) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.rng.Intn(256))
	}
	return len(p), nil
}

// appendSigningBytes appends the domain-separated byte string that is
// actually signed: len-prefixed (kind, sender, payload) so no field
// boundary can be shifted between them. Append-style so hot paths can
// reuse one pooled buffer instead of allocating per signature.
func appendSigningBytes(dst []byte, kind, sender string, payload []byte) []byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(kind)))
	dst = append(dst, n[:]...)
	dst = append(dst, kind...)
	binary.BigEndian.PutUint64(n[:], uint64(len(sender)))
	dst = append(dst, n[:]...)
	dst = append(dst, sender...)
	binary.BigEndian.PutUint64(n[:], uint64(len(payload)))
	dst = append(dst, n[:]...)
	dst = append(dst, payload...)
	return dst
}

// signingBytes is the allocating form of appendSigningBytes, kept for
// cold paths and tests.
func signingBytes(kind, sender string, payload []byte) []byte {
	return appendSigningBytes(nil, kind, sender, payload)
}

// sbPool recycles signing-byte buffers across Seal/Verify calls. Buffers
// returned to the pool keep their grown capacity, so steady-state sign
// and verify perform zero allocations.
var sbPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// Registry is the PKI: it maps identities to registered public keys.
// Registration is first-write-wins; re-registering an identity is an
// error, matching the paper's "registered under the participant's
// identity".
type Registry struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewRegistry returns an empty PKI.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[string]ed25519.PublicKey)}
}

// Register binds id to pub. Duplicate ids are rejected.
func (r *Registry) Register(id string, pub ed25519.PublicKey) error {
	if id == "" {
		return errors.New("sig: empty identity")
	}
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("sig: malformed public key for %q", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.keys[id]; dup {
		return fmt.Errorf("sig: identity %q already registered", id)
	}
	r.keys[id] = append(ed25519.PublicKey(nil), pub...)
	return nil
}

// PublicKey looks an identity up. The returned slice is a copy:
// Register already copies on write, and handing out the internal slice
// would let a caller silently mutate the PKI's registered key.
func (r *Registry) PublicKey(id string) (ed25519.PublicKey, bool) {
	k, ok := r.lookup(id)
	if !ok {
		return nil, false
	}
	return append(ed25519.PublicKey(nil), k...), true
}

// lookup returns the registered key without copying. Package-internal
// hot paths (Verify, the batch verifier) use it and must never retain or
// mutate the result.
func (r *Registry) lookup(id string) (ed25519.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.keys[id]
	return k, ok
}

// Identities returns the registered identities in sorted order.
func (r *Registry) Identities() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.keys))
	for id := range r.keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Envelope is a digitally signed message S_β(m): the sender identity, a
// message kind (protocol phase tag), the encoded payload (binary for
// types with a binary codec, canonical JSON otherwise) and the Ed25519
// signature over all three.
type Envelope struct {
	Sender    string `json:"sender"`
	Kind      string `json:"kind"`
	Payload   []byte `json:"payload"`
	Signature []byte `json:"signature"`
}

// Seal marshals v to canonical JSON and signs it under the key pair.
func Seal(k *KeyPair, kind string, v any) (Envelope, error) {
	if k == nil || len(k.private) == 0 {
		return Envelope{}, errors.New("sig: sealing requires a private key")
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return Envelope{}, fmt.Errorf("sig: marshaling %s payload: %w", kind, err)
	}
	return sealPayload(k, kind, payload)
}

// sealPayload signs an already-encoded payload. The signing bytes are
// assembled in a pooled buffer, so sealing allocates only the envelope's
// own payload and signature slices.
func sealPayload(k *KeyPair, kind string, payload []byte) (Envelope, error) {
	if k == nil || len(k.private) == 0 {
		return Envelope{}, errors.New("sig: sealing requires a private key")
	}
	bp := sbPool.Get().(*[]byte)
	msg := appendSigningBytes((*bp)[:0], kind, k.ID, payload)
	sigBytes := ed25519.Sign(k.private, msg)
	*bp = msg[:0]
	sbPool.Put(bp)
	return Envelope{Sender: k.ID, Kind: kind, Payload: payload, Signature: sigBytes}, nil
}

// SealInto signs an already-encoded payload into a reused envelope: the
// payload and signature are copied into e's existing capacity, and the
// signing bytes come from the pooled buffer. Sealing into a warm envelope
// is the zero-allocation sign path (see TestHotPathAllocs); Seal remains
// the convenient allocating form.
func SealInto(k *KeyPair, kind string, payload []byte, e *Envelope) error {
	if k == nil || len(k.private) == 0 {
		return errors.New("sig: sealing requires a private key")
	}
	bp := sbPool.Get().(*[]byte)
	msg := appendSigningBytes((*bp)[:0], kind, k.ID, payload)
	e.Sender = k.ID
	e.Kind = kind
	e.Payload = append(e.Payload[:0], payload...)
	e.Signature = append(e.Signature[:0], ed25519.Sign(k.private, msg)...)
	*bp = msg[:0]
	sbPool.Put(bp)
	return nil
}

// Errors reported by envelope verification.
var (
	ErrUnknownSender = errors.New("sig: sender not registered")
	ErrBadSignature  = errors.New("sig: signature verification failed")
)

// Verify checks the envelope's signature against the registry.
func (e Envelope) Verify(reg *Registry) error {
	pub, ok := reg.lookup(e.Sender)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSender, e.Sender)
	}
	return verifyWithKey(pub, &e)
}

// verifyWithKey checks the signature against an already-resolved public
// key, assembling the signing bytes in a pooled buffer.
func verifyWithKey(pub ed25519.PublicKey, e *Envelope) error {
	bp := sbPool.Get().(*[]byte)
	msg := appendSigningBytes((*bp)[:0], e.Kind, e.Sender, e.Payload)
	ok := ed25519.Verify(pub, msg, e.Signature)
	*bp = msg[:0]
	sbPool.Put(bp)
	if !ok {
		return fmt.Errorf("%w: sender %q kind %q", ErrBadSignature, e.Sender, e.Kind)
	}
	return nil
}

// Open verifies the envelope and decodes its payload into v: through
// v's BinaryDecoder when v has a binary codec (a JSON payload is then
// rejected), and as JSON otherwise.
func (e Envelope) Open(reg *Registry, v any) error {
	if err := e.Verify(reg); err != nil {
		return err
	}
	return decodePayload(e.Kind, e.Sender, e.Payload, v)
}

// Equal reports whether two envelopes are byte-identical.
func (e Envelope) Equal(o Envelope) bool {
	return e.Sender == o.Sender && e.Kind == o.Kind &&
		bytes.Equal(e.Payload, o.Payload) && bytes.Equal(e.Signature, o.Signature)
}

// IsEquivocation reports whether the two envelopes prove that a sender
// equivocated: same sender and kind, both correctly signed, but different
// payloads. This is the "multiple authenticated messages" evidence the
// Bidding phase hands to the referee.
func IsEquivocation(reg *Registry, a, b Envelope) bool {
	if a.Sender != b.Sender || a.Kind != b.Kind {
		return false
	}
	if bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	return a.Verify(reg) == nil && b.Verify(reg) == nil
}
