package sig

import (
	"errors"
	"sort"
	"sync"
)

// Keyring is a concurrency-safe cache of key pairs, keyed by identity. It
// exists because Ed25519 key generation dominates the cost of a protocol
// run (see the ROADMAP's Performance item): a long-lived processor pool
// that plays many rounds should pay for each participant's key set once,
// not once per job. internal/protocol consults a configured Keyring
// before generating, and deposits freshly generated pairs back, so the
// first round warms the ring and every later round reuses it.
//
// Reusing keys never changes the economics of a run — bids, allocations,
// meters and ledger flows are independent of the key bytes — it only
// changes which signatures appear on the wire. The ring caches only the
// pairs: a PKI Registry is built for each participant set, holding
// exactly its identities.
type Keyring struct {
	mu   sync.RWMutex
	keys map[string]*KeyPair
}

// NewKeyring returns an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{keys: make(map[string]*KeyPair)}
}

// Get returns the cached pair for id, if present.
func (r *Keyring) Get(id string) (*KeyPair, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.keys[id]
	return k, ok
}

// Put deposits a pair under its identity. The first deposit for an
// identity wins: a ring shared by concurrent runs must hand every caller
// the same pair, so a racing second deposit is ignored rather than
// silently replacing keys other runs already registered.
func (r *Keyring) Put(k *KeyPair) error {
	if r == nil {
		return errors.New("sig: Put on nil keyring")
	}
	if k == nil || k.ID == "" {
		return errors.New("sig: keyring requires a pair with an identity")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.keys[k.ID]; !dup {
		r.keys[k.ID] = k
	}
	return nil
}

// Len returns the number of cached pairs.
func (r *Keyring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.keys)
}

// Identities returns the cached identities in sorted order.
func (r *Keyring) Identities() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]string, 0, len(r.keys))
	for id := range r.keys {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
