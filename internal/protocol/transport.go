package protocol

import (
	"errors"
	"fmt"
	"math"

	"dlsbl/internal/bus"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// RetryPolicy bounds the reliable-delivery machinery layered over the
// (possibly faulty) bus: every logical message may be transmitted at most
// MaxAttempts times, with capped exponential backoff between attempts,
// and each protocol phase has a virtual-time deadline on the total
// backoff it may accumulate. Exhausting either budget for a processor's
// traffic marks that processor unreachable; the Bidding phase converts
// unreachable processors into evictions (survivors re-solve the
// allocation — Theorem 2.2 guarantees any subset is still optimal), while
// later phases surface unreachability as an error, since by then the
// remaining parties were all proven live.
type RetryPolicy struct {
	// MaxAttempts is the per-logical-message transmission budget
	// (first send + retransmissions). Zero selects 8.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BaseBackoff is the virtual-time wait before the first retry; each
	// further retry doubles it. Zero selects 1.
	BaseBackoff float64 `json:"base_backoff,omitempty"`
	// MaxBackoff caps the doubling. Zero selects 32.
	MaxBackoff float64 `json:"max_backoff,omitempty"`
	// PhaseDeadline bounds the total backoff virtual time one phase may
	// spend before unreachability is declared. Zero selects +Inf (the
	// attempt budget alone governs).
	PhaseDeadline float64 `json:"phase_deadline,omitempty"`
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = 1
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 32
	}
	if p.PhaseDeadline == 0 {
		p.PhaseDeadline = math.Inf(1)
	}
	return p
}

func (p RetryPolicy) validate() error {
	if p.MaxAttempts < 0 || p.BaseBackoff < 0 || p.MaxBackoff < 0 || p.PhaseDeadline < 0 {
		return errors.New("protocol: negative retry policy parameter")
	}
	if math.IsNaN(p.BaseBackoff) || math.IsNaN(p.MaxBackoff) || math.IsNaN(p.PhaseDeadline) {
		return errors.New("protocol: NaN retry policy parameter")
	}
	return nil
}

// backoff returns the capped exponential wait before retry `attempt`
// (attempt 1 is the first retransmission).
func (p RetryPolicy) backoff(attempt int) float64 {
	d := p.BaseBackoff * math.Pow(2, float64(attempt-1))
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// FaultStats counts what the reliable-transport layer did during one
// protocol run. All zeros on a reliable bus.
type FaultStats struct {
	// Retransmits counts transmissions beyond each logical message's
	// first attempt.
	Retransmits int
	// DupDiscards counts deliveries dropped by (sender, nonce)
	// deduplication — fault-injected duplicates and already-received
	// retransmissions.
	DupDiscards int
	// CorruptDiscards counts deliveries whose signature failed
	// verification on arrival.
	CorruptDiscards int
	// Timeouts counts retry rounds that ended with at least one expected
	// delivery still missing.
	Timeouts int
	// BackoffTime is the total virtual time spent waiting between
	// attempts, across all phases.
	BackoffTime float64
	// Evictions counts processors removed from the run for
	// unreachability.
	Evictions int
}

// ErrUnreachable reports a peer whose traffic could not be delivered
// within the retry budget.
var ErrUnreachable = errors.New("protocol: peer unreachable within retry budget")

// nonceKey identifies a logical message for receiver-side
// deduplication: the bus sender and the nonce. It is the bus sender, not
// the envelope's, because a relayed copy carries another party's
// envelope.
type nonceKey struct {
	from  string
	nonce uint64
}

// rxBuf is one endpoint's receive state: verified, deduplicated copies
// not yet consumed by the phase logic (pointers to the medium's shared
// records), and one bit per logical message of the run's table marking
// those this endpoint has already kept a copy of.
type rxBuf struct {
	pending []*bus.Message
	seen    []uint64
}

// has reports whether the endpoint has kept a copy of logical message mi.
func (b *rxBuf) has(mi int) bool {
	w := mi >> 6
	return w < len(b.seen) && b.seen[w]&(1<<(mi&63)) != 0
}

// mark records that the endpoint keeps a copy of logical message mi.
func (b *rxBuf) mark(mi int) {
	w := mi >> 6
	for w >= len(b.seen) {
		b.seen = append(b.seen, 0)
	}
	b.seen[w] |= 1 << (mi & 63)
}

// transport layers idempotent, retrying delivery over the medium. It
// owns every endpoint's inbox: phases consume verified messages through
// takeNonce and takeEach instead of draining the medium directly, so
// duplicated, delayed and retransmitted copies collapse into
// exactly-once delivery to the protocol logic. The medium is any
// bus.Medium — the simulated bus or a real socket (internal/netbus); the
// retry/dedup/eviction machinery here is identical over both.
type transport struct {
	net    bus.Medium
	policy RetryPolicy
	rx     map[string]*rxBuf
	stats  FaultStats
	// phaseBackoff is the backoff virtual time accumulated in the current
	// phase, checked against policy.PhaseDeadline.
	phaseBackoff float64
	// tracer receives transport-level events (dedup hits, corrupt
	// discards, retransmits, timeouts); nil when tracing is off.
	tracer obs.Tracer
	// ver is the run's memoized batch verifier (see Config.Memo); a copy
	// that matches no verified copy of its logical message verifies
	// through it.
	ver *sig.BatchVerifier
	// index numbers the run's logical messages, and first[i] is the first
	// copy of message i that passed ver: every later copy byte-identical
	// to it is accepted without a signature check. A copy that fails is
	// never entered.
	index map[nonceKey]int
	first []sig.Verified
	// missing is broadcastReliable's per-receiver scratch.
	missing []bool
}

// event emits one transport event when tracing is on.
func (t *transport) event(e obs.Event) {
	if t.tracer != nil {
		t.tracer.Event(e)
	}
}

func newTransport(net bus.Medium, ver *sig.BatchVerifier, policy RetryPolicy) (*transport, error) {
	t := &transport{net: net, rx: make(map[string]*rxBuf), index: make(map[nonceKey]int)}
	if err := t.reset(ver, policy); err != nil {
		return nil, err
	}
	return t, nil
}

// reset readies the transport for a new run over the same medium, as
// newTransport(t.net, ver, policy) would: nothing pending, no logical
// message known, zero stats and no tracer. The receive buffers and the
// message table keep their capacity.
func (t *transport) reset(ver *sig.BatchVerifier, policy RetryPolicy) error {
	if err := policy.validate(); err != nil {
		return err
	}
	t.ver = ver
	t.policy = policy.withDefaults()
	for _, b := range t.rx {
		clear(b.pending)
		b.pending = b.pending[:0]
		clear(b.seen)
	}
	t.stats = FaultStats{}
	t.phaseBackoff = 0
	t.tracer = nil
	clear(t.index)
	clear(t.first)
	t.first = t.first[:0]
	return nil
}

func (t *transport) buf(id string) *rxBuf {
	b := t.rx[id]
	if b == nil {
		b = &rxBuf{}
		t.rx[id] = b
	}
	return b
}

// open decodes a copy this transport delivered into v. A copy
// byte-identical to the verified first copy of its message decodes
// without a second signature check; any other (a different, validly
// signed envelope sent under a nonce already taken) is opened through
// the verifier.
func (t *transport) open(m *bus.Message, v any) error {
	if mi, ok := t.index[nonceKey{from: m.From, nonce: m.Nonce}]; ok && t.first[mi].Matches(&m.Env) {
		return t.first[mi].Open(v)
	}
	return t.ver.Open(&m.Env, v)
}

// beginPhase resets the per-phase deadline clock.
func (t *transport) beginPhase() { t.phaseBackoff = 0 }

// sleep charges one backoff interval against the phase deadline and
// reports whether the deadline has passed.
func (t *transport) sleep(attempt int) (deadlineExceeded bool) {
	d := t.policy.backoff(attempt)
	t.phaseBackoff += d
	t.stats.BackoffTime += d
	return t.phaseBackoff > t.policy.PhaseDeadline
}

// pull drains the endpoint's bus inbox into its receive buffer, dropping
// copies that fail signature verification (per the paper: unverifiable
// messages are discarded) and copies of a logical message the endpoint
// already holds (idempotent handling by (sender, nonce)). A copy
// byte-identical to the first verified copy of its message costs a
// lookup and a compare; any other copy is verified in full, and the
// first one of its message to pass is entered in the table. The medium
// hands the drained slice over, so when nothing is pending it becomes the
// pending buffer, the kept copies compacted to its front in arrival
// order. Only the slice is the transport's: the records it points to are
// shared with every other recipient and are never written.
func (t *transport) pull(id string) error {
	msgs, err := t.net.Drain(id)
	if err != nil {
		return err
	}
	b := t.buf(id)
	kept := msgs[:0]
	for _, m := range msgs {
		k := nonceKey{from: m.From, nonce: m.Nonce}
		mi, known := t.index[k]
		if !known || !t.first[mi].Matches(&m.Env) {
			v, err := t.ver.Check(&m.Env)
			if err != nil {
				t.stats.CorruptDiscards++
				t.event(obs.Event{Kind: obs.EvCorruptDiscard, From: m.From, To: id, Msg: m.Kind})
				continue
			}
			if !known {
				mi = len(t.first)
				t.index[k] = mi
				t.first = append(t.first, v)
			}
		}
		if b.has(mi) {
			t.stats.DupDiscards++
			t.event(obs.Event{Kind: obs.EvDedupHit, From: m.From, To: id, Msg: m.Kind})
			continue
		}
		b.mark(mi)
		kept = append(kept, m)
	}
	if len(b.pending) == 0 {
		b.pending = kept
	} else {
		b.pending = append(b.pending, kept...)
	}
	return nil
}

// takeNonce removes and returns the pending copy with the given logical
// identity, if present. Deduplication keeps at most one pending copy per
// identity and every take is by identity, so pending order is never
// observed: the last entry fills the hole.
func (t *transport) takeNonce(id, from string, nonce uint64) (*bus.Message, bool) {
	b := t.buf(id)
	for i, m := range b.pending {
		if m.From == from && m.Nonce == nonce {
			last := len(b.pending) - 1
			b.pending[i] = b.pending[last]
			b.pending[last] = nil
			b.pending = b.pending[:last]
			return m, true
		}
	}
	return nil, false
}

// takeEach offers every pending copy of endpoint id to take, in one pass,
// and removes the ones it takes; the rest keep their order.
func (t *transport) takeEach(id string, take func(m *bus.Message) bool) {
	b := t.buf(id)
	kept := b.pending[:0]
	for _, m := range b.pending {
		if !take(m) {
			kept = append(kept, m)
		}
	}
	clear(b.pending[len(kept):])
	b.pending = kept
}

// sendReliable unicasts one logical message until the receiver holds a
// verified copy, retrying with capped exponential backoff. On a reliable
// bus this is a single transmission and a single drain — the exact
// traffic pattern of the original protocol. The delivered copy is
// consumed from the receiver's buffer and returned.
func (t *transport) sendReliable(from, to, kind string, env sig.Envelope, size int) (*bus.Message, error) {
	nonce := t.net.NextNonce()
	for attempt := 1; ; attempt++ {
		if _, err := t.net.SendTagged(from, to, kind, env, size, nonce); err != nil {
			return nil, err
		}
		if attempt > 1 {
			t.stats.Retransmits++
			t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: to, Msg: kind})
		}
		if err := t.pull(to); err != nil {
			return nil, err
		}
		if m, ok := t.takeNonce(to, from, nonce); ok {
			return m, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, To: to, Msg: kind})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			return nil, fmt.Errorf("%w: %s → %s (%s) after %d attempts",
				ErrUnreachable, from, to, kind, attempt)
		}
	}
}

// broadcastReliable broadcasts one logical message until every receiver
// holds a verified copy; missed receivers are retried by unicast under
// the same nonce. It returns the receivers still missing after the
// budget (empty on success); the delivered copies are consumed.
func (t *transport) broadcastReliable(from, kind string, env sig.Envelope, size int, receivers []string) ([]string, error) {
	nonce, err := t.net.BroadcastTagged(from, kind, env, size, 0)
	if err != nil {
		return nil, err
	}
	// missing[k] marks receivers[k] as still without a copy; the
	// receivers are distinct.
	missing := append(t.missing[:0], make([]bool, len(receivers))...)
	t.missing = missing
	for k := range missing {
		missing[k] = true
	}
	left := len(receivers)
	for attempt := 1; ; attempt++ {
		for k, r := range receivers {
			if !missing[k] {
				continue
			}
			if err := t.pull(r); err != nil {
				return nil, err
			}
			if _, ok := t.takeNonce(r, from, nonce); ok {
				missing[k] = false
				left--
			}
		}
		if left == 0 {
			return nil, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, Msg: kind,
			Detail: fmt.Sprintf("%d receivers missing", left)})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			var out []string
			for k, r := range receivers {
				if missing[k] {
					out = append(out, r)
				}
			}
			return out, nil
		}
		for k, r := range receivers {
			if missing[k] {
				if _, err := t.net.SendTagged(from, r, kind, env, size, nonce); err != nil {
					return nil, err
				}
				t.stats.Retransmits++
				t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: r, Msg: kind})
			}
		}
	}
}
