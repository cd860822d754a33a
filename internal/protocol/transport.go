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

// nonceKey identifies a logical message for receiver-side deduplication.
type nonceKey struct {
	from  string
	nonce uint64
}

// rxBuf is one endpoint's receive state: verified, deduplicated messages
// not yet consumed by the phase logic.
type rxBuf struct {
	pending []bus.Message
	seen    map[nonceKey]bool
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
	// ver is the run's memoized batch verifier (see Config.Memo); every
	// arrival verifies through it.
	ver *sig.BatchVerifier
}

// event emits one transport event when tracing is on.
func (t *transport) event(e obs.Event) {
	if t.tracer != nil {
		t.tracer.Event(e)
	}
}

func newTransport(net bus.Medium, ver *sig.BatchVerifier, policy RetryPolicy) (*transport, error) {
	if err := policy.validate(); err != nil {
		return nil, err
	}
	return &transport{
		net:    net,
		ver:    ver,
		policy: policy.withDefaults(),
		rx:     make(map[string]*rxBuf),
	}, nil
}

func (t *transport) buf(id string) *rxBuf {
	b := t.rx[id]
	if b == nil {
		b = &rxBuf{seen: make(map[nonceKey]bool)}
		t.rx[id] = b
	}
	return b
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
// messages are discarded) and copies already seen (idempotent handling by
// (sender, nonce)). The medium hands the drained slice over, so when
// nothing is pending it becomes the pending buffer, the kept copies
// compacted to its front in arrival order.
func (t *transport) pull(id string) error {
	msgs, err := t.net.Drain(id)
	if err != nil {
		return err
	}
	b := t.buf(id)
	kept := msgs[:0]
	for i := range msgs {
		m := &msgs[i]
		if t.ver.Verify(&m.Env) != nil {
			t.stats.CorruptDiscards++
			t.event(obs.Event{Kind: obs.EvCorruptDiscard, From: m.From, To: id, Msg: m.Kind})
			continue
		}
		k := nonceKey{from: m.From, nonce: m.Nonce}
		if b.seen[k] {
			t.stats.DupDiscards++
			t.event(obs.Event{Kind: obs.EvDedupHit, From: m.From, To: id, Msg: m.Kind})
			continue
		}
		b.seen[k] = true
		kept = append(kept, *m)
	}
	if len(b.pending) == 0 {
		b.pending = kept
	} else {
		b.pending = append(b.pending, kept...)
	}
	return nil
}

// takeNonce removes and returns the pending message with the given
// logical identity, if present. Deduplication keeps at most one pending
// copy per identity and every take is by identity, so pending order is
// never observed: the last entry fills the hole.
func (t *transport) takeNonce(id, from string, nonce uint64) (bus.Message, bool) {
	b := t.buf(id)
	for i := range b.pending {
		if m := b.pending[i]; m.From == from && m.Nonce == nonce {
			last := len(b.pending) - 1
			b.pending[i] = b.pending[last]
			b.pending[last] = bus.Message{}
			b.pending = b.pending[:last]
			return m, true
		}
	}
	return bus.Message{}, false
}

// takeEach offers every pending message of endpoint id to take, in one
// pass, and removes the ones it takes; the rest keep their order.
func (t *transport) takeEach(id string, take func(m *bus.Message) bool) {
	b := t.buf(id)
	kept := b.pending[:0]
	for i := range b.pending {
		if !take(&b.pending[i]) {
			kept = append(kept, b.pending[i])
		}
	}
	clear(b.pending[len(kept):])
	b.pending = kept
}

// sendReliable unicasts one logical message until the receiver holds a
// verified copy, retrying with capped exponential backoff. On a reliable
// bus this is a single transmission and a single drain — the exact
// traffic pattern of the original protocol. The delivered message is
// consumed from the receiver's buffer and returned.
func (t *transport) sendReliable(from, to, kind string, env sig.Envelope, size int) (bus.Message, error) {
	nonce := t.net.NextNonce()
	for attempt := 1; ; attempt++ {
		if _, err := t.net.SendTagged(from, to, kind, env, size, nonce); err != nil {
			return bus.Message{}, err
		}
		if attempt > 1 {
			t.stats.Retransmits++
			t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: to, Msg: kind})
		}
		if err := t.pull(to); err != nil {
			return bus.Message{}, err
		}
		if m, ok := t.takeNonce(to, from, nonce); ok {
			return m, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, To: to, Msg: kind})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			return bus.Message{}, fmt.Errorf("%w: %s → %s (%s) after %d attempts",
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
	missing := make(map[string]bool, len(receivers))
	for _, r := range receivers {
		missing[r] = true
	}
	for attempt := 1; ; attempt++ {
		for _, r := range receivers {
			if !missing[r] {
				continue
			}
			if err := t.pull(r); err != nil {
				return nil, err
			}
			if _, ok := t.takeNonce(r, from, nonce); ok {
				delete(missing, r)
			}
		}
		if len(missing) == 0 {
			return nil, nil
		}
		t.stats.Timeouts++
		t.event(obs.Event{Kind: obs.EvTimeout, From: from, Msg: kind,
			Detail: fmt.Sprintf("%d receivers missing", len(missing))})
		if attempt >= t.policy.MaxAttempts || t.sleep(attempt) {
			var left []string
			for _, r := range receivers {
				if missing[r] {
					left = append(left, r)
				}
			}
			return left, nil
		}
		for _, r := range receivers {
			if missing[r] {
				if _, err := t.net.SendTagged(from, r, kind, env, size, nonce); err != nil {
					return nil, err
				}
				t.stats.Retransmits++
				t.event(obs.Event{Kind: obs.EvRetransmit, From: from, To: r, Msg: kind})
			}
		}
	}
}
