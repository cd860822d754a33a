package protocol

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// owns every endpoint's inbox and every emission: phases hand it logical
// messages and receive the verified copies deliver takes for them, so
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
	// batch holds the logical messages of the delivery in progress (see
	// emit) and row sendReliable's row; the rest is deliver's scratch:
	// each message's index by nonce, the awaited (receiver, message)
	// pairs and one receiver's takes of one attempt by message index.
	batch []bus.Broadcast
	row   []*bus.Message
	slot  map[uint64]int
	want  []bool
	got   []*bus.Message
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
	clear(t.slot)
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

// emit sends each message of bs once, under a fresh nonce it writes into
// the message: as broadcasts in one BroadcastEach when to is empty, else
// to to alone by SendTagged. A delivery's logical messages are
// bus.Broadcast values: sender, kind, envelope, size and nonce,
// everything an emission carries but its addressee, which is the
// delivery's.
func (t *transport) emit(bs []bus.Broadcast, to string) error {
	if to == "" {
		return t.net.BroadcastEach(bs)
	}
	for i := range bs {
		b := &bs[i]
		nonce, err := t.net.SendTagged(b.From, to, b.Kind, b.Env, b.Size, 0)
		if err != nil {
			return err
		}
		b.Nonce = nonce
	}
	return nil
}

// deliver is the retry loop of every reliable message. bs went out once
// through emit, and receivers are distinct: each awaits every message of
// bs but its own, so a unicast's delivery names its addressee alone.
// Every attempt drains every receiver and takes the copies it awaits,
// appending receivers[k]'s to rows[k] (unless rows is nil) in message
// order, whatever order they arrived in. While any (receiver, message)
// pair is missing, the attempt counts a timeout, backs off under the
// policy and resends exactly the missing pairs by unicast under their
// original nonces, in (receiver, message) order: send order decides
// which seeded fault draws hit which deliveries, so it must be
// deterministic for FaultPlan's reproducibility contract to hold. When
// the attempt budget or the phase deadline runs out, deliver gives up.
// It returns the pairs still missing, missing[k*len(bs)+i] for
// receivers[k] and bs[i] (scratch valid until the next delivery), and
// the attempts made.
func (t *transport) deliver(bs []bus.Broadcast, receivers []string, rows [][]*bus.Message) (missing []bool, attempts int, err error) {
	n := len(bs)
	want, left := slices.Grow(t.want[:0], len(receivers)*n), 0
	for _, id := range receivers {
		for i := range bs {
			w := bs[i].From != id
			want = append(want, w)
			if w {
				left++
			}
		}
	}
	t.want = want
	got := slices.Grow(t.got[:0], n)[:n]
	t.got = got
	if t.slot == nil {
		t.slot = make(map[uint64]int, n) // the first delivery is usually the bid exchange
	}
	for i := range bs {
		t.slot[bs[i].Nonce] = i
	}
	defer t.unslot(bs)
	for attempts = 1; ; attempts++ {
		for k, id := range receivers {
			if err := t.pull(id); err != nil {
				return nil, 0, err
			}
			wants := want[k*n : (k+1)*n]
			t.takeEach(id, func(m *bus.Message) bool {
				i, ok := t.slot[m.Nonce]
				if !ok || !wants[i] || m.From != bs[i].From {
					return false
				}
				wants[i] = false
				left--
				got[i] = m
				return true
			})
			for i, m := range got {
				if m != nil && rows != nil {
					rows[k] = append(rows[k], m)
				}
				got[i] = nil
			}
		}
		if left == 0 {
			return want, attempts, nil
		}
		t.stats.Timeouts++
		if t.tracer != nil {
			t.event(obs.Event{Kind: obs.EvTimeout, Msg: bs[0].Kind,
				Detail: fmt.Sprintf("%d deliveries missing", left)})
		}
		if attempts >= t.policy.MaxAttempts || t.sleep(attempts) {
			return want, attempts, nil
		}
		for k, id := range receivers {
			for i := range bs {
				if !want[k*n+i] {
					continue
				}
				b := &bs[i]
				if _, err := t.net.SendTagged(b.From, id, b.Kind, b.Env, b.Size, b.Nonce); err != nil {
					return nil, 0, err
				}
				t.stats.Retransmits++
				t.event(obs.Event{Kind: obs.EvRetransmit, From: b.From, To: id, Msg: b.Kind})
			}
		}
	}
}

// unslot forgets the nonces of a finished delivery.
func (t *transport) unslot(bs []bus.Broadcast) {
	for i := range bs {
		delete(t.slot, bs[i].Nonce)
	}
}

// sendReliable unicasts one logical message to a receiver other than its
// sender until the receiver holds a verified copy, and returns that
// copy. On a reliable bus this is a single transmission and a single
// drain — the exact traffic pattern of the original protocol.
func (t *transport) sendReliable(from, to, kind string, env sig.Envelope, size int) (*bus.Message, error) {
	t.batch = append(t.batch[:0], bus.Broadcast{From: from, Kind: kind, Env: env, Size: size})
	if err := t.emit(t.batch, to); err != nil {
		return nil, err
	}
	rows := [][]*bus.Message{t.row[:0]}
	missing, attempts, err := t.deliver(t.batch, []string{to}, rows)
	t.row = rows[0]
	if err != nil {
		return nil, err
	}
	if missing[0] {
		return nil, fmt.Errorf("%w: %s → %s (%s) after %d attempts",
			ErrUnreachable, from, to, kind, attempts)
	}
	return rows[0][0], nil
}

// broadcastReliable broadcasts one logical message until every receiver
// holds a verified copy. It returns the receivers still missing after
// the budget (none on success); the delivered copies are consumed.
func (t *transport) broadcastReliable(from, kind string, env sig.Envelope, size int, receivers []string) ([]string, error) {
	t.batch = append(t.batch[:0], bus.Broadcast{From: from, Kind: kind, Env: env, Size: size})
	if err := t.emit(t.batch, ""); err != nil {
		return nil, err
	}
	missing, _, err := t.deliver(t.batch, receivers, nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for k, r := range receivers {
		if missing[k] {
			out = append(out, r)
		}
	}
	return out, nil
}
