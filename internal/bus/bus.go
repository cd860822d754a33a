// Package bus simulates the shared-medium network of the paper: a
// one-port bus interconnecting all processors (and the referee), with an
// atomic broadcast primitive — the paper argues this assumption is
// reasonable because the transmission medium is shared and equidistant
// from all processors, and notes that with atomic broadcast no bid
// commitments are needed.
//
// The bus has two planes:
//
//   - a control plane carrying signed protocol messages (bids, claims,
//     payment vectors). Control messages are timeless but fully accounted:
//     the message and unit counters behind the Θ(m²) communication-
//     complexity measurement (Theorem 5.4) live here;
//   - a data plane carrying load fractions, occupying the one-port medium
//     for α·z virtual time per fraction α, reserved through a
//     sim.Resource so transfers never overlap.
//
// The paper's reliability assumption is optional here: a Bus built with
// NewFaulty carries a seeded FaultPlan that injects message drops,
// duplicates, delays, signature-breaking corruption and queue reordering
// on the control plane, plus latency jitter on the data plane. Every
// transmission carries a logical Nonce so the retry layer in
// internal/protocol can retransmit idempotently and receivers can dedup.
// A nil plan is the reliable bus of the paper and costs nothing extra on
// the delivery path.
package bus

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
	"dlsbl/internal/sim"
)

// BroadcastAddr is the destination of an atomic broadcast.
const BroadcastAddr = "*"

// Message is one control-plane emission. A medium hands every recipient
// of an emission a pointer to one shared record of it (see
// Medium.Drain), so nobody may write to a delivered Message.
type Message struct {
	From string
	To   string // BroadcastAddr for broadcasts
	Kind string
	Size int // abstract size units, e.g. m for an m-entry payment vector
	// Nonce identifies the logical message: retransmissions reuse it and
	// fault-injected duplicates preserve it, so receivers can treat
	// deliveries idempotently by deduplicating on (From, Nonce).
	Nonce uint64
	Env   sig.Envelope
}

// Stats aggregates control-plane traffic for the communication-complexity
// experiment. A broadcast to m−1 receivers counts as one transmission of
// its size (the medium is shared: one emission reaches everyone), and
// DeliveredUnits additionally tracks per-receiver delivered volume. The
// fault counters record what a FaultPlan did to individual deliveries;
// they are all zero on a reliable bus.
type Stats struct {
	Messages       int // transmissions initiated (broadcast counts once)
	Units          int // Σ size over transmissions
	Deliveries     int // receiver-side message arrivals
	DeliveredUnits int // Σ size over deliveries
	Broadcasts     int
	Unicasts       int

	Dropped    int // deliveries lost (including blackholed endpoints)
	Duplicated int // deliveries that arrived twice
	Delayed    int // deliveries deferred to a later Drain
	Corrupted  int // deliveries with a signature-breaking bit flip
	Reordered  int // deliveries that jumped the receiver's queue
}

// Bus is the simulated network. All methods are safe for concurrent use,
// though the deterministic protocol drives it sequentially.
type Bus struct {
	mu      sync.Mutex
	z       float64
	inboxes map[string][]*Message
	// order holds the attached identities sorted; broadcasts iterate it so
	// fault decisions are drawn in a reproducible receiver order.
	order  []string
	staged map[string][]*Message // delayed deliveries, released by Drain
	// recs stores the records deliveries point to: chunks that never move,
	// each twice the size of the one before, so a record's address holds
	// while later ones are filed. The next record goes to recs[cur][off];
	// Reset rewinds to the first chunk.
	recs     [][]Message
	cur, off int
	stats    Stats
	port     *sim.Resource
	// faults is the plan's fault state, inert under a nil plan. Reset
	// reseeds it in place.
	faults faultState
	// dead holds endpoints blackholed mid-run by MarkUnresponsive — the
	// fail-stopped processors of a crash-recovery round and the killed
	// primary referee of a failover. Checked before the fault pipeline so
	// it works on a reliable bus too; nil until the first mark.
	dead   map[string]bool
	nonce  uint64
	tracer obs.Tracer
}

// New creates a reliable bus with per-unit-load transfer time z ≥ 0.
func New(z float64) (*Bus, error) { return NewFaulty(z, nil) }

// NewFaulty creates a bus whose control plane misbehaves according to the
// seeded plan. A nil plan yields the reliable bus of the paper.
func NewFaulty(z float64, plan *FaultPlan) (*Bus, error) {
	if !(z >= 0) {
		return nil, fmt.Errorf("bus: invalid transfer time z=%v", z)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	b := &Bus{
		z:       z,
		inboxes: make(map[string][]*Message),
		staged:  make(map[string][]*Message),
		port:    sim.NewResource("bus"),
	}
	b.faults.reset(plan)
	return b, nil
}

// Reset returns the bus to what NewFaulty(z, plan) returns, with the
// same endpoints still attached: the inboxes empty (keeping their
// capacity), no delayed deliveries or unresponsive marks, zero stats, a
// nonce counter that numbers the next message 1, a free data-plane port,
// the fault state of a bus freshly built from plan (none for a nil plan)
// and no tracer. The fault state is reseeded in place, so once a plan
// has been instantiated a Reset allocates nothing for it. The record
// storage is rewound: the records handed out before the Reset are
// zeroed, and later emissions are filed over them.
// A long-lived owner (a BidSession) resets one bus for every round it
// serves, each under its job's plan, rather than building and attaching
// a new one.
func (b *Bus) Reset(z float64, plan *FaultPlan) error {
	if !(z >= 0) {
		return fmt.Errorf("bus: invalid transfer time z=%v", z)
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.z = z
	for id, box := range b.inboxes {
		clear(box)
		b.inboxes[id] = box[:0]
	}
	clear(b.staged)
	for _, c := range b.recs[:min(b.cur+1, len(b.recs))] {
		clear(c)
	}
	b.cur, b.off = 0, 0
	b.dead = nil
	b.stats = Stats{}
	b.nonce = 0
	b.port = sim.NewResource("bus")
	b.faults.reset(plan)
	b.tracer = nil
	return nil
}

// Attach registers an endpoint identity on the bus.
func (b *Bus) Attach(id string) error {
	if id == "" || id == BroadcastAddr {
		return fmt.Errorf("bus: invalid endpoint id %q", id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.inboxes[id]; dup {
		return fmt.Errorf("bus: endpoint %q already attached", id)
	}
	b.inboxes[id] = nil
	i := sort.SearchStrings(b.order, id)
	b.order = append(b.order, "")
	copy(b.order[i+1:], b.order[i:])
	b.order[i] = id
	return nil
}

// Detach forgets an endpoint: its queued and delayed deliveries are
// discarded, a mid-run unresponsive mark is lifted, and later traffic
// naming it fails as unknown until it is attached again. Detaching an
// endpoint that is not attached does nothing.
func (b *Bus) Detach(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.inboxes[id]; !ok {
		return
	}
	delete(b.inboxes, id)
	delete(b.staged, id)
	delete(b.dead, id)
	i := sort.SearchStrings(b.order, id)
	b.order = append(b.order[:i], b.order[i+1:]...)
}

// SetTracer installs an observability tracer on the control plane: every
// delivery outcome (arrival, drop, corruption, duplication, delay,
// reorder) is emitted as an obs event annotated with sender, receiver and
// message kind. A nil tracer (the default) costs nothing on the delivery
// path.
func (b *Bus) SetTracer(t obs.Tracer) {
	b.mu.Lock()
	b.tracer = t
	b.mu.Unlock()
}

// record files msg in the record storage and returns the record. Caller
// holds the mutex.
func (b *Bus) record(msg Message) *Message {
	if b.cur < len(b.recs) && b.off == len(b.recs[b.cur]) {
		b.cur, b.off = b.cur+1, 0
	}
	if b.cur == len(b.recs) {
		// The first chunk holds two records per attached endpoint: a
		// reliable protocol round emits 2m + 1 messages over its m + 1
		// endpoints.
		n := 2 * len(b.order)
		if b.cur > 0 {
			n = 2 * len(b.recs[b.cur-1])
		}
		b.recs = append(b.recs, make([]Message, n))
	}
	rec := &b.recs[b.cur][b.off]
	b.off++
	*rec = msg
	return rec
}

// event emits one delivery-pipeline event. Caller holds the mutex.
func (b *Bus) event(kind string, msg *Message, to string) {
	if b.tracer == nil {
		return
	}
	b.tracer.Event(obs.Event{Kind: kind, From: msg.From, To: to, Msg: msg.Kind})
}

// deliver files one delivery of the record msg in an inbox, running the
// fault pipeline when a plan is active: a corrupted copy is filed as a
// record of its own, and a duplicate, delay or reorder moves the pointer.
// Caller holds the mutex.
func (b *Bus) deliver(to string, msg *Message) {
	if b.dead != nil && (b.dead[msg.From] || b.dead[to]) {
		b.stats.Dropped++
		b.event(obs.EvDrop, msg, to)
		return
	}
	fs := &b.faults
	if !fs.plan.active() {
		b.inboxes[to] = append(b.inboxes[to], msg)
		b.stats.Deliveries++
		b.stats.DeliveredUnits += msg.Size
		b.event(obs.EvDeliver, msg, to)
		return
	}
	if fs.unreachable[msg.From] || fs.unreachable[to] {
		b.stats.Dropped++
		b.event(obs.EvDrop, msg, to)
		return
	}
	p := fs.plan
	corrupted := false
	if pr, ok := fs.pairRule(msg.From, to); ok {
		if pr.Drop > 0 && fs.rng.Float64() < pr.Drop {
			b.stats.Dropped++
			b.event(obs.EvDrop, msg, to)
			return
		}
		if pr.Corrupt > 0 && fs.rng.Float64() < pr.Corrupt {
			msg = b.record(corruptEnvelope(*msg))
			corrupted = true
			b.stats.Corrupted++
			b.event(obs.EvCorrupt, msg, to)
		}
	}
	if p.Drop > 0 && fs.rng.Float64() < p.Drop {
		b.stats.Dropped++
		b.event(obs.EvDrop, msg, to)
		return
	}
	if !corrupted && p.Corrupt > 0 && fs.rng.Float64() < p.Corrupt {
		msg = b.record(corruptEnvelope(*msg))
		b.stats.Corrupted++
		b.event(obs.EvCorrupt, msg, to)
	}
	copies := 1
	if p.Duplicate > 0 && fs.rng.Float64() < p.Duplicate {
		copies = 2
		b.stats.Duplicated++
		b.event(obs.EvDuplicate, msg, to)
	}
	for c := 0; c < copies; c++ {
		switch {
		case p.Delay > 0 && fs.rng.Float64() < p.Delay:
			b.staged[to] = append(b.staged[to], msg)
			b.stats.Delayed++
			b.event(obs.EvDelay, msg, to)
		case p.Reorder > 0 && len(b.inboxes[to]) > 0 && fs.rng.Float64() < p.Reorder:
			box := b.inboxes[to]
			at := fs.rng.Intn(len(box))
			box = append(box, nil)
			copy(box[at+1:], box[at:])
			box[at] = msg
			b.inboxes[to] = box
			b.stats.Reordered++
			b.event(obs.EvReorder, msg, to)
		default:
			b.inboxes[to] = append(b.inboxes[to], msg)
		}
		b.stats.Deliveries++
		b.stats.DeliveredUnits += msg.Size
		b.event(obs.EvDeliver, msg, to)
	}
}

// Broadcast is one emission of a BroadcastEach batch.
type Broadcast struct {
	From  string
	Kind  string
	Env   sig.Envelope
	Size  int
	Nonce uint64 // 0 allocates a fresh one; BroadcastEach writes the nonce in force
}

// BroadcastEach atomically delivers each broadcast's envelope to every
// endpoint except its sender, in batch order (on a reliable bus — under
// a FaultPlan individual deliveries may be lost or mangled, which is
// exactly the deviation the retry layer exists to absorb). Size is the
// abstract message size in units (a scalar bid is 1, an m-vector is m).
// Each transmission carries its logical nonce; a zero Nonce allocates a
// fresh one, which BroadcastEach writes back, and retransmissions pass
// the original so receivers can deduplicate. Before the first broadcast
// of a larger batch it grows every attached inbox once by the batch
// length, the deliveries a reliable bus files there, rather than through
// every doubling on the way. On an error the broadcasts before the
// failing one have gone out.
func (b *Bus) BroadcastEach(bs []Broadcast) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(bs) > 1 {
		for _, id := range b.order {
			b.inboxes[id] = slices.Grow(b.inboxes[id], len(bs))
		}
	}
	for i := range bs {
		x := &bs[i]
		if x.Size < 0 {
			return errors.New("bus: negative message size")
		}
		if _, ok := b.inboxes[x.From]; !ok {
			return fmt.Errorf("bus: unknown sender %q", x.From)
		}
		if x.Nonce == 0 {
			b.nonce++
			x.Nonce = b.nonce
		}
		msg := b.record(Message{From: x.From, To: BroadcastAddr, Kind: x.Kind, Size: x.Size, Nonce: x.Nonce, Env: x.Env})
		b.stats.Messages++
		b.stats.Units += x.Size
		b.stats.Broadcasts++
		for _, id := range b.order {
			if id != x.From {
				b.deliver(id, msg)
			}
		}
	}
	return nil
}

// Send delivers the envelope to a single endpoint under a fresh nonce.
func (b *Bus) Send(from, to, kind string, env sig.Envelope, size int) error {
	_, err := b.SendTagged(from, to, kind, env, size, 0)
	return err
}

// SendTagged is Send with an explicit logical nonce (0 allocates one).
func (b *Bus) SendTagged(from, to, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error) {
	if size < 0 {
		return 0, errors.New("bus: negative message size")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.inboxes[from]; !ok {
		return 0, fmt.Errorf("bus: unknown sender %q", from)
	}
	if _, ok := b.inboxes[to]; !ok {
		return 0, fmt.Errorf("bus: unknown receiver %q", to)
	}
	if nonce == 0 {
		b.nonce++
		nonce = b.nonce
	}
	msg := b.record(Message{From: from, To: to, Kind: kind, Size: size, Nonce: nonce, Env: env})
	b.stats.Messages++
	b.stats.Units += size
	b.stats.Unicasts++
	b.deliver(to, msg)
	return nonce, nil
}

// Drain removes and returns the endpoint's queued deliveries in delivery
// order, as pointers to the bus's records: every recipient of one
// emission holds the same record, which stays valid until Reset.
// Deliveries a FaultPlan delayed become visible on the drain after the
// one they missed.
func (b *Bus) Drain(id string) ([]*Message, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	box, ok := b.inboxes[id]
	if !ok {
		return nil, fmt.Errorf("bus: unknown endpoint %q", id)
	}
	if staged := b.staged[id]; len(staged) > 0 {
		b.inboxes[id] = staged
		delete(b.staged, id)
	} else {
		b.inboxes[id] = nil
	}
	return box, nil
}

// Stats returns a snapshot of the traffic counters.
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// MarkUnresponsive blackholes an endpoint's control-plane traffic in
// both directions from this point on — the mid-run analogue of listing
// it in FaultPlan.Unresponsive. The protocol layer calls it when a
// Crash spec fires (the fail-stopped processor) and on referee failover
// (the killed primary). Works on a reliable bus too; subsequent
// deliveries to or from the endpoint count as drops.
func (b *Bus) MarkUnresponsive(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead == nil {
		b.dead = make(map[string]bool, 1)
	}
	b.dead[id] = true
}

// ReserveTransferTo books the one-port data plane for shipping a load
// fraction to endpoint `to`: duration frac·z (plus uniform jitter in
// [0, JitterMax) under a FaultPlan), starting no earlier than
// `earliest`. Targeted PairFault rules with a Jitter stretch the
// transfer by an extra uniform [0, Jitter), modeling a degraded link to
// that one receiver; an empty receiver gets the global jitter only. It
// returns the transfer's [start, end) in virtual time.
func (b *Bus) ReserveTransferTo(earliest, frac float64, to string) (start, end float64, err error) {
	if frac < 0 {
		return 0, 0, fmt.Errorf("bus: negative fraction %v", frac)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	dur := frac * b.z
	if fs := &b.faults; fs.plan != nil && frac > 0 {
		if fs.plan.JitterMax > 0 {
			dur += fs.rng.Float64() * fs.plan.JitterMax
		}
		if to != "" && len(fs.pairs) > 0 {
			// The data plane's sender is the load originator; pair jitter
			// keys on the destination link alone so plans need not name it.
			for _, pr := range fs.plan.Pairs {
				if pr.To == to && pr.Jitter > 0 {
					dur += fs.rng.Float64() * pr.Jitter
				}
			}
		}
	}
	return b.port.Reserve(earliest, dur)
}
