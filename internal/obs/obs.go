// Package obs is the protocol's observability layer: structured tracing
// of phase spans and per-message events, with NDJSON and Chrome
// trace-event exports, plus build metadata for the service's telemetry
// surfaces.
//
// The design contract is "zero overhead when nil": producers (the bus,
// the reliable transport, the protocol phases) hold a Tracer interface
// and guard every emission with a nil check, so a run configured without
// tracing executes exactly the pre-tracing instruction stream — payments
// and audit transcripts are bit-identical either way (pinned by
// TestTracerNilParity in internal/protocol).
//
// A Tracer only observes. Nothing a Tracer does may feed back into
// protocol decisions: timestamps are wall-clock annotations on a
// virtual-time simulation and never enter an allocation, a payment or a
// verdict.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the bus, the reliable transport and the
// protocol phases. Bus-level kinds double as the fault class of the
// delivery they describe.
const (
	// Bus delivery pipeline (internal/bus).
	EvDeliver   = "deliver"   // a copy reached a receiver's inbox
	EvDrop      = "drop"      // a copy was lost (fault plan or blackholed endpoint)
	EvCorrupt   = "corrupt"   // a copy suffered a signature-breaking bit flip
	EvDuplicate = "duplicate" // a copy was cloned in flight
	EvDelay     = "delay"     // a copy was deferred to a later drain
	EvReorder   = "reorder"   // a copy jumped the receiver's queue

	// Reliable transport (internal/protocol).
	EvDedupHit       = "dedup_hit"       // an already-seen (sender, nonce) copy was discarded
	EvCorruptDiscard = "corrupt_discard" // a copy failed signature verification on arrival
	EvRetransmit     = "retransmit"      // a logical message was transmitted again
	EvTimeout        = "timeout"         // a retry round ended with deliveries still missing

	// Protocol phases.
	EvEviction   = "eviction"    // a processor was removed for unreachability
	EvBidReused  = "bid_reused"  // a round was served from a BidSession's cached bids
	EvBidSpliced = "bid_spliced" // a single changed member re-bid; the rest of the cache was spliced in
	EvConviction = "conviction"  // a verdict fined a processor

	// Verification fast path (internal/sig.BatchVerifier).
	EvVerifyBatch   = "verify_batch"    // a batch of envelopes was verified in one pass
	EvVerifyMemoHit = "verify_memo_hit" // verifications skipped via the verified-envelope memo

	// Pipelined scheduler (internal/pipeline).
	EvInstallment = "installment" // a sub-round served one installment of a pipelined load

	// Byzantine adversary tiers (internal/protocol, internal/referee).
	EvWitnessReport     = "witness_report"     // a witness reported a peer's bid unreachable
	EvFramingConviction = "framing_conviction" // a witness maintained its claim after a verified relay and was fined
	EvCheckpointResume  = "checkpoint_resume"  // survivors re-solved the instance after a mid-computation crash
	EvRefereeFailover   = "referee_failover"   // the standby referee was promoted mid-round

	// Netbus datagram layer (internal/netbus). Origin carries the frame
	// nonce so the same exchange is matchable across the driver's and the
	// node's traces (the clock-stitching key).
	EvNetTx      = "net_tx"      // a datagram left this process
	EvNetRx      = "net_rx"      // a datagram was received and accepted
	EvDecodeFail = "decode_fail" // a received datagram failed frame decoding

	// Economic sentinels (internal/protocol → Sentinel).
	EvPayment     = "payment"      // one processor's settled payment: Values = [Q, C, B] (load-fraction scaled)
	EvInvoice     = "invoice"      // the round's invoice total billed to the user: Values = [total]
	EvLoadSettled = "load_settled" // a pipelined load's aggregate payment across installments: Values = [total]
	EvEvidence    = "evidence"     // the referee received a signed, verifiable piece of evidence
)

// Phase names used for spans. Initialization covers setup (identities,
// keys, PKI, dataset); the other four are the paper's protocol phases.
const (
	PhaseInit       = "initialization"
	PhaseBidding    = "bidding"
	PhaseAllocating = "allocating"
	PhaseProcessing = "processing"
	PhasePayments   = "payments"
)

// Event is one point occurrence: a bus delivery outcome, a transport
// decision or a protocol incident. From/To are bus endpoint identities
// ("P3", "referee"); Msg is the protocol message kind ("dls/bid");
// Round, when empty, is filled by the receiving Tracer from the
// enclosing phase's round ID.
type Event struct {
	Kind   string
	From   string
	To     string
	Msg    string
	Round  string
	Detail string
	// Origin is the netbus frame nonce of the datagram this event
	// describes (zero when the event is not datagram-scoped). The same
	// exchange carries the same Origin in the driver's and the owning
	// node's traces, which is what lets the stitcher align their clocks.
	Origin uint64
	// Values carries the event's numeric payload — e.g. [Q, C, B] on a
	// payment event — so sentinels can check arithmetic invariants
	// without parsing Detail strings.
	Values []float64
}

// Tracer receives span and event records. Implementations must be safe
// for use from a single protocol run at a time; Recorder additionally
// locks so one Tracer can serve concurrent runs (e.g. a service pool
// observer shared with a snapshot reader).
//
// Producers MUST guard every call with a nil check — the nil Tracer is
// the documented zero-cost path.
type Tracer interface {
	// BeginPhase opens a span. round is the session-salted round ID in
	// force ("" for standalone runs); epoch is the round the bid set in
	// force was signed in.
	BeginPhase(name, round, epoch string)
	// EndPhase closes the most recent open span with this name.
	EndPhase(name string)
	// Event records a point occurrence inside the current span.
	Event(e Event)
}

// Record is one serialized trace record — the NDJSON line format and the
// input to the Chrome trace-event exporter. Type is "begin" or "end" for
// phase spans, "event" for point events, and "truncated" for the marker
// a capped recorder prepends when older records were dropped; TS is
// microseconds of wall time since the recorder's first record,
// non-decreasing across the record stream. Wall is the absolute wall
// clock (Unix microseconds) at emission — meaningless inside one
// process's trace, but the raw material the cross-process stitcher's
// clock alignment works from.
type Record struct {
	Seq    int       `json:"seq"`
	TS     float64   `json:"ts_us"`
	Wall   float64   `json:"wall_us,omitempty"`
	Type   string    `json:"type"`
	Name   string    `json:"name"`
	Phase  string    `json:"phase,omitempty"`
	Round  string    `json:"round,omitempty"`
	Epoch  string    `json:"epoch,omitempty"`
	From   string    `json:"from,omitempty"`
	To     string    `json:"to,omitempty"`
	Msg    string    `json:"msg,omitempty"`
	Detail string    `json:"detail,omitempty"`
	Origin uint64    `json:"origin,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// Recorder is the standard Tracer: it timestamps and sequences records,
// annotates events with the enclosing phase and round, and either
// retains the records for later export (NewRecorder) or streams each one
// as an NDJSON line the moment it is emitted (NewStream, which retains
// nothing — the shape a long-running service wants).
type Recorder struct {
	mu      sync.Mutex
	started bool
	start   time.Time
	last    float64
	seq     int
	recs    []Record
	keep    bool
	cap     int // retained-record ceiling; 0 = unbounded
	dropped int // records the cap evicted, reported by the truncated marker
	sink    *json.Encoder
	sinkErr error

	// stack tracks open phases; round/epoch mirror the innermost span.
	stack []spanFrame
}

type spanFrame struct {
	name  string
	round string
	epoch string
}

// NewRecorder returns a Recorder that retains every record in memory for
// export via Records, WriteNDJSON or WriteChromeTrace.
func NewRecorder() *Recorder { return &Recorder{keep: true} }

// NewRecorderCap returns a retaining Recorder that keeps at most n
// records, evicting the oldest first (a ring). When anything was
// evicted, Records prepends a single "truncated" marker record carrying
// the drop count — a leaked long-lived recorder degrades to a bounded
// window instead of growing without limit. n <= 0 selects an unbounded
// recorder, identical to NewRecorder.
func NewRecorderCap(n int) *Recorder {
	if n <= 0 {
		return NewRecorder()
	}
	return &Recorder{keep: true, cap: n}
}

// NewStream returns a Recorder that writes each record to w as one
// NDJSON line at emission time and retains nothing. Write errors are
// sticky and reported by Err — tracing must never fail the traced run.
func NewStream(w io.Writer) *Recorder {
	return &Recorder{sink: json.NewEncoder(w)}
}

// Err reports the first sink write error a streaming Recorder hit, nil
// otherwise (and always nil for in-memory recorders).
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// now returns microseconds since the first record, clamped to be
// non-decreasing (span nesting stays monotonic even if the clock steps).
// Caller holds r.mu.
func (r *Recorder) now() float64 {
	if !r.started {
		r.started = true
		r.start = time.Now()
	}
	t := float64(time.Since(r.start)) / float64(time.Microsecond)
	if t < r.last {
		t = r.last
	}
	r.last = t
	return t
}

// emit seals one record. Caller holds r.mu.
func (r *Recorder) emit(rec Record) {
	rec.Seq = r.seq
	r.seq++
	rec.TS = r.now()
	rec.Wall = float64(time.Now().UnixMicro())
	if r.keep {
		if r.cap > 0 && len(r.recs) >= r.cap {
			evict := len(r.recs) - r.cap + 1
			r.dropped += evict
			r.recs = append(r.recs[:0], r.recs[evict:]...)
		}
		r.recs = append(r.recs, rec)
	}
	if r.sink != nil && r.sinkErr == nil {
		r.sinkErr = r.sink.Encode(rec)
	}
}

// BeginPhase implements Tracer.
func (r *Recorder) BeginPhase(name, round, epoch string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stack = append(r.stack, spanFrame{name: name, round: round, epoch: epoch})
	r.emit(Record{Type: "begin", Name: name, Round: round, Epoch: epoch})
}

// EndPhase implements Tracer. An EndPhase with no matching open span is
// recorded anyway (the exporters tolerate it) — a Tracer never panics a
// run.
func (r *Recorder) EndPhase(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var round, epoch string
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i].name == name {
			round, epoch = r.stack[i].round, r.stack[i].epoch
			r.stack = append(r.stack[:i], r.stack[i+1:]...)
			break
		}
	}
	r.emit(Record{Type: "end", Name: name, Round: round, Epoch: epoch})
}

// Event implements Tracer.
func (r *Recorder) Event(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := Record{
		Type:   "event",
		Name:   e.Kind,
		From:   e.From,
		To:     e.To,
		Msg:    e.Msg,
		Round:  e.Round,
		Detail: e.Detail,
		Origin: e.Origin,
		Values: e.Values,
	}
	if n := len(r.stack); n > 0 {
		top := r.stack[n-1]
		rec.Phase = top.name
		if rec.Round == "" {
			rec.Round = top.round
		}
	}
	r.emit(rec)
}

// Records returns a copy of the retained records (empty for streaming
// recorders). A capped recorder that evicted records prepends one
// "truncated" marker record carrying the drop count, timed at the oldest
// surviving record so the gap renders where it happened.
func (r *Recorder) Records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dropped == 0 {
		return append([]Record(nil), r.recs...)
	}
	out := make([]Record, 0, len(r.recs)+1)
	marker := Record{
		Type:   "truncated",
		Name:   "truncated",
		Detail: fmt.Sprintf("%d older records dropped by the %d-record cap", r.dropped, r.cap),
	}
	if len(r.recs) > 0 {
		marker.Seq = r.recs[0].Seq - 1
		marker.TS = r.recs[0].TS
		marker.Wall = r.recs[0].Wall
	}
	return append(append(out, marker), r.recs...)
}

// Dropped reports how many records a capped recorder has evicted.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// RecordsSince returns the retained records with Seq strictly above seq
// — the cumulative-ack drain a telemetry collector uses, so re-asked
// drains are idempotent and already-shipped records are skipped.
func (r *Recorder) RecordsSince(seq int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := len(r.recs)
	for i > 0 && r.recs[i-1].Seq > seq {
		i--
	}
	return append([]Record(nil), r.recs[i:]...)
}

// Prune discards retained records with Seq at or below seq — the
// collector acknowledged them, so a bounded node-side buffer stays
// small between telemetry drains. Pruned records do not count as
// dropped: they were delivered, not lost.
func (r *Recorder) Prune(seq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := r.recs[:0]
	for _, rec := range r.recs {
		if rec.Seq > seq {
			keep = append(keep, rec)
		}
	}
	r.recs = keep
}

// WriteNDJSON writes the retained records to w, one JSON object per
// line.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: writing NDJSON: %w", err)
		}
	}
	return nil
}

// multi fans every call out to several tracers.
type multi []Tracer

func (m multi) BeginPhase(name, round, epoch string) {
	for _, t := range m {
		t.BeginPhase(name, round, epoch)
	}
}
func (m multi) EndPhase(name string) {
	for _, t := range m {
		t.EndPhase(name)
	}
}
func (m multi) Event(e Event) {
	for _, t := range m {
		t.Event(e)
	}
}

// Multi combines tracers; nil entries are dropped. It returns nil when
// nothing remains, preserving the zero-cost nil path, and the tracer
// itself when exactly one remains.
func Multi(tracers ...Tracer) Tracer {
	var kept multi
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}
