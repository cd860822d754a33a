package bus

import (
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// Medium is the control plane the protocol's reliable transport runs
// over: addressed delivery of sealed envelopes between named endpoints.
// The simulated *Bus is the deterministic in-process implementation;
// internal/netbus provides a real UDP implementation so a round can span
// OS processes. The split is deliberate: retry, backoff and
// (sender, nonce) deduplication all live ABOVE the Medium, in
// protocol's transport — a Medium only moves envelopes, and is free to
// lose, duplicate or reorder them (the simulated bus under a FaultPlan
// does so on purpose; a UDP socket does so by nature).
//
// Contract, shared by all implementations:
//
//   - Attach registers an endpoint identity before any traffic touches
//     it. The simulated bus rejects duplicate attachment; long-lived
//     media that survive multiple protocol runs may accept
//     re-attachment of a known endpoint.
//   - Detach releases an endpoint: later broadcasts skip it and nothing
//     stays queued for it. A protocol run detaches every endpoint it
//     attached when it ends, so a long-lived medium serves exactly the
//     endpoints of the run in progress.
//   - BroadcastEach delivers a batch of broadcasts in order, each one
//     emission to every attached endpoint except its sender, iterating
//     endpoints in sorted order so deterministic implementations stay
//     reproducible. Every inbox sees the batch in order. The simulated
//     bus delivers one broadcast after the other; the netbus sends each
//     remote node one frame for the whole batch.
//   - SendTagged unicasts to one endpoint. For both, a zero nonce
//     allocates a fresh logical-message nonce via the medium's counter,
//     which BroadcastEach writes into the broadcast's Nonce and
//     SendTagged returns; retransmissions pass the original nonce so
//     receivers can dedup.
//   - Delivery failure is not an error: a lossy medium swallows the
//     copy (counting it in Stats().Dropped) and returns normally — the
//     transport's retry machinery is the recovery path. Errors are
//     reserved for misuse (unknown endpoint, negative size) and for
//     the medium itself breaking.
//   - Drain removes and returns an endpoint's queued deliveries in
//     arrival order, as pointers to shared records: every recipient of
//     one emission holds the same *Message, and a copy a fault altered
//     is a record of its own. Nobody may write to a record, or into the
//     strings and byte slices it holds. The simulated bus keeps its
//     records until Reset; a netbus record lives as long as its holders.
//     The returned slice itself is handed over: the medium keeps no
//     reference to it, so the caller may reuse it (the transport adopts
//     it as the endpoint's pending buffer).
//   - Stats reports the cumulative traffic and fault counters; the
//     fault vocabulary (drops, duplicates, …) keeps its meaning on
//     real sockets.
//   - SetTracer installs an obs.Tracer for per-delivery events
//     (deliver/drop/retransmit/dedup_hit); a nil tracer must cost
//     nothing on the delivery path.
//
// The data plane (transfer timing, ReserveTransferTo) is NOT part of the
// Medium: load-fraction shipping is modeled in virtual time by the
// simulator regardless of what carries the control messages.
type Medium interface {
	// Attach registers an endpoint identity on the medium.
	Attach(id string) error
	// Detach releases an endpoint identity; unknown ones are ignored.
	Detach(id string)
	// BroadcastEach performs the batch's broadcasts in order and writes
	// the nonce in force into each.
	BroadcastEach(bs []Broadcast) error
	// SendTagged delivers env to a single endpoint under the given
	// logical nonce (0 allocates one). It returns the nonce in force.
	SendTagged(from, to, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error)
	// Drain removes and returns the endpoint's queued deliveries in
	// arrival order. The caller owns the returned slice, not the records
	// it points to, which nobody may write to.
	Drain(id string) ([]*Message, error)
	// Stats returns a snapshot of the traffic and fault counters.
	Stats() Stats
	// SetTracer installs an observability tracer on the delivery path.
	SetTracer(t obs.Tracer)
}

// The simulated bus is the reference Medium.
var _ Medium = (*Bus)(nil)
