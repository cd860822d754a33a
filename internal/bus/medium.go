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
//   - BroadcastTagged delivers one emission to every attached endpoint
//     except the sender, iterating endpoints in sorted order so
//     deterministic implementations stay reproducible.
//   - BroadcastEach delivers a batch of emissions in order. Every inbox
//     sees the order BroadcastTagged in a loop would give it, and each
//     broadcast gets the nonce the loop would give it. The simulated bus
//     runs exactly that loop; the netbus sends each remote node one
//     frame for the whole batch.
//   - SendTagged unicasts to one endpoint. For both, a zero nonce
//     allocates a fresh logical-message nonce via the medium's counter;
//     retransmissions pass the original nonce so receivers can dedup.
//   - Delivery failure is not an error: a lossy medium swallows the
//     copy (counting it in Stats().Dropped) and returns normally — the
//     transport's retry machinery is the recovery path. Errors are
//     reserved for misuse (unknown endpoint, negative size) and for
//     the medium itself breaking.
//   - Drain removes and returns an endpoint's queued deliveries in
//     arrival order, and hands the returned slice over: the medium keeps
//     no reference to it, so the caller may reuse it (the transport
//     adopts it as the endpoint's pending buffer).
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
	// Endpoints returns the attached identities, sorted.
	Endpoints() []string
	// NextNonce allocates a fresh logical-message nonce.
	NextNonce() uint64
	// Detach releases an endpoint identity; unknown ones are ignored.
	Detach(id string)
	// BroadcastTagged delivers env to every attached endpoint except
	// from, under the given logical nonce (0 allocates one). It returns
	// the nonce in force.
	BroadcastTagged(from, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error)
	// BroadcastEach performs the batch's broadcasts in order and returns
	// the nonce in force for each.
	BroadcastEach(bs []Broadcast) ([]uint64, error)
	// SendTagged delivers env to a single endpoint under the given
	// logical nonce (0 allocates one). It returns the nonce in force.
	SendTagged(from, to, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error)
	// Drain removes and returns the endpoint's queued deliveries in
	// arrival order. The caller owns the returned slice.
	Drain(id string) ([]Message, error)
	// Stats returns a snapshot of the traffic and fault counters.
	Stats() Stats
	// SetTracer installs an observability tracer on the delivery path.
	SetTracer(t obs.Tracer)
}

// The simulated bus is the reference Medium.
var _ Medium = (*Bus)(nil)
