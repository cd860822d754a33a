package netbus

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"dlsbl/internal/obs"
)

// NodeStats counts what a mailbox node did; read them with Node.Stats.
type NodeStats struct {
	// Enqueued counts messages accepted into a mailbox (one per
	// destination of every message a frame carries).
	Enqueued uint64
	// DedupHits counts resent message frames recognized by frame nonce
	// and acked without re-enqueueing.
	DedupHits uint64
	// Drains counts drain requests answered.
	Drains uint64
	// BadFrames counts datagrams rejected as malformed (wrong magic or
	// version, truncation, oversize, unparsable body, or naming an
	// endpoint the node does not host, or one endpoint twice in a drain
	// request or in one message's destinations).
	BadFrames uint64
	// Refused counts message frames refused whole because they would
	// have pushed a destination mailbox past MailboxBytes. A refused
	// frame is neither enqueued, acked nor recorded as seen, so the
	// driver sees an ordinary drop.
	Refused uint64
	// DatagramsIn counts datagrams received, malformed ones included.
	DatagramsIn uint64
	// DatagramsOut counts reply datagrams written.
	DatagramsOut uint64
}

// MailboxBytes bounds the encoded message bytes one mailbox may hold;
// a message frame that would push any of its destinations past it is
// refused whole. It is sized from the largest legitimate backlog. The
// driver drains every mailbox of a node in each sweep and every phase
// sweeps, so a mailbox holds at most one phase's traffic plus the last
// page it served, which stays until the next drain acknowledges it.
// The heaviest inbox is the referee's in Computing Payments, where
// every member sends an m-entry payment vector (8m payload bytes plus
// under 200 of addressing, round ID and signature) and an equivocator
// sends a second one. At m = 256, the largest pool a round has been
// measured at, that is 2·256·(8·256 + 200) = 1,150,976 bytes, plus a
// page of at most MaxFrame = 60,000: about 1.2 MB. 4 MiB leaves more
// than 3× headroom and still caps a hostile flood at 4 MiB per
// mailbox.
const MailboxBytes = 4 << 20

// seenCap bounds the per-node resend-dedup window. Entries are evicted
// FIFO; the window only needs to cover the driver's resend horizon
// (milliseconds), so a few thousand frames is generous.
const seenCap = 8192

// seenKey identifies a message frame for resend deduplication.
type seenKey struct {
	node  string
	nonce uint64
}

// mailbox holds one endpoint's undrained messages with per-message
// sequence numbers for cumulative acknowledgement.
type mailbox struct {
	name    string // the endpoint, as the key boxes holds it under
	nextSeq uint64
	queue   []SeqMsg
	bytes   int    // messageLen summed over queue
	mark    uint64 // the last Node.gen that named this mailbox
	pending int    // bytes the message frame being checked would add
}

// prune forgets every entry at or below the cumulative ack.
func (b *mailbox) prune(ack uint64) {
	k := 0
	for k < len(b.queue) && b.queue[k].Seq <= ack {
		b.bytes -= messageLen(b.queue[k].Msg)
		k++
	}
	if k == 0 {
		return
	}
	n := copy(b.queue, b.queue[k:])
	clear(b.queue[n:]) // release the pruned envelopes
	b.queue = b.queue[:n]
}

// Node is a mailbox server: it hosts the inboxes of the endpoints
// assigned to it in the peer table and answers message, drain, ping
// and telemetry datagrams (FtMsgBatch, FtDrainNode, FtPing,
// FtTelemetry). A Node is stateless beyond its mailboxes — it never
// dials out and never originates traffic, every reply goes to the
// datagram's source address (the relay-node shape).
type Node struct {
	name string
	conn *net.UDPConn

	mu       sync.Mutex
	boxes    map[string]*mailbox
	boxCap   int // per-mailbox byte bound: MailboxBytes
	seen     map[seenKey]bool
	seenFIFO []seenKey
	stats    NodeStats

	// gen numbers the destination lists (a drain request, or one
	// message of a message frame), so a list naming a mailbox twice is
	// caught by its mark without a set allocation.
	gen   uint64
	picks []*mailbox  // the mailboxes the frame being handled names, in order
	parts []drainPart // the drain reply being built

	// entries and dests hold the message frame being filed and its
	// destination lists, reused from one datagram to the next by the
	// goroutine that calls handle (Serve's).
	entries []msgEntry
	dests   []string

	// rec is the bounded telemetry buffer served by FtTelemetry; extra is
	// an additional operator-installed tracer (e.g. an NDJSON stream);
	// tracer fans events out to whichever of the two are live.
	rec    *obs.Recorder
	extra  obs.Tracer
	tracer obs.Tracer

	closed chan struct{}
}

// SetTracer installs an additional tracer next to the telemetry buffer
// — dls-node's -trace flag streams NDJSON through one. Nil removes it.
func (n *Node) SetTracer(t obs.Tracer) {
	n.mu.Lock()
	n.extra = t
	n.tracer = obs.Multi(n.rec, n.extra)
	n.mu.Unlock()
}

// EnableTelemetry switches on the node's telemetry buffer: datagram
// events (net_rx/net_tx/decode_fail, round-attributed when the frame
// carried trace context) are retained in a capped recorder the driver
// drains via FtTelemetry. cap bounds the buffer (oldest evicted first,
// with a "truncated" marker); cap <= 0 selects an unbounded buffer.
func (n *Node) EnableTelemetry(cap int) {
	n.mu.Lock()
	n.rec = obs.NewRecorderCap(cap)
	n.tracer = obs.Multi(n.rec, n.extra)
	n.mu.Unlock()
}

// event emits one node-side datagram event. Caller holds the mutex.
func (n *Node) event(e obs.Event) {
	if n.tracer != nil {
		n.tracer.Event(e)
	}
}

// ListenNode binds the named node's UDP socket per the peer table and
// prepares a mailbox for each endpoint it hosts. Call Serve to start
// answering.
func ListenNode(cfg *Config, name string) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, ok := cfg.Nodes[name]
	if !ok {
		return nil, fmt.Errorf("netbus: node %q not in peer table", name)
	}
	addr, err := net.ResolveUDPAddr("udp", spec.Addr)
	if err != nil {
		return nil, fmt.Errorf("netbus: node %q: %w", name, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netbus: node %q listening on %s: %w", name, spec.Addr, err)
	}
	n := newNode(name, spec.Endpoints)
	n.conn = conn
	return n, nil
}

// newNode builds the socketless state of a node hosting endpoints.
func newNode(name string, endpoints []string) *Node {
	n := &Node{
		name:   name,
		boxes:  make(map[string]*mailbox, len(endpoints)),
		boxCap: MailboxBytes,
		seen:   make(map[seenKey]bool, seenCap),
		closed: make(chan struct{}),
	}
	for _, ep := range endpoints {
		n.boxes[ep] = &mailbox{name: ep}
	}
	return n
}

// Name returns the node's peer-table name.
func (n *Node) Name() string { return n.name }

// LocalAddr returns the bound UDP address (useful when the table said
// port 0).
func (n *Node) LocalAddr() net.Addr { return n.conn.LocalAddr() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Close shuts the socket down; a blocked Serve returns.
func (n *Node) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	return n.conn.Close()
}

// Serve answers datagrams until Close. It runs the receive loop on the
// calling goroutine and returns nil after a clean Close.
func (n *Node) Serve() error {
	buf := make([]byte, MaxFrame+1)
	out := make([]byte, 0, 2048)
	for {
		sz, src, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-n.closed:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("netbus: node %q receive: %w", n.name, err)
		}
		out = n.handle(out[:0], buf[:sz])
		n.mu.Lock()
		n.stats.DatagramsIn++
		if len(out) > 0 {
			n.stats.DatagramsOut++
		}
		n.mu.Unlock()
		if len(out) > 0 {
			// Best-effort reply; a lost reply is re-asked by the driver.
			_, _ = n.conn.WriteToUDP(out, src)
		}
	}
}

// handle processes one datagram and appends the reply frame (if any) to
// out. Every reply goes out in the current wire version, the pong to
// the driver's version probe (a ping of any version) included.
func (n *Node) handle(out, datagram []byte) []byte {
	f, err := DecodeFrame(datagram)
	if err != nil {
		n.mu.Lock()
		n.stats.BadFrames++
		n.event(obs.Event{Kind: obs.EvDecodeFail, From: n.name, Detail: err.Error()})
		n.mu.Unlock()
		return out // malformed datagrams are dropped silently, never answered
	}
	switch f.Type {
	case FtPing:
		return AppendControlFrame(out, FtPong, f.Nonce, n.name)
	case FtMsgBatch:
		return n.fileEntries(out, f)
	case FtDrainNode:
		reqs, err := decodeDrainNodeBody(f.Body)
		if err != nil || len(reqs) == 0 {
			return n.badFrame(out)
		}
		return n.drain(out, f, reqs)
	case FtTelemetry:
		return n.handleTelemetry(out, f)
	default:
		// Acks, pongs and responses are driver-bound; a node receiving
		// one ignores it.
		return out
	}
}

// badFrame counts a frame whose body the node rejects; it is dropped
// unanswered.
func (n *Node) badFrame(out []byte) []byte {
	n.mu.Lock()
	n.stats.BadFrames++
	n.mu.Unlock()
	return out
}

// fileEntries decodes an FtMsgBatch into the node's reusable entry and
// destination buffers, then files it (see enqueue).
func (n *Node) fileEntries(out []byte, f Frame) []byte {
	entries, dests, err := decodeEntries(f.Body, n.entries[:0], n.dests[:0], n.hostedName)
	if err != nil {
		out = n.badFrame(out)
	} else {
		out = n.enqueue(out, f, entries)
	}
	clear(entries) // drop the envelope references
	n.entries, n.dests = entries[:0], dests[:0]
	return out
}

// hostedName spells a destination as the key of the mailbox it names, so
// naming a hosted endpoint allocates nothing; a name the node does not
// host is spelt afresh, for enqueue to reject. boxes is read without the
// mutex: it is fixed when the node is built.
func (n *Node) hostedName(b []byte) string {
	if box, ok := n.boxes[string(b)]; ok {
		return box.name
	}
	return string(b)
}

// beginPick starts a destination list whose mailboxes pick appends to
// n.picks. Caller holds the mutex.
func (n *Node) beginPick() { n.gen++ }

// pick appends the endpoint's mailbox to n.picks, or reports false when
// the endpoint is not hosted here or the current list already named it.
// Caller holds the mutex.
func (n *Node) pick(endpoint string) bool {
	box, hosted := n.boxes[endpoint]
	if !hosted || box.mark == n.gen {
		return false
	}
	box.mark = n.gen
	n.picks = append(n.picks, box)
	return true
}

// enqueue files an FtMsgBatch — a list of entries, each one message and
// its destination mailboxes — in order, every copy or none, then acks
// the frame once. The frame is dropped unacked and counted in BadFrames
// when a destination is not hosted here or is named twice within its
// entry, or when a message could not fit a drain response; it is
// refused whole (Refused) when it would push any mailbox past the
// bound, counting everything the frame adds to it. A resend (same
// sender node and frame nonce as a frame already filed) is acked again
// without filing anything twice. Filing copies each message into its
// mailboxes' queues and allocates nothing per copy beyond their growth.
func (n *Node) enqueue(out []byte, f Frame, entries []msgEntry) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.picks = n.picks[:0]
	for _, e := range entries {
		// The widest drain entry this message can become: endpoint, a
		// maximal seq, and the message, under a header with a maximal
		// count.
		room := MaxFrame - headerFixed - fieldLen(len(n.name)) - 2*binary.MaxVarintLen64 - messageLen(e.msg)
		n.beginPick()
		for _, d := range e.dests {
			if fieldLen(len(d)) > room || !n.pick(d) {
				n.stats.BadFrames++
				return out // not ours, named twice, or undrainable: drop, no ack
			}
		}
	}
	first := entries[0].msg
	k := seenKey{node: f.Node, nonce: f.Nonce}
	if n.seen[k] {
		// The driver resent because our ack was lost; ack again without
		// filing a duplicate.
		n.stats.DedupHits++
		n.event(obs.Event{Kind: obs.EvDedupHit, From: first.From, To: n.name, Msg: first.Kind,
			Round: f.Round, Origin: f.Nonce})
		return AppendControlFrame(out, FtAck, f.Nonce, n.name)
	}
	if n.overflows(entries) {
		n.stats.Refused++
		n.event(obs.Event{Kind: obs.EvDrop, From: first.From, To: n.name, Msg: first.Kind,
			Round: f.Round, Origin: f.Nonce, Detail: "mailbox full"})
		return out
	}
	if len(n.seenFIFO) >= seenCap {
		delete(n.seen, n.seenFIFO[0])
		n.seenFIFO = n.seenFIFO[1:]
	}
	n.seen[k] = true
	n.seenFIFO = append(n.seenFIFO, k)
	picks := n.picks
	for _, e := range entries {
		size := messageLen(e.msg)
		for _, box := range picks[:len(e.dests)] {
			box.nextSeq++
			box.queue = append(box.queue, SeqMsg{Seq: box.nextSeq, Msg: e.msg})
			box.bytes += size
			n.stats.Enqueued++
		}
		picks = picks[len(e.dests):]
	}
	// The frame nonce as origin matches this receive against the
	// driver's net_tx/net_rx bracket for the same exchange; the round
	// context, when the frame carried one, attributes it to a round.
	n.event(obs.Event{Kind: obs.EvNetRx, From: first.From, To: n.name, Msg: first.Kind,
		Round: f.Round, Origin: f.Nonce})
	out = AppendControlFrame(out, FtAck, f.Nonce, n.name)
	n.event(obs.Event{Kind: obs.EvNetTx, From: n.name, To: f.Node, Msg: "ack",
		Round: f.Round, Origin: f.Nonce})
	return out
}

// overflows reports whether filing the entries into n.picks, which
// enqueue resolved from them in order, would push any mailbox past the
// bound; a mailbox named by several entries counts all of them. Caller
// holds the mutex.
func (n *Node) overflows(entries []msgEntry) bool {
	full := false
	picks := n.picks
	for _, e := range entries {
		size := messageLen(e.msg)
		for _, box := range picks[:len(e.dests)] {
			box.pending += size
			full = full || box.bytes+box.pending > n.boxCap
		}
		picks = picks[len(e.dests):]
	}
	for _, box := range n.picks {
		box.pending = 0
	}
	return full
}

// drain answers FtDrainNode: it prunes each requested mailbox to its
// cumulative ack, then returns what remains, in request order, cut to
// fit one datagram (FlagMore marks a truncated batch). Entries are sized
// with messageLen and encoded once, straight into out. A request naming
// a mailbox the node does not host, or one mailbox twice, is dropped
// unanswered before anything is pruned.
func (n *Node) drain(out []byte, f Frame, reqs []drainReq) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.picks = n.picks[:0]
	n.beginPick()
	for _, q := range reqs {
		if !n.pick(q.endpoint) {
			n.stats.BadFrames++
			return out
		}
	}
	budget := MaxFrame - headerFixed - fieldLen(len(n.name)) - binary.MaxVarintLen64
	parts := n.parts[:0]
	more := false
	for i, box := range n.picks {
		// Cumulative ack: everything at or below it was consumed by the
		// driver and can be forgotten. Idempotent — a resent drain with
		// the same acks re-sends the same batch.
		box.prune(reqs[i].ack)
		take := 0
		for _, sm := range box.queue {
			sz := fieldLen(len(reqs[i].endpoint)) + uvarintLen(sm.Seq) + messageLen(sm.Msg)
			if sz > budget {
				more = true
				break
			}
			budget -= sz
			take++
		}
		parts = append(parts, drainPart{endpoint: reqs[i].endpoint, batch: box.queue[:take]})
		if more {
			break
		}
	}
	n.stats.Drains++
	n.event(obs.Event{Kind: obs.EvNetRx, From: f.Node, To: n.name, Msg: "drain", Origin: f.Nonce})
	out = appendDrainNodeRspFrame(out, f.Nonce, n.name, parts, more)
	n.event(obs.Event{Kind: obs.EvNetTx, From: n.name, To: f.Node, Msg: "drain_rsp", Origin: f.Nonce})
	clear(parts) // drop the references into the queues
	n.parts = parts[:0]
	return out
}

// handleTelemetry prunes acknowledged trace records and returns what
// remains as NDJSON lines, cut to fit one datagram (FlagMore marks a
// truncated batch). A node without telemetry enabled answers with an
// empty batch — the collector cannot tell silence from "nothing
// buffered", which is fine: both mean no records.
//
// A record travels under its recorder seq plus one: the recorder numbers
// from 0, and the driver's first request acknowledges 0, which must
// acknowledge nothing. A record that no page can carry is served as a
// "truncated" marker under its seq, so the driver's ack moves past it.
// When the capped buffer evicted records the driver never acknowledged,
// the first record served is not the one after the ack; a "truncated"
// marker naming how many were lost goes ahead of it, under the seq just
// below it, so the loss reaches the driver and the stitched trace.
func (n *Node) handleTelemetry(out []byte, f Frame) []byte {
	ack, err := DecodeTelemetryBody(f.Body)
	if err != nil {
		return n.badFrame(out)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rec == nil {
		return AppendTelemetryRspFrame(out, f.Nonce, n.name, nil, false)
	}
	// Cumulative ack, mirroring mail drains: acknowledged records are
	// pruned, the rest re-served — a lost response is re-asked.
	n.rec.Prune(int(ack) - 1)
	budget := MaxFrame - 256 // header + count headroom
	var lines [][]byte
	used := 0
	more := false
	recs := n.rec.RecordsSince(int(ack) - 1)
	if len(recs) > 0 && uint64(recs[0].Seq) > ack {
		first := recs[0]
		lost := uint64(first.Seq) - ack
		line, _ := json.Marshal(obs.Record{Seq: first.Seq, TS: first.TS, Wall: first.Wall, Type: "truncated", Name: "truncated",
			Detail: fmt.Sprintf("%d records lost: the node's telemetry cap evicted them before collection", lost)})
		lines = append(lines, line)
		used += len(line) + 8
	}
	for _, rec := range recs {
		rec.Seq++
		line, err := json.Marshal(rec)
		if err != nil {
			continue // a record that cannot marshal is unshippable; skip it
		}
		if len(line)+8 > budget {
			line, _ = json.Marshal(obs.Record{Seq: rec.Seq, TS: rec.TS, Wall: rec.Wall, Type: "truncated", Name: "truncated",
				Detail: fmt.Sprintf("a %d-byte %s record exceeds a telemetry page", len(line), rec.Name)})
		}
		sz := len(line) + 8
		if used+sz > budget {
			more = true
			break
		}
		lines = append(lines, line)
		used += sz
	}
	return AppendTelemetryRspFrame(out, f.Nonce, n.name, lines, more)
}
