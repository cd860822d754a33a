package netbus

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"dlsbl/internal/obs"
)

// NodeStats counts what a mailbox node did; read them with Node.Stats.
type NodeStats struct {
	// Enqueued counts messages accepted into a mailbox.
	Enqueued uint64
	// DedupHits counts resent FtMsg frames recognized by frame nonce
	// and acked without re-enqueueing.
	DedupHits uint64
	// Drains counts drain requests answered.
	Drains uint64
	// BadFrames counts datagrams rejected as malformed (wrong magic or
	// version, truncation, oversize, unknown endpoint, unparsable body).
	BadFrames uint64
	// DatagramsIn counts datagrams received, malformed ones included.
	DatagramsIn uint64
	// DatagramsOut counts reply datagrams written.
	DatagramsOut uint64
}

// seenCap bounds the per-node resend-dedup window. Entries are evicted
// FIFO; the window only needs to cover the driver's resend horizon
// (milliseconds), so a few thousand frames is generous.
const seenCap = 8192

// seenKey identifies an FtMsg frame for resend deduplication.
type seenKey struct {
	node  string
	nonce uint64
}

// mailbox holds one endpoint's undrained messages with per-message
// sequence numbers for cumulative acknowledgement.
type mailbox struct {
	nextSeq uint64
	queue   []SeqMsg
}

// Node is a mailbox server: it hosts the inboxes of the endpoints
// assigned to it in the peer table and answers FtMsg/FtDrain/FtPing
// datagrams. A Node is stateless beyond its mailboxes — it never dials
// out and never originates traffic, every reply goes to the datagram's
// source address (the relay-node shape).
type Node struct {
	name string
	conn *net.UDPConn

	mu       sync.Mutex
	boxes    map[string]*mailbox
	seen     map[seenKey]bool
	seenFIFO []seenKey
	stats    NodeStats

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
	n := &Node{
		name:   name,
		conn:   conn,
		boxes:  make(map[string]*mailbox, len(spec.Endpoints)),
		seen:   make(map[seenKey]bool, seenCap),
		closed: make(chan struct{}),
	}
	for _, ep := range spec.Endpoints {
		n.boxes[ep] = &mailbox{}
	}
	return n, nil
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
// out.
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
	case FtMsg:
		return n.handleMsg(out, f)
	case FtDrain:
		return n.handleDrain(out, f)
	case FtTelemetry:
		return n.handleTelemetry(out, f)
	default:
		// Acks, pongs and drain responses are driver-bound; a node
		// receiving one ignores it.
		return out
	}
}

// handleMsg enqueues a delivery (or recognizes a resend) and acks.
func (n *Node) handleMsg(out []byte, f Frame) []byte {
	dest, m, err := DecodeMsgBody(f.Body)
	if err != nil {
		n.mu.Lock()
		n.stats.BadFrames++
		n.mu.Unlock()
		return out
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	box, ok := n.boxes[dest]
	if !ok {
		n.stats.BadFrames++
		return out // not our endpoint: drop, no ack
	}
	k := seenKey{node: f.Node, nonce: f.Nonce}
	if n.seen[k] {
		// The driver resent because our ack was lost; ack again without
		// enqueueing a duplicate.
		n.stats.DedupHits++
		n.event(obs.Event{Kind: obs.EvDedupHit, From: m.From, To: dest, Msg: m.Kind,
			Round: f.Round, Origin: f.Nonce})
		return AppendControlFrame(out, FtAck, f.Nonce, n.name)
	}
	if len(n.seenFIFO) >= seenCap {
		delete(n.seen, n.seenFIFO[0])
		n.seenFIFO = n.seenFIFO[1:]
	}
	n.seen[k] = true
	n.seenFIFO = append(n.seenFIFO, k)
	box.nextSeq++
	box.queue = append(box.queue, SeqMsg{Seq: box.nextSeq, Msg: m})
	n.stats.Enqueued++
	// The frame nonce as origin matches this receive against the
	// driver's net_tx/net_rx bracket for the same exchange; the round
	// context, when the frame carried one, attributes it to a round.
	n.event(obs.Event{Kind: obs.EvNetRx, From: m.From, To: dest, Msg: m.Kind,
		Round: f.Round, Origin: f.Nonce})
	out = AppendControlFrame(out, FtAck, f.Nonce, n.name)
	n.event(obs.Event{Kind: obs.EvNetTx, From: n.name, To: f.Node, Msg: "ack",
		Round: f.Round, Origin: f.Nonce})
	return out
}

// handleDrain prunes acknowledged mail and returns what remains, cut to
// fit one datagram (FlagMore marks a truncated batch).
func (n *Node) handleDrain(out []byte, f Frame) []byte {
	endpoint, ackSeq, err := DecodeDrainBody(f.Body)
	if err != nil {
		n.mu.Lock()
		n.stats.BadFrames++
		n.mu.Unlock()
		return out
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	box, ok := n.boxes[endpoint]
	if !ok {
		n.stats.BadFrames++
		return out
	}
	// Cumulative ack: everything at or below ackSeq was consumed by the
	// driver and can be forgotten. Idempotent — a resent drain with the
	// same ackSeq re-sends the same batch.
	keep := box.queue[:0]
	for _, sm := range box.queue {
		if sm.Seq > ackSeq {
			keep = append(keep, sm)
		}
	}
	box.queue = keep
	// Cut the batch so the response frame stays under MaxFrame. The
	// per-message overhead is dominated by the envelope; estimate with
	// the exact body encoding.
	budget := MaxFrame - 256 // header + endpoint + count headroom
	var batch []SeqMsg
	used := 0
	more := false
	for _, sm := range box.queue {
		sz := len(appendMessage(nil, sm.Msg)) + 12
		if used+sz > budget {
			more = true
			break
		}
		batch = append(batch, sm)
		used += sz
	}
	n.stats.Drains++
	n.event(obs.Event{Kind: obs.EvNetRx, From: f.Node, To: endpoint, Msg: "drain", Origin: f.Nonce})
	out = AppendDrainRspFrame(out, f.Nonce, n.name, endpoint, batch, more)
	n.event(obs.Event{Kind: obs.EvNetTx, From: n.name, To: f.Node, Msg: "drain_rsp", Origin: f.Nonce})
	return out
}

// handleTelemetry prunes acknowledged trace records and returns what
// remains as NDJSON lines, cut to fit one datagram (FlagMore marks a
// truncated batch). A node without telemetry enabled answers with an
// empty batch — the collector cannot tell silence from "nothing
// buffered", which is fine: both mean no records.
func (n *Node) handleTelemetry(out []byte, f Frame) []byte {
	ackSeq, err := DecodeTelemetryBody(f.Body)
	if err != nil {
		n.mu.Lock()
		n.stats.BadFrames++
		n.mu.Unlock()
		return out
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rec == nil {
		return AppendTelemetryRspFrame(out, f.Nonce, n.name, nil, false)
	}
	// Cumulative ack, mirroring mail drains: acknowledged records are
	// pruned, the rest re-served — a lost response is re-asked.
	n.rec.Prune(int(ackSeq))
	recs := n.rec.RecordsSince(int(ackSeq))
	budget := MaxFrame - 256 // header + count headroom
	var lines [][]byte
	used := 0
	more := false
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			continue // a record that cannot marshal is unshippable; skip it
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
