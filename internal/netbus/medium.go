package netbus

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"dlsbl/internal/bus"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// Options tune the driver side of the netbus. The zero value selects
// the documented defaults.
type Options struct {
	// AckTimeout is how long one request waits for its reply before
	// resending. Zero selects 150ms.
	AckTimeout time.Duration
	// MaxAttempts is the per-frame transmission budget (first send +
	// resends) before the delivery is declared dropped. Zero selects 8.
	MaxAttempts int
}

func (o Options) withDefaults() Options {
	if o.AckTimeout == 0 {
		o.AckTimeout = 150 * time.Millisecond
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 8
	}
	return o
}

// Medium is the driver-process side of the netbus: a bus.Medium whose
// deliveries to remote endpoints cross real UDP sockets to the nodes
// hosting their mailboxes, while endpoints assigned to the local node
// are delivered in-process. The protocol's reliable transport runs on
// top unchanged; below it, the Medium resends unacknowledged frames on
// a deadline and, when the budget runs out, records the copy as dropped
// — exactly the fault vocabulary of the simulated bus, so the retry
// layer's recovery path is identical on both media.
//
// The driver crosses the socket once per node, not once per endpoint or
// per message: every send is one FtMsgBatch per remote owner node — a
// whole BroadcastEach batch, such as a Bidding phase's m bids, as much
// as a single broadcast or unicast — and draining any endpoint fetches
// every attached mailbox of its node in one FtDrainNode exchange into a
// driver-side stash. Later drains of that node's endpoints are served
// from the stash until the driver next sends the node a message frame.
// That is correct only because the driver is the sole sender to its
// nodes (see Dial): a node's mailboxes change only when this Medium
// sends to them, so a stash filled since the last send holds everything
// the node would return.
//
// A Medium is safe for concurrent use but, like the simulated bus, is
// driven sequentially by the deterministic protocol. It is long-lived:
// one Medium serves any number of protocol runs, each attaching its
// endpoints at setup (Attach is idempotent for endpoints the peer table
// knows) and detaching them when it ends.
type Medium struct {
	mu   sync.Mutex
	name string
	conn *net.UDPConn
	opts Options

	owners map[string]string       // endpoint → node name
	addrs  map[string]*net.UDPAddr // node name → address

	attached map[string]bool
	here     []string     // attached local endpoints, sorted
	remote   []remoteNode // every remote node hosting endpoints, in order of its first one

	ackSeq map[string]uint64 // per remote endpoint: highest consumed seq

	// stash holds each endpoint's undrained deliveries as pointers to
	// shared records: the emission's record for every delivery to a local
	// endpoint, and the decoded reply's records for what node drains
	// fetched for remote ones; fresh marks the remote nodes whose
	// mailboxes were all fetched after the driver's last message frame to
	// them.
	stash map[string][]*bus.Message
	fresh map[string]bool

	session  uint64 // high 32 bits of every frame nonce
	frameCtr uint64
	nonce    uint64 // logical protocol nonce counter

	stats  bus.Stats
	net    NetStats
	tracer obs.Tracer

	// round/epoch is the trace context stamped into outgoing message
	// frames (FlagTrace); empty round disables the extension.
	round string
	epoch string

	telAck map[string]uint64 // per node: highest telemetry record seq consumed

	rbuf    []byte        // receive buffer, reused across requests
	wbuf    []byte        // send buffer, reused across frames
	msgs    []bus.Message // the messages being sent, reused across sends
	entries []msgEntry    // one node's batch entries, reused across sends
	dests   []string      // the entries' destinations, reused across sends
	reqs    []drainReq    // node-drain request, reused across drains
	rx      drainReply    // node-drain reply being filed, its buffers reused across drains
}

// remoteNode lists the attached endpoints one remote node hosts, sorted.
type remoteNode struct {
	name string
	eps  []string
}

// NetStats counts the driver side's socket traffic, one level below
// bus.Stats: datagrams (not protocol messages), frame resends and
// datagrams that failed frame decoding. All monotonic.
type NetStats struct {
	DatagramsOut   int // datagrams written to the socket, resends included
	DatagramsIn    int // datagrams read from the socket, stale replies included
	Resends        int // retransmissions after an ack deadline
	DecodeFailures int // received datagrams DecodeFrame rejected
}

// Dial opens the driver side of the netbus as the named node of the
// peer table: it binds that node's UDP address, resolves every other
// node, and hosts the local node's endpoints in-process. The caller is
// the only process that may drive protocol traffic over this table: the
// Medium's drain stash relies on no other sender reaching its nodes.
func Dial(cfg *Config, local string, opts Options) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, ok := cfg.Nodes[local]
	if !ok {
		return nil, fmt.Errorf("netbus: node %q not in peer table", local)
	}
	laddr, err := net.ResolveUDPAddr("udp", spec.Addr)
	if err != nil {
		return nil, fmt.Errorf("netbus: node %q: %w", local, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netbus: node %q listening on %s: %w", local, spec.Addr, err)
	}
	m := &Medium{
		name:     local,
		conn:     conn,
		opts:     opts.withDefaults(),
		owners:   make(map[string]string),
		addrs:    make(map[string]*net.UDPAddr),
		attached: make(map[string]bool),
		ackSeq:   make(map[string]uint64),
		stash:    make(map[string][]*bus.Message),
		fresh:    make(map[string]bool),
		telAck:   make(map[string]uint64),
		rbuf:     make([]byte, MaxFrame+1),
	}
	// Frame nonces are salted with a random session id so a fresh
	// driver never collides with a node's resend-dedup window left over
	// from an earlier driver. Protocol determinism is untouched: frame
	// nonces exist below the logical nonces the protocol sees.
	var salt [4]byte
	if _, err := cryptorand.Read(salt[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netbus: session salt: %w", err)
	}
	m.session = uint64(binary.BigEndian.Uint32(salt[:])) << 32
	first := make(map[string]string) // remote node → its first endpoint
	for name, spec := range cfg.Nodes {
		if name != local {
			addr, err := net.ResolveUDPAddr("udp", spec.Addr)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("netbus: node %q: %w", name, err)
			}
			m.addrs[name] = addr
			if len(spec.Endpoints) > 0 {
				first[name] = slices.Min(spec.Endpoints)
				m.remote = append(m.remote, remoteNode{name: name})
			}
		}
		for _, ep := range spec.Endpoints {
			m.owners[ep] = name
		}
	}
	sort.Slice(m.remote, func(i, j int) bool { return first[m.remote[i].name] < first[m.remote[j].name] })
	return m, nil
}

// LocalAddr returns the driver's bound UDP address.
func (m *Medium) LocalAddr() net.Addr { return m.conn.LocalAddr() }

// Close releases the socket.
func (m *Medium) Close() error { return m.conn.Close() }

// SetTracer installs an observability tracer on the delivery path; the
// netbus emits the bus fault vocabulary (deliver/drop) plus transport
// vocabulary for its own machinery (retransmit for frame resends,
// dedup_hit when a node reports one). Nil (the default) costs nothing.
func (m *Medium) SetTracer(t obs.Tracer) {
	m.mu.Lock()
	m.tracer = t
	m.mu.Unlock()
}

// event emits one delivery event. Caller holds the mutex.
func (m *Medium) event(kind, from, to, msg string) {
	if m.tracer != nil {
		m.tracer.Event(obs.Event{Kind: kind, From: from, To: to, Msg: msg})
	}
}

// netEvent emits one datagram-scoped event carrying the frame nonce as
// its Origin (the clock-stitching key) and the current round context.
// Caller holds the mutex.
func (m *Medium) netEvent(kind, from, to, msg string, origin uint64) {
	if m.tracer != nil {
		m.tracer.Event(obs.Event{Kind: kind, From: from, To: to, Msg: msg, Round: m.round, Origin: origin})
	}
}

// SetRoundContext installs the trace context stamped into every
// subsequent outgoing message frame: round is the session-salted round
// ID, epoch the round its bid set was signed in. An empty round
// disables the extension (frames revert to the untraced encoding). The
// protocol calls this at round boundaries via a type assertion, so
// media without the method — the simulated bus — are untouched.
func (m *Medium) SetRoundContext(round, epoch string) {
	m.mu.Lock()
	m.round, m.epoch = round, epoch
	m.mu.Unlock()
}

// NetStats returns a snapshot of the datagram-level counters.
func (m *Medium) NetStats() NetStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.net
}

// Attach registers an endpoint. The endpoint must exist in the peer
// table; re-attaching a known endpoint is a no-op so one long-lived
// Medium can serve many protocol runs.
func (m *Medium) Attach(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	owner, ok := m.owners[id]
	if !ok {
		return fmt.Errorf("netbus: endpoint %q not in peer table", id)
	}
	if m.attached[id] {
		return nil
	}
	m.attached[id] = true
	if owner == m.name {
		m.here = insertSorted(m.here, id)
		return nil
	}
	rn := m.remoteNode(owner)
	rn.eps = insertSorted(rn.eps, id)
	m.fresh[owner] = false // the stash holds nothing yet for id's mailbox
	return nil
}

// Detach releases an endpoint: later sends skip it, node drains stop
// asking for its mailbox, and whatever the driver's stash holds for it
// is dropped. The endpoint's drain acknowledgement is kept, because its
// node keeps the mailbox's sequence numbers: should it be attached
// again, no message it already consumed is served twice. Unknown
// endpoints are ignored.
func (m *Medium) Detach(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.attached[id] {
		return
	}
	delete(m.attached, id)
	delete(m.stash, id)
	if owner := m.owners[id]; owner == m.name {
		m.here = removeSorted(m.here, id)
	} else {
		rn := m.remoteNode(owner)
		rn.eps = removeSorted(rn.eps, id)
	}
}

// insertSorted inserts id into the sorted list.
func insertSorted(list []string, id string) []string {
	i := sort.SearchStrings(list, id)
	return slices.Insert(list, i, id)
}

// removeSorted removes id, which must be present, from the sorted list.
func removeSorted(list []string, id string) []string {
	i := sort.SearchStrings(list, id)
	return slices.Delete(list, i, i+1)
}

// remoteNode returns the named node's entry in m.remote, or nil. Caller
// holds the mutex.
func (m *Medium) remoteNode(name string) *remoteNode {
	for i := range m.remote {
		if m.remote[i].name == name {
			return &m.remote[i]
		}
	}
	return nil
}

// Stats returns a snapshot of the traffic counters. On the netbus,
// Dropped counts deliveries the resend budget could not confirm and
// Duplicated counts node-reported resend dedups; both stay zero on a
// healthy loopback.
func (m *Medium) Stats() bus.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// nextFrameNonce allocates a session-salted frame nonce. Caller holds
// the mutex.
func (m *Medium) nextFrameNonce() uint64 {
	m.frameCtr++
	return m.session | (m.frameCtr & 0xFFFFFFFF)
}

// request transmits the frame to addr and waits for a reply of the
// wanted type carrying the same nonce, resending on deadline. It
// returns the reply frame and how many transmissions it took, or an
// error after the budget. Every exchange is stop-and-wait, so the
// driver pays one round trip per frame: one per (send, remote owner
// node) and one per (drain sweep, node). Caller holds the mutex (the
// protocol drives the medium sequentially; the socket round trip is the
// critical path either way).
func (m *Medium) request(addr *net.UDPAddr, frame []byte, nonce uint64, want byte) (Frame, int, error) {
	for attempt := 1; attempt <= m.opts.MaxAttempts; attempt++ {
		if _, err := m.conn.WriteToUDP(frame, addr); err != nil {
			return Frame{}, attempt, fmt.Errorf("netbus: send to %s: %w", addr, err)
		}
		m.net.DatagramsOut++
		if attempt > 1 {
			m.net.Resends++
		}
		deadline := time.Now().Add(m.opts.AckTimeout)
		for {
			if err := m.conn.SetReadDeadline(deadline); err != nil {
				return Frame{}, attempt, err
			}
			sz, _, err := m.conn.ReadFromUDP(m.rbuf)
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return Frame{}, attempt, fmt.Errorf("netbus: medium closed")
				}
				break // deadline: resend
			}
			m.net.DatagramsIn++
			f, derr := DecodeFrame(m.rbuf[:sz])
			if derr != nil {
				m.net.DecodeFailures++
				if m.tracer != nil {
					m.tracer.Event(obs.Event{Kind: obs.EvDecodeFail, From: m.name,
						Round: m.round, Detail: derr.Error(), Origin: nonce})
				}
				continue // malformed reply; keep waiting
			}
			if f.Nonce != nonce || f.Type != want {
				continue // stale reply; keep waiting
			}
			return f, attempt, nil
		}
	}
	return Frame{}, m.opts.MaxAttempts, fmt.Errorf("netbus: no %d-reply from %s after %d attempts",
		want, addr, m.opts.MaxAttempts)
}

// receives reports whether endpoint id is a recipient of msg: every
// attached endpoint but the sender for a broadcast, the addressee alone
// for a unicast.
func receives(msg *bus.Message, id string) bool {
	if msg.To == bus.BroadcastAddr {
		return id != msg.From
	}
	return id == msg.To
}

// emit delivers m.msgs in order: local recipients into their stash,
// which grows once per batch as an inbox of the simulated bus does,
// remote ones as one FtMsgBatch per owner node, whose entries list each
// message's recipients on that node in sorted endpoint order. Every
// inbox therefore sees the simulated bus's arrival order, and
// deterministic runs stay comparable across media. The batch's records,
// one per message that every local recipient shares, are one array
// allocated only when a local endpoint receives. Caller holds the mutex.
func (m *Medium) emit() {
	var recs []bus.Message
	for _, id := range m.here {
		n := 0
		for k := range m.msgs {
			if receives(&m.msgs[k], id) {
				n++
			}
		}
		if n > 0 && recs == nil {
			recs = slices.Clone(m.msgs)
		}
		m.stash[id] = slices.Grow(m.stash[id], n)
	}
	for k := range recs {
		rec := &recs[k]
		for _, id := range m.here {
			if receives(rec, id) {
				m.stash[id] = append(m.stash[id], rec)
				m.stats.Deliveries++
				m.stats.DeliveredUnits += rec.Size
				m.event(obs.EvDeliver, rec.From, id, rec.Kind)
			}
		}
	}
	for _, rn := range m.remote {
		entries := m.entries[:0]
		m.dests = slices.Grow(m.dests[:0], len(m.msgs)*len(rn.eps)) // no reallocation below
		for k := range m.msgs {
			lo := len(m.dests)
			for _, id := range rn.eps {
				if receives(&m.msgs[k], id) {
					m.dests = append(m.dests, id)
				}
			}
			if hi := len(m.dests); hi > lo {
				entries = append(entries, msgEntry{dests: m.dests[lo:hi:hi], msg: m.msgs[k]})
			}
		}
		if len(entries) > 0 {
			m.deliverBatch(rn.name, entries)
		}
		clear(entries) // drop the envelope references
		m.entries = entries[:0]
	}
	clear(m.msgs)
	m.msgs = m.msgs[:0]
}

// deliverBatch ships one remote node's entries in as few FtMsgBatch
// frames as MaxFrame allows: a frame is cut only before an entry that
// would push it past MaxFrame. Caller holds the mutex.
func (m *Medium) deliverBatch(owner string, entries []msgEntry) {
	var flags byte
	if m.round != "" {
		// Traced delivery: the round context rides the frame header.
		flags = FlagTrace
	}
	room := MaxFrame - headerLen(flags, m.name, m.round, m.epoch) - uvarintLen(uint64(len(entries)))
	for len(entries) > 0 {
		n, used := 1, entryLen(entries[0])
		for n < len(entries) {
			sz := entryLen(entries[n])
			if used+sz > room {
				break
			}
			used += sz
			n++
		}
		m.sendBatch(owner, flags, entries[:n])
		entries = entries[n:]
	}
}

// sendBatch sends one FtMsgBatch frame and awaits its ack. The node
// files the frame's copies all or none, so they are delivered, or
// dropped after the resend budget, together; a drop is not an error.
// Stats and the deliver/drop/retransmit events still count each copy,
// and the frame's net_tx/net_rx events are labelled with its first
// message. Caller holds the mutex.
func (m *Medium) sendBatch(owner string, flags byte, entries []msgEntry) {
	nonce := m.nextFrameNonce()
	m.wbuf = appendMsgBatchFrame(m.wbuf[:0], flags, nonce, m.name, entries, m.round, m.epoch)
	m.fresh[owner] = false // its mailboxes may change: the next drain must ask
	first := entries[0].msg
	m.netEvent(obs.EvNetTx, first.From, owner, first.Kind, nonce)
	_, attempts, err := m.request(m.addrs[owner], m.wbuf, nonce, FtAck)
	if err == nil {
		m.netEvent(obs.EvNetRx, first.From, owner, first.Kind, nonce)
	}
	for _, e := range entries {
		for _, to := range e.dests {
			for i := 1; i < attempts; i++ {
				m.event(obs.EvRetransmit, e.msg.From, to, e.msg.Kind)
			}
			if err != nil {
				m.stats.Dropped++
				m.event(obs.EvDrop, e.msg.From, to, e.msg.Kind)
				continue
			}
			m.stats.Deliveries++
			m.stats.DeliveredUnits += e.msg.Size
			m.event(obs.EvDeliver, e.msg.From, to, e.msg.Kind)
		}
	}
}

// checkSend validates one transmission's addressing. Caller holds the
// mutex.
func (m *Medium) checkSend(from string, size int) error {
	if size < 0 {
		return errors.New("netbus: negative message size")
	}
	if !m.attached[from] {
		return fmt.Errorf("netbus: unknown sender %q", from)
	}
	return nil
}

// stamp builds one transmission's message, allocating its logical nonce
// when nonce is 0, and counts the transmission. Caller holds the mutex.
func (m *Medium) stamp(from, to, kind string, env sig.Envelope, size int, nonce uint64) bus.Message {
	if nonce == 0 {
		m.nonce++
		nonce = m.nonce
	}
	m.stats.Messages++
	m.stats.Units += size
	if to == bus.BroadcastAddr {
		m.stats.Broadcasts++
	} else {
		m.stats.Unicasts++
	}
	return bus.Message{From: from, To: to, Kind: kind, Size: size, Nonce: nonce, Env: env}
}

// BroadcastEach performs the batch's broadcasts in order (see emit): a
// remote node receives the whole batch in one FtMsgBatch frame, or in
// as few as MaxFrame allows. It writes the nonce in force into each
// broadcast. A misuse error (unknown sender, negative size) sends
// nothing.
func (m *Medium) BroadcastEach(bs []bus.Broadcast) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range bs {
		if err := m.checkSend(b.From, b.Size); err != nil {
			return err
		}
	}
	for i := range bs {
		b := &bs[i]
		m.msgs = append(m.msgs, m.stamp(b.From, bus.BroadcastAddr, b.Kind, b.Env, b.Size, b.Nonce))
		b.Nonce = m.msgs[i].Nonce
	}
	m.emit()
	return nil
}

// SendTagged delivers env to a single endpoint under the given logical
// nonce (0 allocates one): in-process when the endpoint is local,
// otherwise as a one-entry FtMsgBatch to its node.
func (m *Medium) SendTagged(from, to, kind string, env sig.Envelope, size int, nonce uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkSend(from, size); err != nil {
		return 0, err
	}
	if !m.attached[to] {
		return 0, fmt.Errorf("netbus: unknown receiver %q", to)
	}
	msg := m.stamp(from, to, kind, env, size, nonce)
	m.msgs = append(m.msgs, msg)
	m.emit()
	return msg.Nonce, nil
}

// Drain removes and returns the endpoint's queued messages in arrival
// order, from the stash. For a remote endpoint whose node the driver
// has sent a message frame since the node was last drained, Drain
// first fetches every attached mailbox of that node in one FtDrainNode
// exchange (see drainNode). An unreachable node yields whatever the
// stash holds, often nothing — indistinguishable from silence, which is
// exactly what the protocol's retry layer knows how to handle. Every
// recipient of one emission holds its record, as on the simulated bus;
// the records live as long as anyone holds them.
func (m *Medium) Drain(id string) ([]*bus.Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.attached[id] {
		return nil, fmt.Errorf("netbus: unknown endpoint %q", id)
	}
	if owner := m.owners[id]; owner != m.name && !m.fresh[owner] {
		m.drainNode(owner, id)
	}
	msgs := m.stash[id]
	m.stash[id] = nil
	return msgs, nil
}

// drainNode moves every attached mailbox of the owner node into the
// stash, cumulatively acknowledging what earlier drains consumed and
// paging while the node reports more than fits one datagram. The node
// turns fresh only when the last page arrives; a node that stays silent
// stays stale, so the next drain asks again. id, the endpoint whose
// drain triggered the sweep, labels the trace events. Caller holds the
// mutex.
func (m *Medium) drainNode(owner, id string) {
	rn := m.remoteNode(owner)
	for {
		m.reqs = m.reqs[:0]
		for _, ep := range rn.eps {
			m.reqs = append(m.reqs, drainReq{endpoint: ep, ack: m.ackSeq[ep]})
		}
		nonce := m.nextFrameNonce()
		m.wbuf = appendDrainNodeFrame(m.wbuf[:0], nonce, m.name, m.reqs)
		m.netEvent(obs.EvNetTx, id, owner, "drain", nonce)
		rsp, _, err := m.request(m.addrs[owner], m.wbuf, nonce, FtDrainNodeRsp)
		if err != nil {
			return // silence; the retry layer above recovers
		}
		m.netEvent(obs.EvNetRx, id, owner, "drain", nonce)
		if m.rx.decode(rsp.Body) != nil {
			return
		}
		fetched, ok := m.fileReply(owner)
		m.rx.msgs = nil // the stash holds what it needs
		if !ok {
			return
		}
		if rsp.Flags&FlagMore == 0 {
			m.fresh[owner] = true
			return
		}
		if fetched == 0 {
			return // a page that brings nothing new would never end the loop
		}
	}
}

// fileReply moves the node-drain reply in m.rx into the stash, endpoint by
// endpoint, and returns how many messages it fetched. Copies the
// endpoint has already consumed (at or below its ack) are counted as
// duplicates and skipped. Each endpoint's fresh copies stay where the
// reply decoded them, pointers compacted to the front of its run and
// handed over capacity-capped: the transport filters a drained slice in
// place and appends to it later, and the cap makes that append
// reallocate rather than overwrite the next endpoint's run. A run for an
// endpoint this exchange did not ask for stops the filing and reports
// false. Caller holds the mutex.
func (m *Medium) fileReply(owner string) (fetched int, ok bool) {
	for _, run := range m.rx.runs {
		ep := run.endpoint
		if m.owners[ep] != owner || !m.attached[ep] {
			return fetched, false
		}
		ack := m.ackSeq[ep]
		kept := m.rx.msgs[run.lo:run.lo]
		for i := run.lo; i < run.hi; i++ {
			msg := m.rx.msgs[i]
			if seq := m.rx.seqs[i]; seq > ack {
				ack = seq
				kept = append(kept, msg)
				continue
			}
			m.stats.Duplicated++
			m.event(obs.EvDedupHit, msg.From, ep, msg.Kind)
		}
		m.ackSeq[ep] = ack
		if len(kept) == 0 {
			continue
		}
		kept = kept[:len(kept):len(kept)]
		if len(m.stash[ep]) == 0 {
			m.stash[ep] = kept
		} else {
			m.stash[ep] = append(m.stash[ep], kept...)
		}
		fetched += len(kept)
	}
	return fetched, true
}

// ErrNodeTooOld reports a node whose pong carried a wire version below
// Version. Such a node drops every frame type the driver sends, so
// Ping fails at once instead of letting the round time out.
var ErrNodeTooOld = errors.New("netbus: node speaks an older wire version")

// Ping probes the named node and returns nil when it answers within
// the resend budget in the current wire version. The probe is a
// VersionLegacy ping, which a node of every version accepts, and a node
// answers it in its own version; a pong below Version fails with
// ErrNodeTooOld naming the node and its version. Used for startup
// readiness checks.
func (m *Medium) Ping(node string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr, ok := m.addrs[node]
	if !ok {
		if node == m.name {
			return nil
		}
		return fmt.Errorf("netbus: node %q not in peer table", node)
	}
	nonce := m.nextFrameNonce()
	m.wbuf = AppendControlFrame(m.wbuf[:0], FtPing, nonce, m.name)
	m.wbuf[4] = VersionLegacy // the version probe: every node accepts v1
	pong, _, err := m.request(addr, m.wbuf, nonce, FtPong)
	if err != nil {
		return err
	}
	if pong.Version < Version {
		return fmt.Errorf("%w: node %q answered in wire version %d, this driver speaks %d (build nodes and driver from one tree)",
			ErrNodeTooOld, node, pong.Version, Version)
	}
	return nil
}

// CollectTelemetry drains the named node's buffered trace records (see
// Node.EnableTelemetry), cumulatively acknowledging what earlier calls
// consumed, looping while the node reports more than fits one datagram;
// a FlagMore page that advances no record seq is an error, since asking
// again would never end. A node with telemetry disabled yields an empty
// batch. Collection follows the driver-originates-everything traffic
// shape — nodes never dial out, so this is how per-process traces reach
// the stitcher.
func (m *Medium) CollectTelemetry(node string) ([]obs.Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	addr, ok := m.addrs[node]
	if !ok {
		if node == m.name {
			return nil, nil // the driver's own records are already local
		}
		return nil, fmt.Errorf("netbus: node %q not in peer table", node)
	}
	var out []obs.Record
	for {
		nonce := m.nextFrameNonce()
		m.wbuf = AppendTelemetryFrame(m.wbuf[:0], nonce, m.name, m.telAck[node])
		rsp, _, err := m.request(addr, m.wbuf, nonce, FtTelemetryRsp)
		if err != nil {
			return out, fmt.Errorf("netbus: telemetry from %q: %w", node, err)
		}
		lines, derr := DecodeTelemetryRspBody(rsp.Body)
		if derr != nil {
			return out, fmt.Errorf("netbus: telemetry from %q: %w", node, derr)
		}
		ack := m.telAck[node]
		for _, line := range lines {
			var rec obs.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return out, fmt.Errorf("netbus: telemetry record from %q: %w", node, err)
			}
			if uint64(rec.Seq) > m.telAck[node] {
				m.telAck[node] = uint64(rec.Seq)
			}
			out = append(out, rec)
		}
		if rsp.Flags&FlagMore == 0 {
			return out, nil
		}
		if m.telAck[node] == ack {
			return out, fmt.Errorf("netbus: telemetry from %q: a FlagMore page advanced no record", node)
		}
	}
}

// The netbus driver is a bus.Medium.
var _ bus.Medium = (*Medium)(nil)
