package netbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dlsbl/internal/bus"
	"dlsbl/internal/sig"
)

// The on-wire frame format. Every UDP datagram the netbus exchanges is
// exactly one frame:
//
//	offset size field
//	0      4    magic "DLSB"
//	4      1    wire version (0x04; 0x01 through 0x03 accepted on
//	            FtPing and FtPong only, the version probe)
//	5      1    frame type
//	6      1    flags (FlagMore on drain/telemetry responses,
//	            FlagTrace on FtMsgBatch)
//	7      1    reserved, must be 0
//	8      4    length: total frame size in bytes, big-endian uint32
//	12     8    frame nonce, big-endian uint64
//	20     …    sender node name: uvarint length + UTF-8 bytes
//	…      …    trace context, only when FlagTrace is set: round ID
//	            string, epoch string, a reserved zero byte
//	…      …    type-specific body
//
// The frame nonce correlates requests with replies (a reply echoes the
// request's nonce) and deduplicates resends at the receiver; it is NOT
// the protocol's logical message nonce, which travels inside message
// bodies. The length field lets a receiver reject truncated datagrams
// (length > datagram) and trailing garbage (length < datagram) even
// though UDP preserves datagram boundaries — a relay that fragments or
// pads is caught, not silently misparsed. docs/WIRE.md is the normative
// spec; TestWireGoldenBytes pins the golden example embedded there.

// Magic opens every netbus frame.
const Magic = "DLSB"

// Version is the wire version nodes and driver speak. It is the only
// version a receiver accepts, except on FtPing and FtPong: the driver's
// startup probe is a VersionLegacy ping, which a node of any version
// parses, and a node answers it, like everything else, in its own
// version, so Medium.Ping can name a node that speaks an older one.
// There is no negotiation on a datagram medium: nodes and driver are
// built from the same tree and upgraded together (see docs/WIRE.md
// §versioning).
const Version = 4

// VersionLegacy is the version of the driver's startup probe (FtPing),
// the oldest version a receiver parses a ping or pong in.
const VersionLegacy = 1

// MaxFrame bounds a frame (and thus a datagram) in bytes. It sits under
// the 65,507-byte UDP payload ceiling with room for kernel headroom;
// oversized frames are rejected before parsing.
const MaxFrame = 60000

// headerFixed is the size of the fixed-width header prefix (everything
// before the sender name).
const headerFixed = 20

// Frame types. Types 1, 3, 4 and 9 carried the retired v1–v3 message
// and per-endpoint drain frames (FtMsg, FtDrain, FtDrainRsp and
// FtMsgMulti); they are unknown in version 4 and are never reassigned.
const (
	// FtAck acknowledges an FtMsgBatch; the nonce echoes the acked
	// frame's. Empty body.
	FtAck = byte(2)
	// FtPing probes a node for liveness and wire version. Empty body.
	FtPing = byte(5)
	// FtPong answers a ping; the nonce echoes the ping's. Empty body.
	FtPong = byte(6)
	// FtTelemetry asks the node for its buffered trace records. Body: a
	// cumulative-ack record sequence number (uvarint): the node prunes
	// everything at or below it and returns what remains.
	FtTelemetry = byte(7)
	// FtTelemetryRsp returns buffered trace records as NDJSON lines.
	// Body: count uvarint, then count × bytes (one obs.Record JSON
	// document each), ascending by record seq. FlagMore is set when the
	// batch was cut to fit MaxFrame.
	FtTelemetryRsp = byte(8)
	// FtDrainNode drains several mailboxes of one node in one exchange.
	// Body: count uvarint, then count × (endpoint string, cumulative-ack
	// seq uvarint): the node deletes everything at or below each ack and
	// returns what remains.
	FtDrainNode = byte(10)
	// FtDrainNodeRsp answers FtDrainNode. Body: count uvarint, then
	// count × (endpoint string, seq uvarint, message encoding), in
	// request order with seq ascending per endpoint. FlagMore is set when
	// the batch was cut to fit MaxFrame.
	FtDrainNodeRsp = byte(11)
	// FtMsgBatch carries several messages into mailboxes of the
	// receiving node. Body: count uvarint (≥ 1), then count × (destination
	// count uvarint (≥ 1), that many endpoint strings, message encoding).
	// The node files the entries in order, every copy or none, and acks
	// the frame once.
	FtMsgBatch = byte(12)
)

// FlagMore marks a node-drain or telemetry response that was truncated
// to fit MaxFrame: more entries remain queued and the drainer should ask
// again.
const FlagMore = byte(1 << 0)

// FlagTrace marks an FtMsgBatch frame carrying the trace-context
// extension: round ID (string), bid epoch (string) and a reserved zero
// byte follow the sender node name, before the body. Nodes echo the
// context into their telemetry events, which is what makes every hop of
// a datagram attributable to a protocol round.
const FlagTrace = byte(1 << 1)

// Frame decode errors. ErrWire is the root every specific error wraps,
// so callers can reject any malformed datagram with one errors.Is.
var (
	ErrWire       = errors.New("netbus: malformed frame")
	ErrBadMagic   = fmt.Errorf("%w: bad magic", ErrWire)
	ErrBadVersion = fmt.Errorf("%w: unsupported wire version", ErrWire)
	ErrTruncated  = fmt.Errorf("%w: truncated frame", ErrWire)
	ErrOversize   = fmt.Errorf("%w: frame exceeds MaxFrame", ErrWire)
)

// Frame is one parsed datagram: the fixed header, the optional trace
// context, plus the raw, type-specific body. Body aliases the datagram
// buffer — callers that retain a Frame past the next socket read must
// copy it.
type Frame struct {
	Version byte
	Type    byte
	Flags   byte
	Nonce   uint64
	Node    string // sending node's name from the peer table
	// Round and Epoch are the trace context (FlagTrace on a message
	// frame): the protocol round the datagram belongs to and the epoch
	// its bid set was signed in. Empty on frames without the extension.
	Round string
	Epoch string
	Body  []byte
}

// AppendFrame appends a complete frame (header + body) to dst and
// returns the extended slice. The length field is computed from the
// final size.
func AppendFrame(dst []byte, typ, flags byte, nonce uint64, node string, body []byte) []byte {
	start := len(dst)
	dst = appendHeader(dst, typ, flags, nonce, node, "", "")
	dst = append(dst, body...)
	return finishFrame(dst, start)
}

// appendHeader appends a frame header whose length field is still zero:
// callers append the body straight after it, then finishFrame
// backpatches the length, so no body is built in a separate slice first.
func appendHeader(dst []byte, typ, flags byte, nonce uint64, node, round, epoch string) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version, typ, flags, 0)
	dst = append(dst, 0, 0, 0, 0) // length, backpatched by finishFrame
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], nonce)
	dst = append(dst, n[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(node)))
	dst = append(dst, node...)
	if flags&FlagTrace != 0 {
		dst = sig.AppendString(dst, round)
		dst = sig.AppendString(dst, epoch)
		dst = append(dst, 0) // reserved
	}
	return dst
}

// finishFrame backpatches the length field of the frame that starts at
// dst[start].
func finishFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+8:start+12], uint32(len(dst)-start))
	return dst
}

// knownType reports whether typ is a frame type of the current version.
func knownType(typ byte) bool {
	switch typ {
	case FtAck, FtPing, FtPong, FtTelemetry, FtTelemetryRsp, FtDrainNode, FtDrainNodeRsp, FtMsgBatch:
		return true
	}
	return false
}

// checkFlags validates the flag byte against the frame type: FlagMore
// is allowed on FtDrainNodeRsp and FtTelemetryRsp, FlagTrace on
// FtMsgBatch, and nothing else anywhere.
func checkFlags(typ, flags byte) error {
	allowed := byte(0)
	switch typ {
	case FtDrainNodeRsp, FtTelemetryRsp:
		allowed = FlagMore
	case FtMsgBatch:
		allowed = FlagTrace
	}
	if flags&^allowed != 0 {
		return fmt.Errorf("%w: unknown flag bits %#x on frame type %d", ErrWire, flags, typ)
	}
	return nil
}

// DecodeFrame parses one datagram. It rejects wrong magic, frames in
// any version but Version (pings and pongs of every version from
// VersionLegacy up excepted), unknown frame types, illegal flags,
// length/datagram mismatches (truncation either way) and frames above
// MaxFrame. The returned Body aliases data.
func DecodeFrame(data []byte) (Frame, error) {
	if len(data) < headerFixed {
		return Frame{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerFixed)
	}
	if string(data[:4]) != Magic {
		return Frame{}, ErrBadMagic
	}
	version, typ := data[4], data[5]
	probe := typ == FtPing || typ == FtPong
	if version != Version && (!probe || version < VersionLegacy || version > Version) {
		return Frame{}, fmt.Errorf("%w: got %d on frame type %d, accept %d (pings and pongs %d through %d)",
			ErrBadVersion, version, typ, Version, VersionLegacy, Version)
	}
	if !knownType(typ) {
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrWire, typ)
	}
	flags := data[6]
	if err := checkFlags(typ, flags); err != nil {
		return Frame{}, err
	}
	if data[7] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved byte", ErrWire)
	}
	length := binary.BigEndian.Uint32(data[8:12])
	if length > MaxFrame {
		return Frame{}, fmt.Errorf("%w: declared length %d", ErrOversize, length)
	}
	if uint64(length) > uint64(len(data)) {
		return Frame{}, fmt.Errorf("%w: declared %d bytes, datagram has %d", ErrTruncated, length, len(data))
	}
	if uint64(length) < uint64(len(data)) {
		return Frame{}, fmt.Errorf("%w: %d trailing bytes past declared length", ErrWire, uint64(len(data))-uint64(length))
	}
	r := wireReader{buf: data, off: headerFixed}
	f := Frame{
		Version: version,
		Type:    typ,
		Flags:   flags,
		Nonce:   binary.BigEndian.Uint64(data[12:20]),
	}
	f.Node = r.str()
	if flags&FlagTrace != 0 {
		f.Round = r.str()
		f.Epoch = r.str()
		if b := r.take(1); r.err == nil && b[0] != 0 {
			r.fail("nonzero reserved trace byte %#x", b[0])
		}
	}
	if r.err != nil {
		return Frame{}, r.err
	}
	f.Body = data[r.off:]
	return f, nil
}

// wireReader is a bounds-checked cursor over frame bodies. Unlike
// sig.BinReader it carries no payload magic — frame bodies are framed by
// the header, not self-describing.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrWire}, args...)...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		// Exactly one encoding per value: resend dedup and the fuzzed
		// decode→encode fixpoint both rely on byte-stable frames.
		r.fail("non-minimal varint")
		return 0
	}
	r.off += n
	return x
}

func (r *wireReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.fail("length %d exceeds remaining %d bytes", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *wireReader) str() string   { return string(r.take(r.uvarint())) }
func (r *wireReader) bytes() []byte { return append([]byte(nil), r.take(r.uvarint())...) }
func (r *wireReader) rest() int     { return len(r.buf) - r.off }
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing body bytes", ErrWire, len(r.buf)-r.off)
	}
	return nil
}

// appendMessage appends the body encoding of one control-plane message:
// from, to, kind (uvarint-prefixed strings), abstract size (uvarint),
// the logical protocol nonce (uvarint), then the sealed envelope in the
// internal/sig nested-envelope encoding (sender, kind, payload,
// signature, each uvarint-prefixed).
func appendMessage(dst []byte, m bus.Message) []byte {
	dst = sig.AppendString(dst, m.From)
	dst = sig.AppendString(dst, m.To)
	dst = sig.AppendString(dst, m.Kind)
	dst = sig.AppendUvarint(dst, uint64(m.Size))
	dst = sig.AppendUvarint(dst, m.Nonce)
	return m.Env.AppendBinary(dst)
}

// uvarintLen is the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// fieldLen is the encoded size of a length-prefixed field of n bytes.
func fieldLen(n int) int { return uvarintLen(uint64(n)) + n }

// messageLen is len(appendMessage(nil, m)), computed without encoding:
// nodes size mailboxes and cut drain batches with it.
func messageLen(m bus.Message) int {
	return fieldLen(len(m.From)) + fieldLen(len(m.To)) + fieldLen(len(m.Kind)) +
		uvarintLen(uint64(m.Size)) + uvarintLen(m.Nonce) +
		fieldLen(len(m.Env.Sender)) + fieldLen(len(m.Env.Kind)) +
		fieldLen(len(m.Env.Payload)) + fieldLen(len(m.Env.Signature))
}

// readMessage parses one appendMessage encoding from the cursor.
func (r *wireReader) readMessage() bus.Message {
	var m bus.Message
	m.From = r.str()
	m.To = r.str()
	m.Kind = r.str()
	size := r.uvarint()
	if size > MaxFrame {
		r.fail("absurd message size %d", size)
		return m
	}
	m.Size = int(size)
	m.Nonce = r.uvarint()
	m.Env.Sender = r.str()
	m.Env.Kind = r.str()
	m.Env.Payload = r.bytes()
	m.Env.Signature = r.bytes()
	return m
}

// skipMessage steps over one appendMessage encoding, checking it as
// readMessage does, and returns its logical nonce.
func (r *wireReader) skipMessage() uint64 {
	for range 3 { // from, to, kind
		r.take(r.uvarint())
	}
	if size := r.uvarint(); size > MaxFrame {
		r.fail("absurd message size %d", size)
		return 0
	}
	nonce := r.uvarint()
	for range 4 { // the envelope's sender, kind, payload and signature
		r.take(r.uvarint())
	}
	return nonce
}

// count reads an entry count and rejects one that cannot fit the bytes
// left, given that every entry takes at least minEntry bytes.
func (r *wireReader) count(what string, minEntry int) uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(r.rest()/minEntry) {
		r.fail("%s count %d exceeds the %d bytes left", what, n, r.rest())
		return 0
	}
	return n
}

// AppendMsgFrame frames one mailbox delivery the way the driver frames
// a unicast: a one-entry, untraced FtMsgBatch. dest names the endpoint
// whose mailbox receives the copy — distinct from the message's own To,
// which stays "*" for broadcast emissions so drained messages are
// byte-comparable with the simulated bus's.
func AppendMsgFrame(dst []byte, nonce uint64, node, dest string, m bus.Message) []byte {
	return appendMsgBatchFrame(dst, 0, nonce, node, []msgEntry{{dests: []string{dest}, msg: m}}, "", "")
}

// dests reads a destination list, a count (at least 1) and then that
// many endpoint strings, onto the end of buf, spelling each with name,
// and returns the extended buffer.
func (r *wireReader) dests(buf []string, name func([]byte) string) []string {
	n := r.count("destination", 1)
	if r.err == nil && n == 0 {
		r.fail("message names no destination")
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		if b := r.take(r.uvarint()); r.err == nil {
			buf = append(buf, name(b))
		}
	}
	return buf
}

// msgEntry is one message of an FtMsgBatch and the mailboxes of the
// receiving node it is for.
type msgEntry struct {
	dests []string
	msg   bus.Message
}

// entryLen is the encoded size of one FtMsgBatch entry.
func entryLen(e msgEntry) int {
	n := uvarintLen(uint64(len(e.dests))) + messageLen(e.msg)
	for _, d := range e.dests {
		n += fieldLen(len(d))
	}
	return n
}

// headerLen is len(appendHeader(...)) for the given fields, computed
// without encoding.
func headerLen(flags byte, node, round, epoch string) int {
	n := headerFixed + fieldLen(len(node))
	if flags&FlagTrace != 0 {
		n += fieldLen(len(round)) + fieldLen(len(epoch)) + 1
	}
	return n
}

// appendMsgBatchFrame frames several messages for mailboxes of one node
// (FtMsgBatch). With FlagTrace in flags the trace context rides the
// header. Each message's own To stays the protocol-level address ("*"
// for a broadcast); the physical destinations travel in its entry.
func appendMsgBatchFrame(dst []byte, flags byte, nonce uint64, node string, entries []msgEntry, round, epoch string) []byte {
	start := len(dst)
	dst = appendHeader(dst, FtMsgBatch, flags, nonce, node, round, epoch)
	dst = sig.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = sig.AppendUvarint(dst, uint64(len(e.dests)))
		for _, d := range e.dests {
			dst = sig.AppendString(dst, d)
		}
		dst = appendMessage(dst, e.msg)
	}
	return finishFrame(dst, start)
}

// decodeEntries parses an FtMsgBatch body, a count (at least 1) of
// entries, each a destination list and then a message. It appends the
// entries to entries and their destinations, each spelt by name, to
// dests, and returns both extended slices; each entry's list is the
// capacity-capped run of dests it appended. Every entry names at least
// one destination; that an entry's destinations are distinct and
// hosted is the receiving node's all-or-nothing rule, not a framing
// rule.
func decodeEntries(body []byte, entries []msgEntry, dests []string, name func([]byte) string) ([]msgEntry, []string, error) {
	r := wireReader{buf: body}
	// An entry is at least a destination count, one 1-byte destination
	// and a message of nine 1-byte fields.
	n := r.count("batch entry", 11)
	if r.err == nil && n == 0 {
		r.fail("batch frame carries no message")
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		lo := len(dests)
		dests = r.dests(dests, name)
		hi := len(dests)
		entries = append(entries, msgEntry{dests: dests[lo:hi:hi], msg: r.readMessage()})
	}
	return entries, dests, r.done()
}

// SeqMsg is one mailbox entry in a drain response: the per-mailbox
// sequence number and the stored message.
type SeqMsg struct {
	Seq uint64
	Msg bus.Message
}

// moreFlag is the flag byte of a node-drain or telemetry response:
// FlagMore when more marks a batch cut to fit MaxFrame.
func moreFlag(more bool) byte {
	if more {
		return FlagMore
	}
	return 0
}

// drainReq is one mailbox of a node-drain request: the endpoint and the
// highest sequence number the driver has consumed from it.
type drainReq struct {
	endpoint string
	ack      uint64
}

// appendDrainNodeFrame frames a node-drain request (FtDrainNode).
func appendDrainNodeFrame(dst []byte, nonce uint64, node string, reqs []drainReq) []byte {
	start := len(dst)
	dst = appendHeader(dst, FtDrainNode, 0, nonce, node, "", "")
	dst = sig.AppendUvarint(dst, uint64(len(reqs)))
	for _, q := range reqs {
		dst = sig.AppendString(dst, q.endpoint)
		dst = sig.AppendUvarint(dst, q.ack)
	}
	return finishFrame(dst, start)
}

// decodeDrainNodeBody parses an FtDrainNode body. It does not check
// that the endpoints are hosted or distinct; the node does.
func decodeDrainNodeBody(body []byte) ([]drainReq, error) {
	r := wireReader{buf: body}
	n := r.count("node drain", 2) // endpoint length plus ack, 1 byte each at least
	var reqs []drainReq
	for i := uint64(0); i < n && r.err == nil; i++ {
		ep := r.str()
		reqs = append(reqs, drainReq{endpoint: ep, ack: r.uvarint()})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// drainPart is one endpoint's run of entries in a node-drain response.
type drainPart struct {
	endpoint string
	batch    []SeqMsg
}

// appendDrainNodeRspFrame frames a node-drain response (FtDrainNodeRsp)
// from per-endpoint runs of entries; more marks a batch truncated to fit
// MaxFrame. Nodes pass runs that alias their mailbox queues, so every
// entry is encoded once, straight into dst.
func appendDrainNodeRspFrame(dst []byte, nonce uint64, node string, parts []drainPart, more bool) []byte {
	start := len(dst)
	dst = appendHeader(dst, FtDrainNodeRsp, moreFlag(more), nonce, node, "", "")
	n := 0
	for _, p := range parts {
		n += len(p.batch)
	}
	dst = sig.AppendUvarint(dst, uint64(n))
	for _, p := range parts {
		for _, sm := range p.batch {
			dst = sig.AppendString(dst, p.endpoint)
			dst = sig.AppendUvarint(dst, sm.Seq)
			dst = appendMessage(dst, sm.Msg)
		}
	}
	return finishFrame(dst, start)
}

// drainRun is one endpoint's run of consecutive entries in a node-drain
// response: entries lo up to hi of its drainReply.
type drainRun struct {
	endpoint string
	lo, hi   int
}

// drainReply is a decoded node-drain response (FtDrainNodeRsp): entry i
// is *msgs[i] under mailbox sequence number seqs[i], and runs groups
// consecutive entries for the same endpoint, so that re-encoding the runs
// reproduces the body byte for byte. A reply holds a copy of a broadcast
// for every mailbox of the node but the sender's, Θ(m²) copies of Θ(m)
// messages. Each distinct message encoding is decoded once, into one
// record that every entry byte-identical to it points to, as every
// recipient of an emission holds its record on the simulated bus; an
// entry that differs in any byte gets a record of its own.
type drainReply struct {
	runs []drainRun
	seqs []uint64
	msgs []*bus.Message

	// firsts lists the distinct message encodings in order of first
	// appearance, of[i] is entry i's index in firsts, and byNonce maps a
	// logical nonce to the first of the distinct encodings carrying it,
	// whose next fields chain the rest.
	firsts  []firstCopy
	of      []int
	byNonce map[uint64]int
}

// firstCopy is one distinct message encoding of a node-drain reply: its
// bytes and the index in drainReply.firsts of the next distinct encoding
// under the same logical nonce, or -1.
type firstCopy struct {
	enc  []byte
	next int
}

// decode parses an FtDrainNodeRsp body into d. It reuses d's runs, seqs,
// firsts, of and byNonce, but the records and msgs are fresh arrays: the
// driver hands sub-slices of msgs to its stash, and the records to
// whoever drains them.
func (d *drainReply) decode(body []byte) error {
	r := wireReader{buf: body}
	n := int(r.count("node drain batch", 8)) // endpoint, seq and a message of ≥ 6 fields
	d.runs, d.firsts = d.runs[:0], d.firsts[:0]
	d.seqs = slices.Grow(d.seqs[:0], n)
	d.of = slices.Grow(d.of[:0], n)
	if d.byNonce == nil {
		d.byNonce = make(map[uint64]int)
	}
	clear(d.byNonce)
	d.msgs = nil
	for i := 0; i < n && r.err == nil; i++ {
		ep := r.take(r.uvarint())
		seq := r.uvarint()
		start := r.off
		nonce := r.skipMessage()
		if r.err != nil {
			break
		}
		if k := len(d.runs); k == 0 || d.runs[k-1].endpoint != string(ep) {
			d.runs = append(d.runs, drainRun{endpoint: string(ep), lo: i})
		}
		d.runs[len(d.runs)-1].hi = i + 1
		d.seqs = append(d.seqs, seq)
		d.of = append(d.of, d.distinct(nonce, body[start:r.off]))
	}
	if err := r.done(); err != nil {
		return err
	}
	recs := make([]bus.Message, len(d.firsts))
	for k, f := range d.firsts {
		fr := wireReader{buf: f.enc}
		recs[k] = fr.readMessage() // skipMessage has checked it
	}
	d.msgs = make([]*bus.Message, n)
	for i, k := range d.of {
		d.msgs[i] = &recs[k]
	}
	return nil
}

// distinct returns the index in d.firsts of the message encoding enc,
// which carries the given nonce: an earlier entry's when their encodings
// are byte-identical, otherwise a new one. Only the encodings under the
// same nonce are compared.
func (d *drainReply) distinct(nonce uint64, enc []byte) int {
	k, ok := d.byNonce[nonce]
	for ok {
		f := &d.firsts[k]
		if bytes.Equal(f.enc, enc) {
			return k
		}
		if f.next < 0 {
			f.next = len(d.firsts)
			break
		}
		k = f.next
	}
	if !ok {
		d.byNonce[nonce] = len(d.firsts)
	}
	d.firsts = append(d.firsts, firstCopy{enc: enc, next: -1})
	return len(d.firsts) - 1
}

// AppendControlFrame frames a bodyless control frame (FtAck, FtPing,
// FtPong) under the given nonce.
func AppendControlFrame(dst []byte, typ byte, nonce uint64, node string) []byte {
	return AppendFrame(dst, typ, 0, nonce, node, nil)
}

// AppendTelemetryFrame frames a telemetry drain request (FtTelemetry),
// cumulatively acknowledging every buffered record sequence number at
// or below ackSeq.
func AppendTelemetryFrame(dst []byte, nonce uint64, node string, ackSeq uint64) []byte {
	body := sig.AppendUvarint(nil, ackSeq)
	return AppendFrame(dst, FtTelemetry, 0, nonce, node, body)
}

// DecodeTelemetryBody parses an FtTelemetry body.
func DecodeTelemetryBody(body []byte) (ackSeq uint64, err error) {
	r := wireReader{buf: body}
	ackSeq = r.uvarint()
	return ackSeq, r.done()
}

// AppendTelemetryRspFrame frames a telemetry response (FtTelemetryRsp)
// carrying buffered trace records as NDJSON line bytes; more marks a
// batch truncated to fit MaxFrame.
func AppendTelemetryRspFrame(dst []byte, nonce uint64, node string, lines [][]byte, more bool) []byte {
	body := sig.AppendUvarint(nil, uint64(len(lines)))
	for _, l := range lines {
		body = sig.AppendUvarint(body, uint64(len(l)))
		body = append(body, l...)
	}
	return AppendFrame(dst, FtTelemetryRsp, moreFlag(more), nonce, node, body)
}

// DecodeTelemetryRspBody parses an FtTelemetryRsp body into the record
// lines, each one obs.Record JSON document.
func DecodeTelemetryRspBody(body []byte) (lines [][]byte, err error) {
	r := wireReader{buf: body}
	n := r.count("telemetry batch", 1)
	for i := uint64(0); i < n && r.err == nil; i++ {
		lines = append(lines, r.bytes())
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return lines, nil
}
