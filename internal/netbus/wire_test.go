package netbus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"dlsbl/internal/bus"
	"dlsbl/internal/sig"
)

// sampleMsg builds one realistic delivery for framing tests.
func sampleMsg(t *testing.T) bus.Message {
	t.Helper()
	k, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(42))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sig.Seal(k, "dls/bid", map[string]any{"proc": "P1", "bid": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	return bus.Message{From: "P1", To: "*", Kind: "dls/bid", Size: 1, Nonce: 7, Env: env}
}

// oneEntry decodes the body of a one-entry FtMsgBatch naming one
// destination, as AppendMsgFrame frames a delivery.
func oneEntry(t *testing.T, body []byte) (string, bus.Message) {
	t.Helper()
	entries, err := decodeMsgBatchBody(body)
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	if len(entries) != 1 || len(entries[0].dests) != 1 {
		t.Fatalf("body decodes to %+v, want one entry naming one destination", entries)
	}
	return entries[0].dests[0], entries[0].msg
}

func TestFrameRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	frame := AppendMsgFrame(nil, 0xABCD, "w1", "P2", msg)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Version != Version || f.Type != FtMsgBatch || f.Flags != 0 || f.Nonce != 0xABCD || f.Node != "w1" {
		t.Errorf("header round-trip: %+v", f)
	}
	dest, got := oneEntry(t, f.Body)
	if dest != "P2" {
		t.Errorf("dest = %q, want P2", dest)
	}
	if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind ||
		got.Size != msg.Size || got.Nonce != msg.Nonce || !got.Env.Equal(msg.Env) {
		t.Errorf("message round-trip:\n got  %+v\n want %+v", got, msg)
	}
}

// TestDrainRspRoundTrip pins the node-drain response: FlagMore and each
// endpoint's run of (seq, message) entries survive framing.
func TestDrainRspRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	parts := []drainPart{
		{"P1", []SeqMsg{{Seq: 3, Msg: msg}, {Seq: 4, Msg: msg}}},
		{"P2", []SeqMsg{{Seq: 1, Msg: msg}}},
	}
	f, err := DecodeFrame(appendDrainNodeRspFrame(nil, 9, "w1", parts, true))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FtDrainNodeRsp || f.Flags&FlagMore == 0 {
		t.Errorf("drain rsp header: %+v", f)
	}
	got, err := decodeDrainNodeRspBody(f.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, parts) {
		t.Errorf("drain rsp round-trip:\n got  %+v\n want %+v", got, parts)
	}
}

// TestTraceFrameRoundTrip pins the trace-context extension: round and
// epoch survive framing, the reserved byte after them is 0, and the
// body is byte-identical to the untraced frame's.
func TestTraceFrameRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	entries := []msgEntry{{dests: []string{"P2"}, msg: msg}}
	frame := appendMsgBatchFrame(nil, FlagTrace, 0xBEEF, "w1", entries, "sdeadbeef:r3", "sdeadbeef:r3")
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Version != Version || f.Flags&FlagTrace == 0 {
		t.Errorf("trace frame header: %+v", f)
	}
	if f.Round != "sdeadbeef:r3" || f.Epoch != "sdeadbeef:r3" {
		t.Errorf("trace context mangled: round=%q epoch=%q", f.Round, f.Epoch)
	}
	if reserved := frame[len(frame)-len(f.Body)-1]; reserved != 0 {
		t.Errorf("reserved trace byte %#x, want 0", reserved)
	}
	plain, err := DecodeFrame(appendMsgBatchFrame(nil, 0, 0xBEEF, "w1", entries, "", ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Body, plain.Body) {
		t.Error("the trace context changed the body")
	}
	if dest, got := oneEntry(t, f.Body); dest != "P2" || got.Nonce != msg.Nonce || !got.Env.Equal(msg.Env) {
		t.Errorf("traced message round-trip: dest=%q got=%+v", dest, got)
	}
}

// TestLegacyFrameAccepted pins the version probe: a ping or pong of
// every version from VersionLegacy up still parses, with its version
// surfaced, so a driver can probe a node of any version and read its
// answer.
func TestLegacyFrameAccepted(t *testing.T) {
	for v := byte(VersionLegacy); v <= Version; v++ {
		for _, typ := range []byte{FtPing, FtPong} {
			frame := AppendControlFrame(nil, typ, 0xABCD, "w1")
			frame[4] = v
			f, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("v%d frame of type %d rejected: %v", v, typ, err)
			}
			if f.Version != v || f.Type != typ || f.Nonce != 0xABCD || f.Node != "w1" {
				t.Errorf("v%d frame of type %d: header %+v", v, typ, f)
			}
		}
	}
}

// legacyFrame frames body as a frame of type typ in wire version v, the
// way a v1–v3 peer did: every version lays the header out alike, and
// with FlagTrace the empty round and epoch and the zero byte after them
// read in v2 and v3 as a trace context of origin 0.
func legacyFrame(v, typ, flags byte, body []byte) []byte {
	frame := AppendFrame(nil, typ, flags, 1, "drv", body)
	frame[4] = v
	return frame
}

// retiredBodies holds, for every frame type of wire versions 1 to 3 but
// the ping and pong, a body carrying m for P1 that parsed under those
// versions. Types 1, 3, 4 and 9 are the retired FtMsg, FtDrain,
// FtDrainRsp and FtMsgMulti.
func retiredBodies(m bus.Message) map[byte][]byte {
	msg := appendMessage(nil, m)
	p1 := sig.AppendString(nil, "P1")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[byte][]byte{
		1:              cat(p1, msg),                       // destination, message
		FtAck:          nil,                                //
		3:              cat(p1, []byte{0}),                 // endpoint, ack
		4:              cat(p1, []byte{1, 1}, msg),         // endpoint, count, seq, message
		FtTelemetry:    {0},                                // ack
		FtTelemetryRsp: {0},                                // count
		9:              cat([]byte{1}, p1, msg),            // count, destination, message
		FtDrainNode:    cat([]byte{1}, p1, []byte{0}),      // count, endpoint, ack
		FtDrainNodeRsp: cat([]byte{1}, p1, []byte{1}, msg), // count, endpoint, seq, message
	}
}

// TestRetiredFramesRejected pins the one-version rule: a v1–v3 frame of
// every type its version defined, pings and pongs excepted, fails with
// ErrBadVersion although its body parsed under that version, message
// frames traced or not; and types 1, 3, 4 and 9 are unknown in the
// current version.
func TestRetiredFramesRejected(t *testing.T) {
	bodies := retiredBodies(sampleMsg(t))
	lastType := []byte{1: FtPong, 2: FtTelemetryRsp, 3: FtDrainNodeRsp}
	for v := byte(VersionLegacy); v < Version; v++ {
		for typ := byte(1); typ <= lastType[v]; typ++ {
			if typ == FtPing || typ == FtPong {
				continue
			}
			flags := []byte{0}
			if v > VersionLegacy && (typ == 1 || typ == 9) {
				flags = append(flags, FlagTrace)
			}
			for _, fl := range flags {
				if _, err := DecodeFrame(legacyFrame(v, typ, fl, bodies[typ])); !errors.Is(err, ErrBadVersion) {
					t.Errorf("v%d frame of type %d, flags %#x: err %v, want ErrBadVersion", v, typ, fl, err)
				}
			}
		}
	}
	for _, typ := range []byte{1, 3, 4, 9} {
		_, err := DecodeFrame(legacyFrame(Version, typ, 0, bodies[typ]))
		if !errors.Is(err, ErrWire) || errors.Is(err, ErrBadVersion) {
			t.Errorf("v%d frame of retired type %d: err %v, want an unknown type", Version, typ, err)
		}
	}
}

// TestTelemetryRoundTrip pins the telemetry drain pair.
func TestTelemetryRoundTrip(t *testing.T) {
	req, err := DecodeFrame(AppendTelemetryFrame(nil, 11, "drv", 40))
	if err != nil {
		t.Fatal(err)
	}
	if req.Type != FtTelemetry {
		t.Fatalf("request type %d", req.Type)
	}
	ack, err := DecodeTelemetryBody(req.Body)
	if err != nil || ack != 40 {
		t.Fatalf("ackSeq = %d, err %v, want 40", ack, err)
	}
	lines := [][]byte{
		[]byte(`{"type":"event","name":"net_rx","seq":41}`),
		[]byte(`{"type":"event","name":"net_tx","seq":42}`),
	}
	rsp, err := DecodeFrame(AppendTelemetryRspFrame(nil, 11, "w1", lines, true))
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Type != FtTelemetryRsp || rsp.Flags&FlagMore == 0 {
		t.Fatalf("response header: %+v", rsp)
	}
	got, err := DecodeTelemetryRspBody(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0]) != string(lines[0]) || string(got[1]) != string(lines[1]) {
		t.Errorf("telemetry lines round-trip: %q", got)
	}
}

// TestMalformedFrames pins every rejection class the receiver owes the
// wire: truncation (header and declared-length), oversize, bad magic,
// unknown version, unknown type, trailing garbage — plus the version
// rule (a current frame type stamped with an older version fails with
// ErrBadVersion; TestRetiredFramesRejected covers every retired frame),
// the trace context's reserved zero byte, and the flags each type
// allows (the trace flag belongs to the batch frame, FlagMore to
// responses).
func TestMalformedFrames(t *testing.T) {
	valid := AppendMsgFrame(nil, 1, "w1", "P1", sampleMsg(t))
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), valid...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:headerFixed-1], ErrTruncated},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"future version", mutate(func(b []byte) []byte { b[4] = Version + 1; return b }), ErrBadVersion},
		{"zero version", mutate(func(b []byte) []byte { b[4] = 0; return b }), ErrBadVersion},
		{"unknown type", mutate(func(b []byte) []byte { b[5] = 0x7F; return b }), ErrWire},
		{"reserved set", mutate(func(b []byte) []byte { b[7] = 1; return b }), ErrWire},
		{"truncated body", valid[:len(valid)-3], ErrTruncated},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrWire},
		{"oversize", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[8:12], MaxFrame+1)
			return b
		}), ErrOversize},
		{"v1 telemetry type", mutate(func(b []byte) []byte {
			b[4], b[5] = VersionLegacy, FtTelemetry
			return b
		}), ErrBadVersion},
		{"v1 trace flag", mutate(func(b []byte) []byte {
			b[4], b[6] = VersionLegacy, FlagTrace
			return b
		}), ErrBadVersion},
		{"trace flag on ping", func() []byte {
			b := AppendControlFrame(nil, FtPing, 1, "drv")
			b[6] = FlagTrace
			return b
		}(), ErrWire},
		{"v2 node drain type", mutate(func(b []byte) []byte {
			b[4], b[5] = 2, FtDrainNode
			return b
		}), ErrBadVersion},
		{"v3 batch type", mutate(func(b []byte) []byte {
			b[4] = 3
			return b
		}), ErrBadVersion},
		{"origin on batch", func() []byte {
			// The reserved byte where a v2 or v3 trace context carried
			// its origin.
			b := appendHeader(nil, FtMsgBatch, FlagTrace, 1, "drv", "s1:r1", "s1:r1")
			b[len(b)-1] = 7
			b = append(b, 1, 1, 2, 'P', '1')
			b = appendMessage(b, sampleMsg(t))
			return finishFrame(b, 0)
		}(), ErrWire},
		{"more flag on batch", mutate(func(b []byte) []byte {
			b[6] = FlagMore
			return b
		}), ErrWire},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeFrame(tc.data)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
			if !errors.Is(err, ErrWire) {
				t.Errorf("error %v does not wrap ErrWire", err)
			}
		})
	}
}

// TestMalformedBodies pins the body decoders' rejection paths: every
// cursor failure (truncation, non-minimal varints, absurd counts)
// surfaces as an ErrWire error, never a panic or a bogus value.
func TestMalformedBodies(t *testing.T) {
	msg := sampleMsg(t)
	frame := AppendMsgFrame(nil, 1, "w1", "P1", msg)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("msg truncated", func(t *testing.T) {
		for cut := 0; cut < len(f.Body); cut += 7 {
			if _, err := decodeMsgBatchBody(f.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
	t.Run("msg non-minimal varint", func(t *testing.T) {
		// 0x81 0x00 is a two-byte encoding of the entry count 1 — legal
		// LEB128, banned here because it breaks the canonical-encoding
		// fixpoint.
		body := append([]byte{0x81, 0x00}, f.Body[1:]...)
		if _, err := decodeMsgBatchBody(body); !errors.Is(err, ErrWire) {
			t.Errorf("non-minimal varint accepted: %v", err)
		}
	})
	t.Run("msg trailing garbage", func(t *testing.T) {
		body := append(append([]byte(nil), f.Body...), 0xAA)
		if _, err := decodeMsgBatchBody(body); !errors.Is(err, ErrWire) {
			t.Errorf("trailing garbage accepted: %v", err)
		}
	})
	t.Run("drain truncated", func(t *testing.T) {
		df, err := DecodeFrame(appendDrainNodeFrame(nil, 2, "drv", []drainReq{{"P1", 5}, {"P2", 300}}))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(df.Body); cut++ {
			if _, err := decodeDrainNodeBody(df.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
	t.Run("drain rsp truncated", func(t *testing.T) {
		// The driver's sharing decoder; the oracle's rejections are
		// "node drain rsp truncated".
		rf, err := DecodeFrame(appendDrainNodeRspFrame(nil, 3, "w1",
			[]drainPart{{"P1", []SeqMsg{{Seq: 1, Msg: msg}, {Seq: 2, Msg: msg}}}}, false))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(rf.Body); cut += 11 {
			if err := new(drainReply).decode(rf.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
	t.Run("multi without destinations", func(t *testing.T) {
		// A two-entry batch whose second entry names no destination:
		// the rule holds for every entry, not only the first.
		enc := appendMessage(nil, msg)
		first := append([]byte{1, 2, 'P', '1'}, enc...)
		if _, err := decodeMsgBatchBody(bytes.Join([][]byte{{2}, first, first}, nil)); err != nil {
			t.Fatalf("two entries naming P1: %v", err)
		}
		if _, err := decodeMsgBatchBody(bytes.Join([][]byte{{2}, first, {0}, enc}, nil)); !errors.Is(err, ErrWire) {
			t.Errorf("an entry naming no destination decoded: %v", err)
		}
	})
	t.Run("batch shapes", func(t *testing.T) {
		one := appendMsgBatchFrame(nil, 0, 6, "drv", []msgEntry{{[]string{"P1"}, msg}}, "", "")
		bf, err := DecodeFrame(one)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeMsgBatchBody(bf.Body); err != nil {
			t.Fatalf("a valid batch body: %v", err)
		}
		for cut := 0; cut < len(bf.Body); cut += 11 {
			if _, err := decodeMsgBatchBody(bf.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
		if _, err := decodeMsgBatchBody([]byte{0}); !errors.Is(err, ErrWire) {
			t.Errorf("a batch of no entries: err %v, want ErrWire", err)
		}
	})
	t.Run("node drain rsp truncated", func(t *testing.T) {
		rf, err := DecodeFrame(appendDrainNodeRspFrame(nil, 5, "w1",
			[]drainPart{{"P1", []SeqMsg{{Seq: 1, Msg: msg}}}, {"P2", []SeqMsg{{Seq: 1, Msg: msg}}}}, false))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(rf.Body); cut += 11 {
			if _, err := decodeDrainNodeRspBody(rf.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
}

// rawNode boots a node and a raw UDP client socket for protocol-level
// poking below the Medium abstraction.
func rawNode(t *testing.T, endpoints ...string) (*Node, *net.UDPConn) {
	t.Helper()
	cfg := &Config{Nodes: map[string]NodeSpec{
		"n": {Addr: "127.0.0.1:0", Endpoints: endpoints},
	}}
	n, err := ListenNode(cfg, "n")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return n, c
}

// roundTrip sends one frame to the node and returns the decoded reply.
func roundTrip(t *testing.T, n *Node, c *net.UDPConn, frame []byte) Frame {
	t.Helper()
	if _, err := c.WriteTo(frame, n.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxFrame+1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	sz, _, err := c.ReadFromUDP(buf)
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	f, err := DecodeFrame(buf[:sz])
	if err != nil {
		t.Fatalf("reply malformed: %v", err)
	}
	return f
}

// TestNodeResendDedup pins the ack-loss recovery: a resent message
// frame (same sender node + frame nonce) is acked again but enqueued
// once.
func TestNodeResendDedup(t *testing.T) {
	n, c := rawNode(t, "P1")
	msg := sampleMsg(t)
	frame := AppendMsgFrame(nil, 100, "drv", "P1", msg)
	for i := 0; i < 3; i++ {
		if f := roundTrip(t, n, c, frame); f.Type != FtAck || f.Nonce != 100 {
			t.Fatalf("attempt %d: reply %+v, want ack nonce 100", i, f)
		}
	}
	st := n.Stats()
	if st.Enqueued != 1 || st.DedupHits != 2 {
		t.Errorf("stats %+v, want Enqueued=1 DedupHits=2", st)
	}
}

// TestNodeDrainCumulativeAck pins the at-least-once drain protocol: a
// re-asked drain (lost response) re-serves the same batch; advancing
// the cumulative ack prunes it.
func TestNodeDrainCumulativeAck(t *testing.T) {
	n, c := rawNode(t, "P1")
	msg := sampleMsg(t)
	for i := uint64(1); i <= 3; i++ {
		roundTrip(t, n, c, AppendMsgFrame(nil, i, "drv", "P1", msg))
	}
	drain := func(ackSeq uint64) []SeqMsg {
		f := roundTrip(t, n, c, appendDrainNodeFrame(nil, 50+ackSeq, "drv", []drainReq{{"P1", ackSeq}}))
		if f.Type != FtDrainNodeRsp {
			t.Fatalf("reply %+v, want drain rsp", f)
		}
		parts, err := decodeDrainNodeRspBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		var batch []SeqMsg
		for _, p := range parts {
			batch = append(batch, p.batch...)
		}
		return batch
	}
	if b := drain(0); len(b) != 3 {
		t.Fatalf("first drain: %d messages, want 3", len(b))
	}
	if b := drain(0); len(b) != 3 {
		t.Errorf("re-asked drain (lost response): %d messages, want the same 3", len(b))
	}
	if b := drain(3); len(b) != 0 {
		t.Errorf("drain after cumulative ack 3: %d messages, want 0", len(b))
	}
}

// TestNodeIgnoresForeignEndpoints: mail for an endpoint the node does
// not host is dropped without an ack — the driver's resend budget, not
// a misrouted mailbox, owns that failure.
func TestNodeIgnoresForeignEndpoints(t *testing.T) {
	n, c := rawNode(t, "P1")
	frame := AppendMsgFrame(nil, 7, "drv", "P9", sampleMsg(t))
	if _, err := c.WriteTo(frame, n.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, _, err := c.ReadFromUDP(buf); err == nil {
		t.Error("node acked mail for an endpoint it does not host")
	}
	if st := n.Stats(); st.BadFrames != 1 {
		t.Errorf("BadFrames = %d, want 1", st.BadFrames)
	}
}

// TestNodePingPong pins the liveness probe.
func TestNodePingPong(t *testing.T) {
	n, c := rawNode(t, "P1")
	if f := roundTrip(t, n, c, AppendControlFrame(nil, FtPing, 77, "drv")); f.Type != FtPong || f.Nonce != 77 {
		t.Errorf("ping reply %+v, want pong nonce 77", f)
	}
}
