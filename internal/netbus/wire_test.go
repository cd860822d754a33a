package netbus

import (
	"encoding/binary"
	"errors"
	"net"
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

func TestFrameRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	frame := AppendMsgFrame(nil, 0xABCD, "w1", "P2", msg)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Type != FtMsg || f.Nonce != 0xABCD || f.Node != "w1" {
		t.Errorf("header round-trip: %+v", f)
	}
	dest, got, err := DecodeMsgBody(f.Body)
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	if dest != "P2" {
		t.Errorf("dest = %q, want P2", dest)
	}
	if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind ||
		got.Size != msg.Size || got.Nonce != msg.Nonce || !got.Env.Equal(msg.Env) {
		t.Errorf("message round-trip:\n got  %+v\n want %+v", got, msg)
	}
}

func TestDrainRspRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	batch := []SeqMsg{{Seq: 3, Msg: msg}, {Seq: 4, Msg: msg}}
	frame := appendDrainRspFrame(nil, 9, "w1", "P1", batch, true)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Flags&FlagMore == 0 {
		t.Error("FlagMore lost in transit")
	}
	ep, got, err := decodeDrainRspBody(f.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ep != "P1" || len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Errorf("drain rsp round-trip: ep=%q got=%+v", ep, got)
	}
	if !got[1].Msg.Env.Equal(msg.Env) {
		t.Error("envelope mangled in drain batch")
	}
}

// TestTraceFrameRoundTrip pins the v2 trace-context extension: round,
// epoch and origin survive framing, and the body decodes exactly as an
// untraced message does.
func TestTraceFrameRoundTrip(t *testing.T) {
	msg := sampleMsg(t)
	frame := appendMsgFrameTrace(nil, FlagTrace, 0xBEEF, "w1", "P2", msg, "sdeadbeef:r3", "sdeadbeef:r3", 99)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Version != Version || f.Flags&FlagTrace == 0 {
		t.Errorf("trace frame header: %+v", f)
	}
	if f.Round != "sdeadbeef:r3" || f.Epoch != "sdeadbeef:r3" || f.Origin != 99 {
		t.Errorf("trace context mangled: round=%q epoch=%q origin=%d", f.Round, f.Epoch, f.Origin)
	}
	dest, got, err := DecodeMsgBody(f.Body)
	if err != nil {
		t.Fatalf("body: %v", err)
	}
	if dest != "P2" || got.Nonce != msg.Nonce || !got.Env.Equal(msg.Env) {
		t.Errorf("traced message round-trip: dest=%q got=%+v", dest, got)
	}
}

// TestLegacyFrameAccepted pins backward compatibility: a version-1
// datagram (the pre-telemetry wire) still parses, with its original
// version surfaced and no trace context.
func TestLegacyFrameAccepted(t *testing.T) {
	msg := sampleMsg(t)
	frame := AppendMsgFrame(nil, 0xABCD, "w1", "P2", msg)
	frame[4] = VersionLegacy
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("legacy frame rejected: %v", err)
	}
	if f.Version != VersionLegacy || f.Round != "" || f.Origin != 0 {
		t.Errorf("legacy frame header: %+v", f)
	}
	if _, _, err := DecodeMsgBody(f.Body); err != nil {
		t.Errorf("legacy body: %v", err)
	}
}

// TestTelemetryRoundTrip pins the v2 telemetry drain pair.
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
// unknown version, unknown type, trailing garbage — plus the per-version
// rules (telemetry types and the trace flag do not exist in version 1,
// the node-drain types not in version 2, the batch type not in version
// 3, a batch frame's trace context carries origin 0, and the trace flag
// belongs to message frames only).
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
		}), ErrWire},
		{"v1 trace flag", mutate(func(b []byte) []byte {
			b[4], b[6] = VersionLegacy, FlagTrace
			return b
		}), ErrWire},
		{"trace flag on ping", func() []byte {
			b := AppendControlFrame(nil, FtPing, 1, "drv")
			b[6] = FlagTrace
			return b
		}(), ErrWire},
		{"v2 node drain type", mutate(func(b []byte) []byte {
			b[4], b[5] = versionTrace, FtDrainNode
			return b
		}), ErrWire},
		{"v3 batch type", mutate(func(b []byte) []byte {
			b[4], b[5] = versionNode, FtMsgBatch
			return b
		}), ErrWire},
		{"origin on batch", func() []byte {
			b := appendHeader(nil, Version, FtMsgBatch, FlagTrace, 1, "drv", "s1:r1", "s1:r1", 7)
			b = append(b, 1, 1, 2, 'P', '1')
			b = appendMessage(b, sampleMsg(t))
			return finishFrame(b, 0)
		}(), ErrWire},
		{"more flag on multi", func() []byte {
			b := appendMsgMultiFrame(nil, 0, 1, "drv", []string{"P1"}, sampleMsg(t), "", "", 0)
			b[6] = FlagMore
			return b
		}(), ErrWire},
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
			if _, _, err := DecodeMsgBody(f.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
	t.Run("msg non-minimal varint", func(t *testing.T) {
		// 0x82 0x00 is a two-byte encoding of 2 — legal LEB128, banned
		// here because it breaks the canonical-encoding fixpoint.
		body := append([]byte{0x82, 0x00}, f.Body[1:]...)
		if _, _, err := DecodeMsgBody(body); !errors.Is(err, ErrWire) {
			t.Errorf("non-minimal varint accepted: %v", err)
		}
	})
	t.Run("msg trailing garbage", func(t *testing.T) {
		body := append(append([]byte(nil), f.Body...), 0xAA)
		if _, _, err := DecodeMsgBody(body); !errors.Is(err, ErrWire) {
			t.Errorf("trailing garbage accepted: %v", err)
		}
	})
	t.Run("drain truncated", func(t *testing.T) {
		df, err := DecodeFrame(appendDrainFrame(nil, 2, "drv", "P1", 5))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeDrainBody(df.Body[:1]); !errors.Is(err, ErrWire) {
			t.Errorf("truncated drain body accepted: %v", err)
		}
	})
	t.Run("drain rsp truncated", func(t *testing.T) {
		rf, err := DecodeFrame(appendDrainRspFrame(nil, 3, "w1", "P1",
			[]SeqMsg{{Seq: 1, Msg: msg}}, false))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(rf.Body); cut += 11 {
			if _, _, err := decodeDrainRspBody(rf.Body[:cut]); !errors.Is(err, ErrWire) {
				t.Errorf("cut at %d: err %v, want ErrWire", cut, err)
			}
		}
	})
	t.Run("multi without destinations", func(t *testing.T) {
		mf, err := DecodeFrame(appendMsgMultiFrame(nil, 0, 4, "drv", nil, msg, "", "", 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeMsgMultiBody(mf.Body); !errors.Is(err, ErrWire) {
			t.Errorf("a multi frame naming no destination decoded: %v", err)
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
		noEntries := []byte{0}
		noDests := append([]byte{1, 0}, appendMessage(nil, msg)...)
		for name, body := range map[string][]byte{"no entries": noEntries, "no destinations": noDests} {
			if _, err := decodeMsgBatchBody(body); !errors.Is(err, ErrWire) {
				t.Errorf("%s: err %v, want ErrWire", name, err)
			}
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

// TestNodeResendDedup pins the ack-loss recovery: a resent FtMsg (same
// sender node + frame nonce) is acked again but enqueued once.
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
		f := roundTrip(t, n, c, appendDrainFrame(nil, 50+ackSeq, "drv", "P1", ackSeq))
		if f.Type != FtDrainRsp {
			t.Fatalf("reply %+v, want drain rsp", f)
		}
		_, batch, err := decodeDrainRspBody(f.Body)
		if err != nil {
			t.Fatal(err)
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
