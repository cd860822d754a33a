package netbus

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dlsbl/internal/bus"
	"dlsbl/internal/sig"
)

// fuzzMsg is the signed bid every fuzz seed carries.
func fuzzMsg(f *testing.F) bus.Message {
	k, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(42))
	if err != nil {
		f.Fatal(err)
	}
	env, err := sig.Seal(k, "dls/bid", map[string]any{"proc": "P1", "bid": 1.5})
	if err != nil {
		f.Fatal(err)
	}
	return bus.Message{From: "P1", To: "*", Kind: "dls/bid", Size: 1, Nonce: 7, Env: env}
}

// FuzzWireFrame throws arbitrary datagrams at the full receive path —
// frame header plus every body decoder — and checks total behavior: no
// panics, errors only of the ErrWire family, and accepted frames
// re-encode to the identical datagram (the decode→encode fixpoint that
// keeps resend dedup byte-stable). Every decoded message is also sized
// with messageLen, and every batch entry with entryLen, against its
// encoding: nodes cut drain pages and bound mailboxes with them, and
// the driver cuts batch frames. A node-drain reply is decoded by the
// driver's sharing decoder and by the per-entry oracle, which must agree
// (see checkDrainDecode). The committed seed corpus under
// testdata/fuzz/FuzzWireFrame covers every frame type, the probe's v1
// ping and pong, one frame of each retired type (FtMsg, FtDrain,
// FtDrainRsp, FtMsgMulti), the truncation/oversize/version mutants from
// TestMalformedFrames, and a reply holding one bid in three mailboxes,
// as is and with the second copy's signature corrupted.
func FuzzWireFrame(f *testing.F) {
	msg := fuzzMsg(f)
	second := msg
	second.From, second.Nonce = "P2", 8
	old := retiredBodies(msg)
	f.Add(AppendMsgFrame(nil, 1, "drv", "P1", msg))
	f.Add(AppendControlFrame(nil, FtAck, 2, "w1"))
	f.Add(legacyFrame(2, 3, 0, old[3]))        // the retired FtDrain
	f.Add(legacyFrame(2, 4, FlagMore, old[4])) // the retired FtDrainRsp
	f.Add(AppendControlFrame(nil, FtPing, 5, "drv"))
	f.Add(AppendControlFrame(nil, FtPong, 5, "w1"))
	f.Add(appendMsgBatchFrame(nil, FlagTrace, 7, "drv", []msgEntry{{[]string{"P1"}, msg}}, "s1:r1", "s1:r1"))
	f.Add(AppendTelemetryFrame(nil, 8, "drv", 17))
	f.Add(AppendTelemetryRspFrame(nil, 9, "w1",
		[][]byte{[]byte(`{"type":"event","name":"net_rx"}`)}, true))
	valid := AppendMsgFrame(nil, 6, "drv", "P1", msg)
	probe := AppendControlFrame(nil, FtPing, 6, "drv")
	probe[4] = VersionLegacy
	f.Add(probe)                                // the v1 version probe: must still parse
	f.Add(valid[:headerFixed-1])                // truncated header
	f.Add(valid[:len(valid)-3])                 // truncated body
	f.Add(append(valid[:4:4], 0xFF))            // bad version
	f.Add([]byte("DLSBjunkjunkjunkjunk"))       // header-sized garbage
	f.Add(legacyFrame(3, 9, FlagTrace, old[9])) // the retired FtMsgMulti
	f.Add(appendDrainNodeFrame(nil, 11, "drv", []drainReq{{"P1", 3}, {"P2", 0}}))
	f.Add(appendDrainNodeRspFrame(nil, 11, "w1",
		[]drainPart{{"P1", []SeqMsg{{Seq: 4, Msg: msg}}}, {"P2", []SeqMsg{{Seq: 1, Msg: msg}, {Seq: 2, Msg: msg}}}}, true))
	f.Add(appendMsgBatchFrame(nil, FlagTrace, 12, "drv",
		[]msgEntry{{[]string{"P2", "P3"}, msg}, {[]string{"P3"}, second}}, "s1:r1", "s1:r1"))
	f.Add(appendMsgBatchFrame(nil, 0, 13, "drv", []msgEntry{{[]string{"P1"}, msg}}, "", ""))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // rejected; DecodeFrame must simply not panic
		}
		// Accepted header: body decoders must be total too, and the
		// decode→encode round trip must reproduce the datagram bit for
		// bit (uvarints are already minimal by construction here — the
		// fixpoint catches any second encoding sneaking in). Only a ping
		// or pong may be in an older version than the encoders emit.
		if fr.Version != Version && fr.Type != FtPing && fr.Type != FtPong {
			t.Fatalf("a version %d frame of type %d was accepted", fr.Version, fr.Type)
		}
		switch fr.Type {
		case FtMsgBatch:
			entries, err := decodeMsgBatchBody(fr.Body)
			if err != nil {
				return
			}
			body := 0
			for _, e := range entries {
				if messageLen(e.msg) != len(appendMessage(nil, e.msg)) {
					t.Fatalf("messageLen %d disagrees with the encoding of %+v", messageLen(e.msg), e.msg)
				}
				body += entryLen(e)
			}
			if want := len(fr.Body) - uvarintLen(uint64(len(entries))); body != want {
				t.Fatalf("entryLen sums to %d, the entries take %d bytes", body, want)
			}
			if hl := headerLen(fr.Flags, fr.Node, fr.Round, fr.Epoch); hl != len(data)-len(fr.Body) {
				t.Fatalf("headerLen %d, the header takes %d bytes", hl, len(data)-len(fr.Body))
			}
			re := appendMsgBatchFrame(nil, fr.Flags, fr.Nonce, fr.Node, entries, fr.Round, fr.Epoch)
			if !bytes.Equal(re, data) {
				t.Fatalf("batch frame not a fixpoint:\n in  %x\n out %x", data, re)
			}
		case FtDrainNode:
			reqs, err := decodeDrainNodeBody(fr.Body)
			if err != nil {
				return
			}
			re := appendDrainNodeFrame(nil, fr.Nonce, fr.Node, reqs)
			if !bytes.Equal(re, data) {
				t.Fatalf("node drain frame not a fixpoint:\n in  %x\n out %x", data, re)
			}
		case FtDrainNodeRsp:
			// The driver's decoder against the per-entry oracle: the same
			// entries, decoded memory shared exactly between byte-identical
			// copies, and a fixpoint.
			d := checkDrainDecode(t, fr.Body)
			if d == nil {
				return
			}
			re := appendDrainNodeRspFrame(nil, fr.Nonce, fr.Node, d.parts(), fr.Flags&FlagMore != 0)
			if !bytes.Equal(re, data) {
				t.Fatalf("node drain rsp not a fixpoint:\n in  %x\n out %x", data, re)
			}
		case FtTelemetry:
			ack, err := DecodeTelemetryBody(fr.Body)
			if err != nil {
				return
			}
			re := AppendTelemetryFrame(nil, fr.Nonce, fr.Node, ack)
			if !bytes.Equal(re, data) {
				t.Fatalf("telemetry frame not a fixpoint:\n in  %x\n out %x", data, re)
			}
		case FtTelemetryRsp:
			lines, err := DecodeTelemetryRspBody(fr.Body)
			if err != nil {
				return
			}
			re := AppendTelemetryRspFrame(nil, fr.Nonce, fr.Node, lines, fr.Flags&FlagMore != 0)
			if !bytes.Equal(re, data) {
				t.Fatalf("telemetry rsp not a fixpoint:\n in  %x\n out %x", data, re)
			}
		case FtAck, FtPing, FtPong:
			if len(fr.Body) == 0 {
				re := AppendControlFrame(nil, fr.Type, fr.Nonce, fr.Node)
				re[4] = fr.Version // a probe ping or pong may be older
				if fr.Flags == 0 && !bytes.Equal(re, data) {
					t.Fatalf("control frame not a fixpoint:\n in  %x\n out %x", data, re)
				}
			}
		}
	})
}

// datagrams frames a datagram sequence as FuzzNodeHandle reads it: each
// datagram behind a 2-byte big-endian length.
func datagrams(dgs ...[]byte) []byte {
	var out []byte
	for _, d := range dgs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(d)))
		out = append(out, d...)
	}
	return out
}

// FuzzNodeHandle feeds a socketless node arbitrary datagram sequences
// (each datagram behind a 2-byte length) through Node.handle and checks
// after every datagram that nothing panicked; that a message frame (an
// FtMsgBatch) was filed whole or not at all:
// either no mailbox grew, or every mailbox grew by exactly the number of
// the frame's messages naming it, and the frame was acked; that no other
// frame, a retired v1–v3 message frame included, filed mail; that a
// resent frame (same sender node and frame
// nonce as one filed before) filed nothing, and that an identical resend
// was acked again; and that every mailbox stays within its byte bound.
// The bound is lowered to a few messages' worth so the fuzzer reaches
// it.
func FuzzNodeHandle(f *testing.F) {
	msg := fuzzMsg(f)
	single := func(nonce uint64, dests ...string) []byte { // a one-entry batch
		return appendMsgBatchFrame(nil, 0, nonce, "drv", []msgEntry{{dests, msg}}, "", "")
	}
	batch := func(nonce uint64, dests ...[]string) []byte {
		entries := make([]msgEntry, len(dests))
		for i, d := range dests {
			entries[i] = msgEntry{dests: d, msg: msg}
		}
		return appendMsgBatchFrame(nil, 0, nonce, "drv", entries, "", "")
	}
	f.Add(datagrams(single(1, "P1", "P2"), single(1, "P1", "P2"), single(2, "P2", "P3"),
		appendDrainNodeFrame(nil, 3, "drv", []drainReq{{"P1", 0}, {"P2", 0}, {"P3", 0}}),
		appendDrainNodeFrame(nil, 4, "drv", []drainReq{{"P1", 1}, {"P2", 2}})))
	old := retiredBodies(msg)
	f.Add(datagrams(single(5, "P1", "P9"), single(6, "P3", "P3"), AppendMsgFrame(nil, 7, "drv", "P2", msg),
		legacyFrame(2, 1, 0, old[1]), legacyFrame(3, FtDrainNode, 0, old[FtDrainNode])))
	var flood [][]byte
	for i := uint64(1); i <= 12; i++ { // past the lowered bound
		flood = append(flood, single(10+i, "P1", "P3"))
	}
	flood = append(flood, appendDrainNodeFrame(nil, 30, "drv", []drainReq{{"P1", 8}, {"P3", 8}}), single(31, "P1", "P2", "P3"))
	f.Add(datagrams(flood...))
	// Batches: a valid one and its resend, one whose second entry names
	// a foreign endpoint, one naming a mailbox twice within an entry,
	// one naming P1 in three entries, and one that only overflows P2's
	// bound by counting all of its entries.
	f.Add(datagrams(batch(40, []string{"P2", "P3"}, []string{"P1", "P3"}), batch(40, []string{"P2", "P3"}, []string{"P1", "P3"}),
		batch(41, []string{"P1"}, []string{"P9"}), batch(42, []string{"P2", "P2"}),
		batch(43, []string{"P1"}, []string{"P1", "P2"}, []string{"P3", "P1"}),
		appendDrainNodeFrame(nil, 44, "drv", []drainReq{{"P1", 3}, {"P2", 1}, {"P3", 2}}),
		batch(45, []string{"P2"}, []string{"P2"}, []string{"P2"}, []string{"P2"}, []string{"P2"}, []string{"P2"}, []string{"P2"})))

	eps := []string{"P1", "P2", "P3"}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := newNode("w1", eps)
		n.boxCap = 1024
		filed := map[seenKey]bool{}     // message frames filed so far
		filedBytes := map[string]bool{} // and their exact datagrams
		for len(data) >= 2 {
			l := min(int(binary.BigEndian.Uint16(data)), len(data)-2)
			dg := data[2 : 2+l]
			data = data[2+l:]
			before := map[string]int{}
			for _, ep := range eps {
				before[ep] = len(n.boxes[ep].queue)
			}
			out := n.handle(nil, dg)
			grew := map[string]int{}
			for _, ep := range eps {
				box := n.boxes[ep]
				if d := len(box.queue) - before[ep]; d > 0 {
					grew[ep] = d
				}
				sum := 0
				for _, sm := range box.queue {
					sum += messageLen(sm.Msg)
				}
				if box.bytes != sum || box.bytes > n.boxCap {
					t.Fatalf("%s accounts %d bytes, holds %d, bound %d", ep, box.bytes, sum, n.boxCap)
				}
			}
			fr, err := DecodeFrame(dg)
			if err != nil {
				if len(grew) > 0 {
					t.Fatalf("a malformed datagram filed mail: %v", err)
				}
				continue
			}
			want, isMsg := frameCopies(fr)
			k := seenKey{node: fr.Node, nonce: fr.Nonce}
			if isMsg && filed[k] {
				if len(grew) > 0 {
					t.Fatalf("a resent frame (nonce %d) filed %v again", fr.Nonce, grew)
				}
				if filedBytes[string(dg)] {
					if ack, err := DecodeFrame(out); err != nil || ack.Type != FtAck || ack.Nonce != fr.Nonce {
						t.Fatalf("an identical resend was not acked (reply %x)", out)
					}
				}
				continue
			}
			if len(grew) == 0 {
				continue
			}
			if !isMsg {
				t.Fatalf("frame type %d filed mail into %v", fr.Type, grew)
			}
			if fmt.Sprint(grew) != fmt.Sprint(want) {
				t.Fatalf("frame type %d for %v filed %v: not whole", fr.Type, want, grew)
			}
			if ack, err := DecodeFrame(out); err != nil || ack.Type != FtAck || ack.Nonce != fr.Nonce {
				t.Fatalf("mail was filed without an ack (reply %x)", out)
			}
			filed[k] = true
			filedBytes[string(dg)] = true
		}
	})
}

// frameCopies returns, for a message frame, how many copies it would
// file into each mailbox, and whether it is a message frame with a
// body that decodes.
func frameCopies(fr Frame) (map[string]int, bool) {
	if fr.Type != FtMsgBatch {
		return nil, false
	}
	entries, err := decodeMsgBatchBody(fr.Body)
	if err != nil {
		return nil, false
	}
	copies := map[string]int{}
	for _, e := range entries {
		for _, d := range e.dests {
			copies[d]++
		}
	}
	return copies, true
}
