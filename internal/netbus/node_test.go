package netbus

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dlsbl/internal/bus"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// handleOnce feeds one datagram to a socketless node and decodes the
// reply; ok is false when the node stayed silent.
func handleOnce(t *testing.T, n *Node, datagram []byte) (Frame, bool) {
	t.Helper()
	out := n.handle(nil, datagram)
	if len(out) == 0 {
		return Frame{}, false
	}
	f, err := DecodeFrame(out)
	if err != nil {
		t.Fatalf("node reply does not decode: %v", err)
	}
	return f, true
}

// depths returns the queue length of every named mailbox.
func depths(n *Node, eps ...string) []int {
	out := make([]int, len(eps))
	for i, ep := range eps {
		out[i] = len(n.boxes[ep].queue)
	}
	return out
}

// rawMsg is a message with a payload of the given size; the netbus
// never opens envelopes, so it need not be signed.
func rawMsg(from string, nonce uint64, payload int) bus.Message {
	return bus.Message{From: from, To: "*", Kind: "dls/bid", Size: 1, Nonce: nonce,
		Env: sig.Envelope{Sender: from, Kind: "dls/bid", Payload: make([]byte, payload), Signature: make([]byte, 64)}}
}

// TestNodeBatchFrameAllOrNothing pins the filing rule: a batch frame
// with one bad entry — a destination the node does not host, or one
// named twice within its entry — is refused whole, while a valid one
// files every entry, in order, and is acked once. A mailbox named by
// several entries receives each of their messages; a resend is acked
// again and files nothing.
func TestNodeBatchFrameAllOrNothing(t *testing.T) {
	n := newNode("w1", []string{"P1", "P2", "P3"})
	batch := func(nonce uint64, dests ...[]string) []byte {
		entries := make([]msgEntry, len(dests))
		for i, d := range dests {
			entries[i] = msgEntry{dests: d, msg: rawMsg(fmt.Sprintf("P%d", 4+i), uint64(i+1), 40)}
		}
		return appendMsgBatchFrame(nil, 0, nonce, "drv", entries, "", "")
	}
	for i, frame := range [][]byte{
		batch(10, []string{"P1", "P2"}, []string{"P9"}),
		batch(11, []string{"P1"}, []string{"P2", "P3", "P2"}),
	} {
		if _, ok := handleOnce(t, n, frame); ok {
			t.Errorf("bad batch %d: node acked a frame it must refuse", i)
		}
		if st := n.Stats(); st.BadFrames != uint64(i+1) || st.Enqueued != 0 {
			t.Errorf("bad batch %d: stats %+v, want BadFrames=%d Enqueued=0", i, st, i+1)
		}
		if d := depths(n, "P1", "P2", "P3"); d[0]+d[1]+d[2] != 0 {
			t.Errorf("bad batch %d: mailboxes grew to %v", i, d)
		}
	}
	frame := batch(20, []string{"P2", "P3"}, []string{"P1", "P3"}, []string{"P3"})
	for i := 0; i < 2; i++ {
		if f, ok := handleOnce(t, n, frame); !ok || f.Type != FtAck || f.Nonce != 20 {
			t.Fatalf("valid batch, copy %d: reply %+v (ok %v), want ack nonce 20", i, f, ok)
		}
	}
	if d := depths(n, "P1", "P2", "P3"); fmt.Sprint(d) != "[1 1 3]" {
		t.Errorf("mailbox depths %v, want [1 1 3]", d)
	}
	var from []string
	for _, sm := range n.boxes["P3"].queue {
		from = append(from, sm.Msg.From)
	}
	if fmt.Sprint(from) != "[P4 P5 P6]" {
		t.Errorf("P3 filed messages from %v, want the entry order [P4 P5 P6]", from)
	}
	if st := n.Stats(); st.Enqueued != 5 || st.DedupHits != 1 {
		t.Errorf("stats %+v, want Enqueued=5 DedupHits=1", st)
	}
}

// TestNodeBatchBoundCountsEveryEntry pins the mailbox bound on batch
// frames: it counts everything the frame would add to a mailbox, so a
// batch whose entries each fit but together overflow P1 is refused
// whole, and one that exactly fills it is filed.
func TestNodeBatchBoundCountsEveryEntry(t *testing.T) {
	n := newNode("w1", []string{"P1", "P2"})
	msg := rawMsg("P3", 1, 40)
	size := messageLen(msg)
	n.boxCap = 3 * size
	entries := func(k int) []msgEntry {
		out := make([]msgEntry, k)
		for i := range out {
			out[i] = msgEntry{dests: []string{"P1", "P2"}, msg: msg}
		}
		return out
	}
	if _, ok := handleOnce(t, n, appendMsgBatchFrame(nil, 0, 1, "drv", entries(4), "", "")); ok {
		t.Fatal("a batch overflowing both mailboxes was acked")
	}
	if st := n.Stats(); st.Refused != 1 || st.Enqueued != 0 || n.boxes["P1"].bytes != 0 {
		t.Fatalf("after the overflowing batch: stats %+v, P1 holds %d bytes", st, n.boxes["P1"].bytes)
	}
	if f, ok := handleOnce(t, n, appendMsgBatchFrame(nil, 0, 2, "drv", entries(3), "", "")); !ok || f.Type != FtAck {
		t.Fatalf("a batch exactly filling the mailboxes was refused (reply %+v)", f)
	}
	if d := depths(n, "P1", "P2"); d[0] != 3 || d[1] != 3 {
		t.Errorf("mailbox depths %v, want [3 3]", d)
	}
}

// TestNodeDrainPagesLargeBacklog pins node-drain paging: a backlog far
// larger than MaxFrame (64 mailboxes × 63 bids) comes back across
// FlagMore pages, every page under MaxFrame, every message exactly once
// and in arrival order per mailbox.
func TestNodeDrainPagesLargeBacklog(t *testing.T) {
	const m = 64
	var eps []string
	for i := 1; i <= m; i++ {
		eps = append(eps, fmt.Sprintf("P%d", i))
	}
	n := newNode("w1", eps)
	for s, sender := range eps {
		var dests []string
		for _, ep := range eps {
			if ep != sender {
				dests = append(dests, ep)
			}
		}
		frame := appendMsgBatchFrame(nil, 0, uint64(s+1), "drv", []msgEntry{{dests, rawMsg(sender, uint64(s+1), 60)}}, "", "")
		if _, ok := handleOnce(t, n, frame); !ok {
			t.Fatalf("bid broadcast from %s refused", sender)
		}
	}
	acks := map[string]uint64{}
	got := map[string][]uint64{} // logical nonces per mailbox, in drained order
	pages := 0
	for more := true; more; pages++ {
		reqs := make([]drainReq, 0, m)
		for _, ep := range eps {
			reqs = append(reqs, drainReq{endpoint: ep, ack: acks[ep]})
		}
		out := n.handle(nil, appendDrainNodeFrame(nil, uint64(1000+pages), "drv", reqs))
		if len(out) > MaxFrame {
			t.Fatalf("page %d is %d bytes, over MaxFrame", pages, len(out))
		}
		f, err := DecodeFrame(out)
		if err != nil || f.Type != FtDrainNodeRsp {
			t.Fatalf("page %d: %+v, %v", pages, f, err)
		}
		parts, err := decodeDrainNodeRspBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			for _, sm := range p.batch {
				if sm.Seq <= acks[p.endpoint] {
					t.Fatalf("page %d re-served %s seq %d", pages, p.endpoint, sm.Seq)
				}
				acks[p.endpoint] = sm.Seq
				got[p.endpoint] = append(got[p.endpoint], sm.Msg.Nonce)
			}
		}
		more = f.Flags&FlagMore != 0
	}
	if pages < 2 {
		t.Fatalf("a %d-message backlog fit one page; the test no longer exercises paging", m*(m-1))
	}
	for r, ep := range eps {
		var want []uint64
		for s := range eps {
			if s != r {
				want = append(want, uint64(s+1))
			}
		}
		if fmt.Sprint(got[ep]) != fmt.Sprint(want) {
			t.Fatalf("%s drained %v, want %v", ep, got[ep], want)
		}
	}
}

// TestNodeMailboxBound pins the defence against hostile datagrams: a
// flood of unsolicited 50 KB frames from a socket calling itself
// "attacker" stops at MailboxBytes — the excess is refused, not acked
// and counted — and once a drain has acknowledged the backlog a
// legitimate delivery is accepted again.
func TestNodeMailboxBound(t *testing.T) {
	n := newNode("w1", []string{"P1"})
	size := messageLen(rawMsg("attacker", 1, 50_000))
	acked := 0
	for i := uint64(1); i <= 1000; i++ {
		if _, ok := handleOnce(t, n, AppendMsgFrame(nil, i, "attacker", "P1", rawMsg("attacker", i, 50_000))); ok {
			acked++
		}
	}
	if want := MailboxBytes / size; acked != want {
		t.Errorf("flood: %d frames acked, want %d (MailboxBytes / %d-byte messages)", acked, want, size)
	}
	if st := n.Stats(); st.Refused != uint64(1000-acked) || st.Enqueued != uint64(acked) {
		t.Errorf("stats %+v, want Refused=%d Enqueued=%d", st, 1000-acked, acked)
	}
	if b := n.boxes["P1"].bytes; b > MailboxBytes {
		t.Errorf("mailbox holds %d bytes, over the %d bound", b, MailboxBytes)
	}
	legit := AppendMsgFrame(nil, 5000, "drv", "P1", rawMsg("P2", 1, 50_000))
	if _, ok := handleOnce(t, n, legit); ok {
		t.Fatal("a full mailbox accepted another 50 KB message")
	}
	// Drain the backlog page by page, acknowledging as the driver does.
	var ack uint64
	for page := uint64(0); ; page++ {
		f, ok := handleOnce(t, n, appendDrainNodeFrame(nil, 6000+page, "drv", []drainReq{{"P1", ack}}))
		if !ok {
			t.Fatal("drain unanswered")
		}
		parts, err := decodeDrainNodeRspBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			for _, sm := range p.batch {
				ack = sm.Seq
			}
		}
		if f.Flags&FlagMore == 0 {
			break
		}
	}
	if ack != uint64(acked) {
		t.Fatalf("drained through seq %d, want %d", ack, acked)
	}
	if f, ok := handleOnce(t, n, legit); !ok || f.Type != FtAck {
		t.Fatalf("after the drain a legitimate delivery was refused (reply %+v)", f)
	}
}

// TestNodeAnswersInCurrentVersion pins the one-version rule at the
// node: a ping of every version, the driver's version probe, gets a pong
// in the current version, and a v1–v3 message or drain frame is dropped
// unanswered, counted in BadFrames, and files nothing.
func TestNodeAnswersInCurrentVersion(t *testing.T) {
	n := newNode("w1", []string{"P1"})
	for v := byte(VersionLegacy); v <= Version; v++ {
		ping := AppendControlFrame(nil, FtPing, uint64(v), "drv")
		ping[4] = v
		if f, ok := handleOnce(t, n, ping); !ok || f.Type != FtPong || f.Version != Version || f.Nonce != uint64(v) {
			t.Fatalf("v%d ping: reply %+v (ok %v), want a pong in version %d", v, f, ok, Version)
		}
	}
	if _, ok := handleOnce(t, n, AppendMsgFrame(nil, 10, "drv", "P1", rawMsg("P2", 3, 40))); !ok {
		t.Fatal("a current message frame was not acked")
	}
	bodies := retiredBodies(rawMsg("P2", 4, 40))
	batch, err := DecodeFrame(AppendMsgFrame(nil, 11, "drv", "P1", rawMsg("P2", 4, 40)))
	if err != nil {
		t.Fatal(err)
	}
	bodies[FtMsgBatch] = batch.Body
	old := []struct{ v, typ byte }{
		{1, 1}, {2, 1}, {3, 9}, {3, FtMsgBatch}, // the retired FtMsg and FtMsgMulti, and a batch under v3
		{1, 3}, {2, 3}, {3, FtDrainNode}, // the retired FtDrain, and a node drain under v3
	}
	for i, c := range old {
		if f, ok := handleOnce(t, n, legacyFrame(c.v, c.typ, 0, bodies[c.typ])); ok {
			t.Errorf("v%d frame of type %d: answered with %+v", c.v, c.typ, f)
		}
		if st := n.Stats(); st.BadFrames != uint64(i+1) || st.Enqueued != 1 || st.Drains != 0 {
			t.Errorf("v%d frame of type %d: stats %+v, want BadFrames=%d Enqueued=1 Drains=0", c.v, c.typ, st, i+1)
		}
	}
	if d := depths(n, "P1"); d[0] != 1 {
		t.Errorf("P1 holds %d messages, want the one current frame's", d[0])
	}
}

// TestMessageLen pins the size arithmetic nodes cut drain pages and
// bound mailboxes with against the encoder.
func TestMessageLen(t *testing.T) {
	for _, payload := range []int{0, 1, 127, 128, 16383, 16384, 50_000} {
		m := rawMsg("P1", uint64(payload)<<9, payload)
		m.Size = payload
		if got, want := messageLen(m), len(appendMessage(nil, m)); got != want {
			t.Errorf("payload %d: messageLen %d, encoding %d", payload, got, want)
		}
	}
}

// TestNodeTelemetryPages pins what a node serves to telemetry drains:
// records under their recorder seq plus one, so the first request,
// acknowledging 0, gets the first record; and a record no page can
// carry, here an event whose round from a hostile batch frame JSON-
// escapes to 66 KB, as a truncated marker under its seq, so every page
// advances the ack and the records after it still arrive.
func TestNodeTelemetryPages(t *testing.T) {
	n := newNode("w1", []string{"P1"})
	n.EnableTelemetry(0)
	hostile := appendMsgBatchFrame(nil, FlagTrace, 1, "drv", []msgEntry{{[]string{"P1"}, rawMsg("P2", 1, 40)}},
		strings.Repeat("<", 11_000), "e1")
	for _, frame := range [][]byte{hostile, AppendMsgFrame(nil, 2, "drv", "P1", rawMsg("P2", 2, 40))} {
		if f, ok := handleOnce(t, n, frame); !ok || f.Type != FtAck {
			t.Fatalf("message frame not acked (reply %+v)", f)
		}
	}
	var got []string
	var ack uint64
	for page := uint64(0); ; page++ {
		f, ok := handleOnce(t, n, AppendTelemetryFrame(nil, 100+page, "drv", ack))
		if !ok || f.Type != FtTelemetryRsp {
			t.Fatalf("page %d: reply %+v (ok %v)", page, f, ok)
		}
		lines, err := DecodeTelemetryRspBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		before := ack
		for _, line := range lines {
			var rec obs.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%d:%s", rec.Seq, rec.Name))
			ack = max(ack, uint64(rec.Seq))
		}
		if f.Flags&FlagMore == 0 {
			break
		}
		if ack == before || page > 8 {
			t.Fatalf("page %d: FlagMore with the ack stuck at %d", page, ack)
		}
	}
	if want := "[1:truncated 2:truncated 3:net_rx 4:net_tx]"; fmt.Sprint(got) != want {
		t.Errorf("served %v, want %s", got, want)
	}
}
