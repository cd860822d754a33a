package netbus_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"dlsbl/internal/bus"
	"dlsbl/internal/netbus"
	"dlsbl/internal/sig"
)

// goldenHexFromDoc extracts the contents of every ```hex fence in
// docs/WIRE.md, in document order — the normative golden frames (the
// current-version example first, then the v3, v2 and v1 examples).
func goldenHexFromDoc(t *testing.T) [][]byte {
	t.Helper()
	raw, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatalf("reading the wire spec: %v", err)
	}
	doc := string(raw)
	var frames [][]byte
	for {
		i := strings.Index(doc, "```hex\n")
		if i < 0 {
			break
		}
		doc = doc[i+len("```hex\n"):]
		j := strings.Index(doc, "```")
		if j < 0 {
			t.Fatal("docs/WIRE.md: unterminated ```hex fence")
		}
		compact := strings.NewReplacer("\n", "", " ", "", "\t", "").Replace(doc[:j])
		frame, err := hex.DecodeString(compact)
		if err != nil {
			t.Fatalf("docs/WIRE.md golden hex does not decode: %v", err)
		}
		frames = append(frames, frame)
		doc = doc[j:]
	}
	if len(frames) == 0 {
		t.Fatal("docs/WIRE.md has no ```hex fence — the golden examples are gone")
	}
	return frames
}

// goldenBid reproduces the documented construction of one processor's
// bid message.
func goldenBid(t *testing.T, proc string, seed int64, bid float64, nonce uint64) bus.Message {
	t.Helper()
	k, err := sig.GenerateKeyPair(proc, sig.DeterministicSource(seed))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sig.Seal(k, "dls/bid", map[string]any{"bid": bid, "proc": proc})
	if err != nil {
		t.Fatal(err)
	}
	return bus.Message{From: proc, To: "*", Kind: "dls/bid", Size: 1, Nonce: nonce, Env: env}
}

// goldenMsg is P1's bid, the message every golden carries.
func goldenMsg(t *testing.T) bus.Message { return goldenBid(t, "P1", 42, 1.5, 7) }

// TestWireGoldenBytes keeps docs/WIRE.md honest: the version-4 golden
// frame embedded in the spec must be byte-identical to what the encoder
// produces for the documented inputs and must decode back to them, and
// the older version-3, -2 and -1 goldens must still decode on today's
// receiver, field for field — the backward-compatibility promise,
// pinned in bytes.
func TestWireGoldenBytes(t *testing.T) {
	goldens := goldenHexFromDoc(t)
	if len(goldens) != 4 {
		t.Fatalf("docs/WIRE.md has %d ```hex fences, want 4 (v4, v3, v2, v1)", len(goldens))
	}
	msg := goldenMsg(t)

	t.Run("v4 traced batch", func(t *testing.T) {
		golden := goldens[0]
		p2 := goldenBid(t, "P2", 43, 2, 8)
		frame := netbus.AppendMsgBatchFrame(nil, netbus.FlagTrace, 0xC0FFEE, "serve",
			[][]string{{"P2", "P3"}, {"P3"}}, []bus.Message{msg, p2}, "s1:r1", "s1:r1")
		if !bytes.Equal(frame, golden) {
			t.Fatalf("docs/WIRE.md golden frame drifted from the encoder:\n doc  %x\n code %x", golden, frame)
		}
		f, err := netbus.DecodeFrame(golden)
		if err != nil {
			t.Fatalf("golden frame does not decode: %v", err)
		}
		if f.Version != netbus.Version || f.Type != netbus.FtMsgBatch || f.Nonce != 0xC0FFEE || f.Node != "serve" {
			t.Errorf("golden header %+v, want v4 FtMsgBatch nonce=0xC0FFEE node=serve", f)
		}
		if f.Round != "s1:r1" || f.Epoch != "s1:r1" || f.Origin != 0 {
			t.Errorf("golden trace context: round=%q epoch=%q origin=%d", f.Round, f.Epoch, f.Origin)
		}
		dests, msgs, err := netbus.DecodeMsgBatchBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(dests) != "[[P2 P3] [P3]]" || len(msgs) != 2 {
			t.Fatalf("golden entries: destinations %q, %d messages; want [[P2 P3] [P3]] and 2", dests, len(msgs))
		}
		checkGoldenMsg(t, msgs[0])
		if m := msgs[1]; m.From != "P2" || m.Nonce != 8 || string(m.Env.Payload) != `{"bid":2,"proc":"P2"}` {
			t.Errorf("golden second message %+v", m)
		}
	})

	// The v3, v2 and v1 goldens are decode-only: the encoder emits v4
	// now, and these pin that frames from older drivers still parse.
	t.Run("v3 traced multi", func(t *testing.T) {
		f, err := netbus.DecodeFrame(goldens[1])
		if err != nil {
			t.Fatalf("v3 golden no longer decodes — backward compatibility broken: %v", err)
		}
		if f.Version != 3 || f.Type != netbus.FtMsgMulti || f.Nonce != 0xC0FFEE || f.Node != "serve" {
			t.Errorf("v3 golden header %+v, want v3 FtMsgMulti nonce=0xC0FFEE node=serve", f)
		}
		if f.Round != "s1:r1" || f.Epoch != "s1:r1" || f.Origin != 7 {
			t.Errorf("v3 golden trace context: round=%q epoch=%q origin=%d", f.Round, f.Epoch, f.Origin)
		}
		dests, m, err := netbus.DecodeMsgMultiBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(dests) != 2 || dests[0] != "P2" || dests[1] != "P3" {
			t.Errorf("v3 golden destinations %q, want [P2 P3]", dests)
		}
		checkGoldenMsg(t, m)
	})

	t.Run("v2 traced", func(t *testing.T) {
		f, err := netbus.DecodeFrame(goldens[2])
		if err != nil {
			t.Fatalf("v2 golden no longer decodes — backward compatibility broken: %v", err)
		}
		if f.Version != 2 || f.Type != netbus.FtMsg || f.Flags != netbus.FlagTrace || f.Nonce != 0xC0FFEE || f.Node != "w1" {
			t.Errorf("v2 golden header %+v, want traced v2 FtMsg nonce=0xC0FFEE node=w1", f)
		}
		if f.Round != "s1:r1" || f.Epoch != "s1:r1" || f.Origin != 7 {
			t.Errorf("v2 golden trace context: round=%q epoch=%q origin=%d", f.Round, f.Epoch, f.Origin)
		}
		checkGoldenBody(t, f.Body)
	})

	t.Run("v1 legacy", func(t *testing.T) {
		f, err := netbus.DecodeFrame(goldens[3])
		if err != nil {
			t.Fatalf("legacy golden no longer decodes — backward compatibility broken: %v", err)
		}
		if f.Version != netbus.VersionLegacy || f.Type != netbus.FtMsg || f.Flags != 0 || f.Nonce != 0xC0FFEE || f.Node != "w1" {
			t.Errorf("legacy header %+v, want v1 FtMsg nonce=0xC0FFEE node=w1", f)
		}
		if f.Round != "" || f.Epoch != "" || f.Origin != 0 {
			t.Errorf("legacy frame grew trace context: %+v", f)
		}
		checkGoldenBody(t, f.Body)
	})
}

// checkGoldenBody pins the documented FtMsg body fields, shared by the
// v2 and v1 goldens (the trace context does not alter the body
// encoding).
func checkGoldenBody(t *testing.T, body []byte) {
	t.Helper()
	dest, m, err := netbus.DecodeMsgBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if dest != "P1" {
		t.Errorf("golden destination %q, want P1", dest)
	}
	checkGoldenMsg(t, m)
}

// checkGoldenMsg pins the documented message, shared by every golden.
func checkGoldenMsg(t *testing.T, m bus.Message) {
	t.Helper()
	if m.From != "P1" || m.To != "*" || m.Kind != "dls/bid" || m.Nonce != 7 {
		t.Errorf("golden message %+v", m)
	}
	if string(m.Env.Payload) != `{"bid":1.5,"proc":"P1"}` {
		t.Errorf("golden payload %q", m.Env.Payload)
	}
}
