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
// docs/WIRE.md, in document order — the normative golden frames.
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

// TestWireGoldenBytes keeps docs/WIRE.md honest: the version-4 golden
// frame embedded in the spec must be byte-identical to what the encoder
// produces for the documented inputs and must decode back to them.
func TestWireGoldenBytes(t *testing.T) {
	goldens := goldenHexFromDoc(t)
	if len(goldens) != 1 {
		t.Fatalf("docs/WIRE.md has %d ```hex fences, want 1 (v4)", len(goldens))
	}
	msg := goldenBid(t, "P1", 42, 1.5, 7)

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
		if f.Round != "s1:r1" || f.Epoch != "s1:r1" {
			t.Errorf("golden trace context: round=%q epoch=%q", f.Round, f.Epoch)
		}
		dests, msgs, err := netbus.DecodeMsgBatchBody(f.Body)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(dests) != "[[P2 P3] [P3]]" || len(msgs) != 2 {
			t.Fatalf("golden entries: destinations %q, %d messages; want [[P2 P3] [P3]] and 2", dests, len(msgs))
		}
		if m := msgs[0]; m.From != "P1" || m.To != "*" || m.Kind != "dls/bid" || m.Nonce != 7 ||
			string(m.Env.Payload) != `{"bid":1.5,"proc":"P1"}` {
			t.Errorf("golden first message %+v", m)
		}
		if m := msgs[1]; m.From != "P2" || m.Nonce != 8 || string(m.Env.Payload) != `{"bid":2,"proc":"P2"}` {
			t.Errorf("golden second message %+v", m)
		}
	})
}
