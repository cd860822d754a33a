package netbus

import (
	"reflect"
	"testing"
	"unsafe"

	"dlsbl/internal/bus"
)

// drainEntry is one entry of a node-drain reply.
type drainEntry struct {
	endpoint string
	seq      uint64
	msg      bus.Message
}

// flattenParts lists the oracle's runs entry by entry.
func flattenParts(parts []drainPart) []drainEntry {
	var out []drainEntry
	for _, p := range parts {
		for _, sm := range p.batch {
			out = append(out, drainEntry{p.endpoint, sm.Seq, sm.Msg})
		}
	}
	return out
}

// entries lists the decoded reply entry by entry.
func (d *drainReply) entries() []drainEntry {
	var out []drainEntry
	for _, run := range d.runs {
		for i := run.lo; i < run.hi; i++ {
			out = append(out, drainEntry{run.endpoint, d.seqs[i], *d.msgs[i]})
		}
	}
	return out
}

// parts regroups the decoded reply as appendDrainNodeRspFrame takes it.
func (d *drainReply) parts() []drainPart {
	var parts []drainPart
	for _, run := range d.runs {
		p := drainPart{endpoint: run.endpoint}
		for i := run.lo; i < run.hi; i++ {
			p.batch = append(p.batch, SeqMsg{Seq: d.seqs[i], Msg: *d.msgs[i]})
		}
		parts = append(parts, p)
	}
	return parts
}

// decodedAddrs returns the addresses of the memory a decoded message
// owns: its non-empty byte slices and its strings of two bytes or more
// (Go hands out one-byte strings from a shared table).
func decodedAddrs(m bus.Message) []uintptr {
	var addrs []uintptr
	for _, s := range []string{m.From, m.To, m.Kind, m.Env.Sender, m.Env.Kind} {
		if len(s) >= 2 {
			addrs = append(addrs, uintptr(unsafe.Pointer(unsafe.StringData(s))))
		}
	}
	for _, b := range [][]byte{m.Env.Payload, m.Env.Signature} {
		if len(b) > 0 {
			addrs = append(addrs, uintptr(unsafe.Pointer(unsafe.SliceData(b))))
		}
	}
	return addrs
}

// checkDrainDecode decodes a node-drain reply body with drainReply and
// with the per-entry oracle. It fails unless both accept or both reject
// the body, both yield the same (endpoint, seq, message) sequence, and
// two entries share decoded memory exactly when their message encodings
// are byte-identical. It returns the reply, or nil for a rejected body.
func checkDrainDecode(t *testing.T, body []byte) *drainReply {
	t.Helper()
	parts, oerr := decodeDrainNodeRspBody(body)
	d := new(drainReply)
	if err := d.decode(body); (err == nil) != (oerr == nil) {
		t.Fatalf("drainReply.decode error %v, oracle error %v", err, oerr)
	} else if err != nil {
		return nil
	}
	got, want := d.entries(), flattenParts(parts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drainReply decoded\n %+v\nthe oracle\n %+v", got, want)
	}
	holder := map[uintptr]string{} // decoded memory → the encoding it was decoded from
	first := map[string]int{}      // encoding → its first entry
	for i, e := range got {
		enc := string(appendMessage(nil, e.msg))
		addrs := decodedAddrs(e.msg)
		for _, a := range addrs {
			if h, ok := holder[a]; ok && h != enc {
				t.Fatalf("entry %d shares decoded memory with a copy encoded differently", i)
			}
			holder[a] = enc
		}
		if j, ok := first[enc]; !ok {
			first[enc] = i
		} else if !reflect.DeepEqual(addrs, decodedAddrs(got[j].msg)) {
			t.Fatalf("entry %d is byte-identical to entry %d but decoded on its own", i, j)
		}
	}
	return d
}

// threeCopies returns a node-drain reply body in which one bid sits in
// the mailboxes of P1, P2 and P3, with edit applied to P2's copy.
func threeCopies(t *testing.T, msg bus.Message, edit func(*bus.Message)) []byte {
	t.Helper()
	second := msg
	second.Env.Signature = append([]byte(nil), msg.Env.Signature...)
	edit(&second)
	frame := appendDrainNodeRspFrame(nil, 14, "w1", []drainPart{
		{"P1", []SeqMsg{{Seq: 1, Msg: msg}}},
		{"P2", []SeqMsg{{Seq: 1, Msg: second}}},
		{"P3", []SeqMsg{{Seq: 1, Msg: msg}}},
	}, false)
	f, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	return f.Body
}

// TestDrainSharesOnlyIdenticalCopies pins the sharing rule of a
// node-drain decode: copies byte-identical to an earlier copy point to
// its record, and a copy that differs in any byte, such as a corrupted
// signature or another To under the same nonce, is decoded into a record
// of its own, so the transport verifies it in full and discards it.
func TestDrainSharesOnlyIdenticalCopies(t *testing.T) {
	msg := sampleMsg(t)
	for _, tc := range []struct {
		name  string
		edit  func(*bus.Message)
		group []int // entries in one group share one decode
	}{
		{"one bid in three mailboxes", func(*bus.Message) {}, []int{0, 0, 0}},
		{"second copy's signature flipped", func(m *bus.Message) { m.Env.Signature[10] ^= 1 }, []int{0, 1, 0}},
		{"second copy under the same nonce to P2", func(m *bus.Message) { m.To = "P2" }, []int{0, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := checkDrainDecode(t, threeCopies(t, msg, tc.edit))
			if d == nil {
				t.Fatal("the reply was rejected")
			}
			for i := range d.msgs {
				for j := range i {
					shared := d.msgs[i] == d.msgs[j]
					if want := tc.group[i] == tc.group[j]; shared != want {
						t.Errorf("entries %d and %d share a decode: %v, want %v", j, i, shared, want)
					}
				}
			}
		})
	}
}
