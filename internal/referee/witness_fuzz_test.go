package referee

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzWitnessReport hammers the WitnessReportPayload codec with hostile
// bytes — the witness report is the one message an adversary crafts to
// get a rival evicted, so its decoder must be total (no panics), its
// canonical encoding must be a fixpoint, and the binary codec must agree
// with encoding/json — kept here only as a differential oracle — on
// every representable payload.
func FuzzWitnessReport(f *testing.F) {
	// A valid encoding: header (magic, version, tag 'w'), then the three
	// uvarint-length-prefixed strings Witness="P1", Accused="P2", Round="".
	f.Add([]byte("\xd1\x01w\x02P1\x02P2\x00"))
	f.Add([]byte("\xd1\x01w"))                 // bare header, no fields
	f.Add([]byte("\xd1\x01w\xff\xff\xff\xff")) // hostile length prefix
	f.Add([]byte(`{"witness":"P1","accused":"P2","round":"s:r1"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Arm 1: raw bytes through the binary decoder. Any input may be
		// rejected, but none may panic, and anything accepted must
		// re-encode canonically to a decode fixpoint.
		var p WitnessReportPayload
		if err := p.DecodeBinary(data); err == nil {
			enc := p.AppendBinary(nil)
			var q WitnessReportPayload
			if err := q.DecodeBinary(enc); err != nil {
				t.Fatalf("canonical re-encoding does not decode: %v\nenc=%x", err, enc)
			}
			if q != p {
				t.Fatalf("decode(encode(p)) = %+v, want %+v", q, p)
			}
			if !bytes.Equal(q.AppendBinary(nil), enc) {
				t.Fatalf("canonical encoding is not a fixpoint: %x vs %x", q.AppendBinary(nil), enc)
			}
			// Differential: the JSON codec must round-trip the same
			// payload to the same value (strings only, so no NaN/Inf or
			// invalid-UTF-8 JSON escaping concerns beyond validity).
			if utf8.ValidString(p.Witness) && utf8.ValidString(p.Accused) && utf8.ValidString(p.Round) {
				js, err := json.Marshal(p)
				if err != nil {
					t.Fatalf("json encode of decoded payload: %v", err)
				}
				var r WitnessReportPayload
				if err := json.Unmarshal(js, &r); err != nil {
					t.Fatalf("json round-trip: %v", err)
				}
				if r != p {
					t.Fatalf("json differential: %+v vs %+v", r, p)
				}
			}
		}

		// Arm 2: the same bytes as JSON. A payload the JSON codec accepts
		// must survive a trip through the binary codec unchanged.
		var j WitnessReportPayload
		if err := json.Unmarshal(data, &j); err == nil {
			var back WitnessReportPayload
			if err := back.DecodeBinary(j.AppendBinary(nil)); err != nil {
				t.Fatalf("binary round-trip of JSON payload: %v", err)
			}
			if back != j {
				t.Fatalf("json→binary differential: %+v vs %+v", back, j)
			}
		}
	})
}
