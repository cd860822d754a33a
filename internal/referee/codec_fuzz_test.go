package referee

import (
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"

	"dlsbl/internal/sig"
)

// FuzzPayloadCodec differentially fuzzes the binary codec against
// encoding/json, which survives here only as an oracle (envelopes of
// these types never carry JSON): for arbitrary payload fields, both
// encodings must decode back to the same value (bit-exact floats
// included), and arbitrary bytes fed to the binary decoder must error or
// decode — never panic, never round-trip to different bytes.
func FuzzPayloadCodec(f *testing.F) {
	f.Add("P1", 1.5, "s01:r3", []byte(nil))
	f.Add("", 0.0, "", []byte{0xD1, 1, 'b'})
	f.Add("P2", math.Inf(1), "r", []byte{0xD1, 1, 'p', 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, proc string, bid float64, round string, raw []byte) {
		// NaN breaks value equality (and encoding/json rejects it), so
		// canonicalize while keeping every other bit pattern, ±Inf
		// included... which json also rejects; the binary codec handles
		// both, so compare those arms by bits instead of via JSON.
		bids := BidPayload{Proc: proc, Bid: bid, Round: round}
		enc := bids.AppendBinary(nil)
		var got BidPayload
		if err := got.DecodeBinary(enc); err != nil {
			t.Fatalf("self-encoded bid failed to decode: %v", err)
		}
		if got.Proc != bids.Proc || got.Round != bids.Round ||
			math.Float64bits(got.Bid) != math.Float64bits(bids.Bid) {
			t.Fatalf("binary round trip: got %+v, want %+v", got, bids)
		}

		pay := PaymentPayload{Proc: proc, Q: []float64{bid, -bid, 0.25}, Round: round}
		pEnc := pay.AppendBinary(nil)
		var gotPay PaymentPayload
		if err := gotPay.DecodeBinary(pEnc); err != nil {
			t.Fatalf("self-encoded payment failed to decode: %v", err)
		}
		for i := range pay.Q {
			if math.Float64bits(gotPay.Q[i]) != math.Float64bits(pay.Q[i]) {
				t.Fatalf("payment q[%d]: %x != %x", i, gotPay.Q[i], pay.Q[i])
			}
		}

		// JSON agreement arm, for values JSON can carry at all: json
		// rejects NaN/±Inf and rewrites invalid UTF-8 to U+FFFD, while
		// the binary codec preserves every bit — so compare only where
		// JSON is lossless.
		if !math.IsNaN(bid) && !math.IsInf(bid, 0) &&
			utf8.ValidString(proc) && utf8.ValidString(round) {
			jb, err := json.Marshal(bids)
			if err != nil {
				t.Fatalf("json marshal: %v", err)
			}
			var viaJSON BidPayload
			if err := json.Unmarshal(jb, &viaJSON); err != nil {
				t.Fatalf("json unmarshal: %v", err)
			}
			if viaJSON != got {
				t.Fatalf("codecs disagree: json %+v, binary %+v", viaJSON, got)
			}
		}

		// Hostile-input arm: arbitrary bytes must decode or error, and a
		// successful decode must re-encode to the identical bytes (the
		// codec admits exactly one encoding per value).
		var hostile BidPayload
		if err := hostile.DecodeBinary(raw); err == nil {
			if re := hostile.AppendBinary(nil); string(re) != string(raw) {
				t.Fatalf("non-canonical encoding accepted: %x re-encodes to %x", raw, re)
			}
		}
		var hostileVec BidVectorPayload
		_ = hostileVec.DecodeBinary(raw)
		var hostileMeters MetersPayload
		_ = hostileMeters.DecodeBinary(raw)
	})
}

var _ = sig.ErrBinaryPayload // keep the import honest if arms change
