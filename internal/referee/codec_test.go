package referee

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"dlsbl/internal/sig"
)

// codecPayloads returns one representative value per hot-path payload
// type, including the awkward cases: empty strings, empty slices, NaN-free
// negative and subnormal floats, and a nested envelope.
func codecPayloads() []any {
	return []any{
		BidPayload{Proc: "P1", Bid: 1.5, Round: "s01:r3"},
		BidPayload{}, // zero value: empty strings, zero bid
		PaymentPayload{Proc: "P2", Q: []float64{0.25, -1, 5e-324}, Round: "s01:r3"},
		PaymentPayload{Proc: "P2"}, // no q at all
		MetersPayload{Phi: []float64{0.125, 2.5, 3.75}},
		BidVectorPayload{
			Proc: "P1",
			Bids: []sig.Envelope{
				{Sender: "P1", Kind: KindBid, Payload: []byte(`{"proc":"P1"}`), Signature: []byte{1, 2}},
				{Sender: "P2", Kind: KindBid, Payload: []byte{0xD1, 1, 'b'}, Signature: []byte{3}},
			},
			Round: "s01:r3",
		},
	}
}

// roundTrip encodes v with the binary codec and decodes into a fresh
// value of the same type, returning the decode result as an interface.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	enc := v.(sig.BinaryAppender).AppendBinary(nil)
	out := reflect.New(reflect.TypeOf(v))
	if err := out.Interface().(sig.BinaryDecoder).DecodeBinary(enc); err != nil {
		t.Fatalf("%T: decode: %v", v, err)
	}
	return out.Elem().Interface()
}

// TestBinaryCodecRoundTrip pins the binary codec against the JSON codec:
// every hot-path payload round-trips bit-exactly (floats via their
// IEEE-754 bit patterns), and the two codecs agree on the decoded value.
func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, v := range codecPayloads() {
		got := roundTrip(t, v)
		if !payloadEqual(v, got) {
			t.Errorf("%T binary round trip:\n got %+v\nwant %+v", v, got, v)
		}

		// JSON agreement: marshaling the original and the binary round
		// trip must produce identical documents.
		a, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%T: JSON disagrees after binary round trip:\n got %s\nwant %s", v, b, a)
		}
	}
}

// payloadEqual compares payloads, treating nil and empty slices as equal
// (the decoder reuses capacity, so an empty slice decodes as empty, not
// nil — JSON output is identical either way except for q, which both
// codecs preserve as present-and-empty).
func payloadEqual(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}

// signer returns P1's keypair and a registry holding it.
func signer(t *testing.T) (*sig.KeyPair, *sig.Registry) {
	t.Helper()
	k, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := sig.NewRegistry()
	if err := reg.Register("P1", k.Public); err != nil {
		t.Fatal(err)
	}
	return k, reg
}

// binaryPayloadCase is one payload type with a binary codec: its message
// kind and a representative value.
type binaryPayloadCase struct {
	kind string
	want sig.BinaryAppender
}

// binaryPayloadCases returns one value of each of the five payload types
// with a binary codec; the bid vector carries a bid sealed by k.
func binaryPayloadCases(t *testing.T, k *sig.KeyPair) []binaryPayloadCase {
	t.Helper()
	bid, err := sig.SealBinary(k, KindBid, BidPayload{Proc: "P1", Bid: 2.25, Round: "s9:r1"})
	if err != nil {
		t.Fatal(err)
	}
	return []binaryPayloadCase{
		{KindBid, BidPayload{Proc: "P1", Bid: 2.25, Round: "s9:r1"}},
		{KindBidVector, BidVectorPayload{Proc: "P1", Bids: []sig.Envelope{bid}, Round: "s9:r1"}},
		{KindPayment, PaymentPayload{Proc: "P1", Q: []float64{0.5, -0.25}, Round: "s9:r1"}},
		{KindMeters, MetersPayload{Phi: []float64{1.5, 2.75}}},
		{KindWitnessReport, WitnessReportPayload{Witness: "P1", Accused: "P2", Round: "s9:r1"}},
	}
}

// TestBinaryCodecSelfDescribing checks that a binary payload names its
// own type: each binary-sealed payload opens through Envelope.Open with
// no codec configuration on the receiving side, and the type tag in its
// header makes every other payload type refuse it.
func TestBinaryCodecSelfDescribing(t *testing.T) {
	k, reg := signer(t)
	cases := binaryPayloadCases(t, k)
	for _, tc := range cases {
		env, err := sig.SealBinary(k, tc.kind, tc.want)
		if err != nil {
			t.Fatal(err)
		}
		for _, into := range cases {
			got := reflect.New(reflect.TypeOf(into.want))
			err := env.Open(reg, got.Interface())
			if into.kind != tc.kind {
				if !errors.Is(err, sig.ErrBinaryPayload) {
					t.Errorf("%s payload opened as %s: err = %v, want ErrBinaryPayload", tc.kind, into.kind, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: open: %v", tc.kind, err)
			} else if v := got.Elem().Interface(); !payloadEqual(v, tc.want) {
				t.Errorf("%s: got %+v, want %+v", tc.kind, v, tc.want)
			}
		}
	}
}

// TestPayloadDecodingFailsClosed: every payload type with a binary codec
// opens from its binary encoding and from nothing else. A JSON encoding
// of the same value, correctly signed by a registered key, must still be
// rejected by Envelope.Open and by a BatchVerifier — and rejected at
// decoding, after the signature checked out.
func TestPayloadDecodingFailsClosed(t *testing.T) {
	k, reg := signer(t)
	for _, tc := range binaryPayloadCases(t, k) {
		t.Run(tc.kind, func(t *testing.T) {
			// fresh returns a pointer to a new zero value of the case's type.
			fresh := func() any { return reflect.New(reflect.TypeOf(tc.want)).Interface() }
			opens := []struct {
				name string
				open func(env sig.Envelope, v any) error
			}{
				{"Envelope.Open", func(env sig.Envelope, v any) error { return env.Open(reg, v) }},
				{"BatchVerifier.Open", func(env sig.Envelope, v any) error {
					return sig.NewBatchVerifier(reg, nil).Open(&env, v)
				}},
			}

			bin, err := sig.SealBinary(k, tc.kind, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			js, err := sig.Seal(k, tc.kind, tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if err := js.Verify(reg); err != nil {
				t.Fatalf("JSON envelope is not correctly signed: %v", err)
			}
			for _, o := range opens {
				got := fresh()
				if err := o.open(bin, got); err != nil {
					t.Fatalf("%s of the binary encoding: %v", o.name, err)
				}
				if v := reflect.ValueOf(got).Elem().Interface(); !payloadEqual(v, tc.want) {
					t.Errorf("%s: got %+v, want %+v", o.name, v, tc.want)
				}
				if err := o.open(js, fresh()); !errors.Is(err, sig.ErrBinaryPayload) {
					t.Errorf("%s of a signed JSON encoding: err = %v, want ErrBinaryPayload", o.name, err)
				}
			}
		})
	}
}

// TestBinaryCodecRejectsMalformed checks the decoder's strictness: a
// wrong type tag, a truncated body and trailing garbage all error instead
// of decoding something plausible.
func TestBinaryCodecRejectsMalformed(t *testing.T) {
	enc := BidPayload{Proc: "P1", Bid: 1.5}.AppendBinary(nil)

	var p PaymentPayload
	if err := p.DecodeBinary(enc); err == nil {
		t.Error("bid payload decoded under the payment tag")
	}
	var b BidPayload
	if err := b.DecodeBinary(enc[:len(enc)-3]); err == nil {
		t.Error("truncated payload decoded")
	}
	if err := b.DecodeBinary(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestBinaryCodecAllocs is the CI allocs guard for the codec half of the
// envelope hot path: encoding into a warm buffer and decoding into a warm
// struct must both be allocation-free.
func TestBinaryCodecAllocs(t *testing.T) {
	bid := BidPayload{Proc: "P1", Bid: 1.5, Round: "s01:r3"}
	pay := PaymentPayload{Proc: "P1", Q: []float64{0.25, 0.5, 0.25}, Round: "s01:r3"}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf = bid.AppendBinary(buf[:0])
		buf = pay.AppendBinary(buf[:0])
	}); n != 0 {
		t.Errorf("AppendBinary into a warm buffer: %v allocs/op, want 0", n)
	}

	bidEnc := bid.AppendBinary(nil)
	payEnc := pay.AppendBinary(nil)
	var gotBid BidPayload
	var gotPay PaymentPayload
	// Warm the targets once so strings and slices have their capacity.
	if err := gotBid.DecodeBinary(bidEnc); err != nil {
		t.Fatal(err)
	}
	if err := gotPay.DecodeBinary(payEnc); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := gotBid.DecodeBinary(bidEnc); err != nil {
			t.Fatal(err)
		}
		if err := gotPay.DecodeBinary(payEnc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeBinary into a warm struct: %v allocs/op, want 0", n)
	}
}
