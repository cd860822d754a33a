package sig

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// binPayload is a minimal payload implementing both halves of the binary
// codec, exercising every primitive (string, bytes, float, float slice,
// nested envelope).
type binPayload struct {
	Name string     `json:"name"`
	Blob []byte     `json:"blob,omitempty"`
	X    float64    `json:"x"`
	Xs   []float64  `json:"xs,omitempty"`
	Env  []Envelope `json:"env,omitempty"`
}

const binPayloadTag = 't'

func (p binPayload) AppendBinary(dst []byte) []byte {
	dst = AppendBinaryHeader(dst, binPayloadTag)
	dst = AppendString(dst, p.Name)
	dst = AppendBytes(dst, p.Blob)
	dst = AppendFloat(dst, p.X)
	dst = AppendFloats(dst, p.Xs)
	dst = AppendUvarint(dst, uint64(len(p.Env)))
	for _, e := range p.Env {
		dst = e.AppendBinary(dst)
	}
	return dst
}

func (p *binPayload) DecodeBinary(src []byte) error {
	r := NewBinReader(src, binPayloadTag)
	r.StringInto(&p.Name)
	r.BytesInto(&p.Blob)
	p.X = r.Float()
	r.FloatsInto(&p.Xs)
	n := r.Uvarint()
	if r.Err() != nil {
		return r.Err()
	}
	p.Env = p.Env[:0]
	for i := uint64(0); i < n; i++ {
		var e Envelope
		r.DecodeEnvelope(&e)
		p.Env = append(p.Env, e)
	}
	return r.Close()
}

// TestBinReaderRejects covers every decoder error branch: bad header,
// truncated and non-minimal varints, over-long lengths, oversized float
// counts, and trailing bytes.
func TestBinReaderRejects(t *testing.T) {
	good := binPayload{Name: "n", X: 1}.AppendBinary(nil)
	cases := []struct {
		name string
		src  []byte
	}{
		{"empty", nil},
		{"short", []byte{binaryMagic, binaryVersion}},
		{"wrong magic", append([]byte{'{'}, good[1:]...)},
		{"wrong version", append([]byte{binaryMagic, 99}, good[2:]...)},
		{"wrong tag", append([]byte{binaryMagic, binaryVersion, 'z'}, good[3:]...)},
		{"truncated varint", append(AppendBinaryHeader(nil, binPayloadTag), 0x80)},
		{"non-minimal varint", append(AppendBinaryHeader(nil, binPayloadTag), 0x80, 0x00)},
		{"length beyond buffer", append(AppendBinaryHeader(nil, binPayloadTag), 0x20, 'x')},
		{"truncated float", good[:len(good)-10]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
	}
	for _, c := range cases {
		var p binPayload
		if err := p.DecodeBinary(c.src); !errors.Is(err, ErrBinaryPayload) {
			t.Errorf("%s: err = %v, want ErrBinaryPayload", c.name, err)
		}
	}

	// Oversized float count: claims more floats than bytes remain.
	src := AppendBytes(AppendString(AppendBinaryHeader(nil, binPayloadTag), "n"), nil)
	src = AppendFloat(src, 0)       // X
	src = AppendUvarint(src, 1<<40) // Xs count, absurd
	var p binPayload
	if err := p.DecodeBinary(src); !errors.Is(err, ErrBinaryPayload) {
		t.Errorf("oversized float count: err = %v, want ErrBinaryPayload", err)
	}

	// Errors stick: reads after a failure return zero values.
	r := NewBinReader([]byte{binaryMagic, binaryVersion, binPayloadTag, 0x80}, binPayloadTag)
	if r.Uvarint() != 0 || r.Float() != 0 {
		t.Error("reads after an error returned nonzero values")
	}
	var s string
	r.StringInto(&s)
	var b []byte
	r.BytesInto(&b)
	var xs []float64
	r.FloatsInto(&xs)
	if s != "" || b != nil || xs != nil || r.Err() == nil || r.Close() == nil {
		t.Error("error did not stick through typed reads")
	}
}

// TestBinReaderWarmReuse checks the allocation-free reuse contracts:
// StringInto keeps the existing string when unchanged, BytesInto and
// FloatsInto reuse capacity.
func TestBinReaderWarmReuse(t *testing.T) {
	want := binPayload{Name: strings.Repeat("n", 32), Blob: []byte{1, 2}, X: math.Inf(-1), Xs: []float64{1, 2, 3}}
	enc := want.AppendBinary(nil)
	var got binPayload
	if err := got.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	blob, xs := &got.Blob[0], &got.Xs[0]
	if err := got.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}
	if &got.Blob[0] != blob || &got.Xs[0] != xs {
		t.Error("warm decode reallocated a slice it could have reused")
	}
	if got.Name != want.Name || math.Float64bits(got.X) != math.Float64bits(want.X) {
		t.Errorf("warm decode mutated values: %+v", got)
	}
}

// testIdentity generates a keypair and a registry holding it.
func testIdentity(t *testing.T, id string) (*KeyPair, *Registry) {
	t.Helper()
	k, err := GenerateKeyPair(id, DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register(id, k.Public); err != nil {
		t.Fatal(err)
	}
	return k, reg
}

// TestSealCodecRoundTrip seals a payload with its binary codec and opens
// it with no codec configuration on the receiving side. The sealed
// payload is exactly the value's AppendBinary encoding, so it starts
// with the codec magic and resealing yields the same envelope.
func TestSealCodecRoundTrip(t *testing.T) {
	k, reg := testIdentity(t, "P1")
	want := binPayload{
		Name: "alpha",
		Blob: []byte{1, 2, 3},
		X:    -2.5,
		Xs:   []float64{0.25, 5e-324},
		Env:  []Envelope{{Sender: "P2", Kind: "bid", Payload: []byte("{}"), Signature: []byte{9}}},
	}
	env, err := SealBinary(k, "test", want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Payload, want.AppendBinary(nil)) || env.Payload[0] != binaryMagic {
		t.Errorf("sealed payload % x is not the binary encoding", env.Payload)
	}
	again, err := SealBinary(k, "test", want)
	if err != nil {
		t.Fatal(err)
	}
	if !env.Equal(again) {
		t.Error("resealing an equal value changed the envelope")
	}
	var got binPayload
	if err := env.Open(reg, &got); err != nil {
		t.Fatalf("open: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

// TestBatchVerifierOpen covers the memoized open-and-decode path plus
// equivocation judgment through the batch verifier. A nil memo still
// memoizes: the verifier gets a fresh memo of its own.
func TestBatchVerifierOpen(t *testing.T) {
	k, reg := testIdentity(t, "P1")
	bv := NewBatchVerifier(reg, nil)

	want := binPayload{
		Name: "alpha",
		Blob: []byte{1, 2, 3},
		X:    -2.5,
		Xs:   []float64{0.25, 5e-324},
		Env:  []Envelope{{Sender: "P2", Kind: "bid", Payload: []byte{binaryMagic}, Signature: []byte{9}}},
	}
	env, err := SealBinary(k, "test", want)
	if err != nil {
		t.Fatal(err)
	}
	var got binPayload
	if err := bv.Open(&env, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if err := bv.Open(&env, &got); err != nil { // memo hit this time
		t.Fatal(err)
	}
	if s := bv.Stats(); s.MemoHits == 0 {
		t.Errorf("no memo hit recorded: %+v", s)
	}
	js, err := Seal(k, "test", want)
	if err != nil {
		t.Fatal(err)
	}
	if err := bv.Open(&js, &got); !errors.Is(err, ErrBinaryPayload) {
		t.Errorf("JSON encoding of a binary-codec type: %v, want ErrBinaryPayload", err)
	}
	bad := env
	bad.Payload = append([]byte(nil), env.Payload...)
	bad.Payload[len(bad.Payload)-1] ^= 1
	if err := bv.Open(&bad, &got); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered open: %v", err)
	}

	other, err := SealBinary(k, "test", binPayload{Name: "y", X: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bv.IsEquivocation(env, other) {
		t.Error("two signed payloads under one kind not judged equivocation")
	}
	if bv.IsEquivocation(env, env) {
		t.Error("identical envelopes judged equivocation")
	}
	if bv.IsEquivocation(env, bad) {
		t.Error("tampered envelope judged equivocation")
	}

	if err := bv.VerifyAll([]Envelope{env, other, env}); err != nil {
		t.Errorf("VerifyAll over valid profile: %v", err)
	}
	if err := bv.VerifyAll([]Envelope{env, bad}); !errors.Is(err, ErrBadSignature) {
		t.Errorf("VerifyAll over tampered profile: %v", err)
	}
}
