package sig

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// binaryMagic is the first byte of every binary-encoded payload. No JSON
// document starts with it, so a JSON payload handed to a binary decoder
// fails the header check instead of decoding as something else.
const binaryMagic = 0xD1

// binaryVersion is the second byte; bumping it keeps old payloads
// decodable next to new ones.
const binaryVersion = 1

// BinaryAppender is implemented (on the value) by payload types that
// support the binary hot-path codec: AppendBinary appends the
// deterministic encoding (starting with binaryMagic) to dst and returns
// the extended slice.
type BinaryAppender interface {
	AppendBinary(dst []byte) []byte
}

// BinaryDecoder is the decode half (on the pointer): DecodeBinary parses
// an AppendBinary encoding, reusing the receiver's existing capacity
// where possible so steady-state decoding allocates nothing.
type BinaryDecoder interface {
	DecodeBinary(src []byte) error
}

// SealBinary encodes v with its deterministic binary codec and signs
// it. Every payload type that has a binary codec is sealed this way:
// its decoder accepts only the binary encoding (see Envelope.Open). The
// payload is encoded into a pooled buffer and copied out once, at its
// exact size.
func SealBinary(k *KeyPair, kind string, v BinaryAppender) (Envelope, error) {
	var e Envelope
	if err := sealBinaryInto(k, kind, v, &e); err != nil {
		return Envelope{}, err
	}
	return e, nil
}

// sealBinaryInto is SealBinary into e: the payload is encoded into a
// pooled buffer and copied, with the signature, into e's capacity (see
// SealInto).
func sealBinaryInto(k *KeyPair, kind string, v BinaryAppender, e *Envelope) error {
	bp := sbPool.Get().(*[]byte)
	enc := v.AppendBinary((*bp)[:0])
	err := SealInto(k, kind, enc, e)
	*bp = enc[:0]
	sbPool.Put(bp)
	return err
}

// decodePayload decodes a verified payload into v. A type with a binary
// codec decodes only from its binary encoding — a JSON payload, even a
// correctly signed one, is rejected — and every other type decodes from
// JSON.
func decodePayload(kind, sender string, payload []byte, v any) error {
	if bp, ok := v.(BinaryDecoder); ok {
		if err := bp.DecodeBinary(payload); err != nil {
			return fmt.Errorf("sig: decoding binary %s payload from %q: %w", kind, sender, err)
		}
		return nil
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("sig: unmarshaling %s payload from %q: %w", kind, sender, err)
	}
	return nil
}

// ---- Binary encoding primitives ------------------------------------------
//
// The encoding is deterministic by construction: uvarint lengths, UTF-8
// string bytes as-is, float64 as big-endian IEEE-754 bits. Equal values
// encode to equal bytes, which the verified-envelope memo and the
// equivocation rules both rely on.

// ErrBinaryPayload reports a malformed binary payload.
var ErrBinaryPayload = errors.New("sig: malformed binary payload")

// AppendBinaryHeader appends the codec magic, version and a per-type tag
// byte. Decoders check the tag so a payload of one type can never be
// silently decoded as another.
func AppendBinaryHeader(dst []byte, tag byte) []byte {
	return append(dst, binaryMagic, binaryVersion, tag)
}

// AppendUvarint appends x as an unsigned varint.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendFloat appends f as its big-endian IEEE-754 bit pattern.
func AppendFloat(dst []byte, f float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return append(dst, b[:]...)
}

// AppendFloats appends a length-prefixed float64 slice.
func AppendFloats(dst []byte, xs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, f := range xs {
		dst = AppendFloat(dst, f)
	}
	return dst
}

// BinReader is a cursor over a binary payload. The first decode error
// sticks; callers check Err once at the end instead of after every read.
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader positions a reader after the payload header, checking
// magic, version and the expected type tag. It returns a value — the
// reader lives on the decoder's stack, keeping warm decodes
// allocation-free.
func NewBinReader(src []byte, tag byte) BinReader {
	r := BinReader{buf: src}
	if len(src) < 3 || src[0] != binaryMagic {
		r.err = fmt.Errorf("%w: missing magic", ErrBinaryPayload)
		return r
	}
	if src[1] != binaryVersion {
		r.err = fmt.Errorf("%w: version %d, want %d", ErrBinaryPayload, src[1], binaryVersion)
		return r
	}
	if src[2] != tag {
		r.err = fmt.Errorf("%w: type tag %q, want %q", ErrBinaryPayload, src[2], tag)
		return r
	}
	r.off = 3
	return r
}

// Err returns the first decode error, or an error if trailing bytes
// remain unconsumed when trailing is disallowed.
func (r *BinReader) Err() error { return r.err }

// Close errors if undecoded bytes remain — a deterministic codec admits
// exactly one encoding per value.
func (r *BinReader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryPayload, len(r.buf)-r.off)
	}
	return nil
}

// Uvarint reads an unsigned varint, rejecting non-minimal encodings so
// the codec keeps its one-encoding-per-value property (equivocation
// evidence and the verified-envelope memo both compare payload bytes).
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("%w: truncated varint", ErrBinaryPayload)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.err = fmt.Errorf("%w: non-minimal varint", ErrBinaryPayload)
		return 0
	}
	r.off += n
	return x
}

// take returns the next n raw bytes.
func (r *BinReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off) {
		r.err = fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrBinaryPayload, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// StringInto reads a length-prefixed string into *s, allocating only
// when the value actually changed — reuse-round decodes into a warm
// struct are allocation-free.
func (r *BinReader) StringInto(s *string) {
	b := r.take(r.Uvarint())
	if r.err != nil {
		return
	}
	if *s != string(b) {
		*s = string(b)
	}
}

// BytesInto reads a length-prefixed byte slice into *b, reusing its
// capacity.
func (r *BinReader) BytesInto(b *[]byte) {
	src := r.take(r.Uvarint())
	if r.err != nil {
		return
	}
	*b = append((*b)[:0], src...)
}

// Float reads one big-endian IEEE-754 float64.
func (r *BinReader) Float() float64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// FloatsInto reads a length-prefixed float64 slice into *xs, reusing its
// capacity.
func (r *BinReader) FloatsInto(xs *[]float64) {
	n := r.Uvarint()
	if r.err != nil {
		return
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		r.err = fmt.Errorf("%w: float count %d exceeds remaining bytes", ErrBinaryPayload, n)
		return
	}
	out := (*xs)[:0]
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Float())
	}
	*xs = out
}

// AppendBinary encodes the envelope itself (for payloads that nest
// envelopes, like bid vectors): length-prefixed sender, kind, payload and
// signature.
func (e Envelope) AppendBinary(dst []byte) []byte {
	dst = AppendString(dst, e.Sender)
	dst = AppendString(dst, e.Kind)
	dst = AppendBytes(dst, e.Payload)
	return AppendBytes(dst, e.Signature)
}

// DecodeEnvelope reads one nested envelope from the cursor.
func (r *BinReader) DecodeEnvelope(e *Envelope) {
	r.StringInto(&e.Sender)
	r.StringInto(&e.Kind)
	r.BytesInto(&e.Payload)
	r.BytesInto(&e.Signature)
}
