package referee

import (
	"fmt"

	"dlsbl/internal/sig"
)

// Envelope kinds and payload types for every signed message the protocol
// exchanges. They live here because the referee is the arbiter of their
// validity; the protocol package reuses them.

// Message kinds, one per protocol artifact.
const (
	KindBid           = "dls/bid"            // Bidding phase broadcast
	KindBidVector     = "dls/bid-vector"     // vector submitted to the referee on a claim
	KindPayment       = "dls/payment"        // Computing Payments submission
	KindMeters        = "dls/meters"         // referee's meter broadcast
	KindClaim         = "dls/claim"          // misallocation claim
	KindWitnessReport = "dls/witness-report" // unreachability report against a bidder
	KindAuditReplica  = "dls/audit-replica"  // primary → standby audit-log replication
)

// BidPayload is the Bidding phase message S_Pi(b_i, P_i). Round, when
// non-empty, binds the bid to the session round it was broadcast in (its
// bid epoch): a bid-reuse session folds a fresh session-salted round ID
// into every signed artifact so the referee can tell a current-epoch bid
// from a replayed or superseded one. Standalone runs leave it empty.
type BidPayload struct {
	Proc  string  `json:"proc"`
	Bid   float64 `json:"bid"`
	Round string  `json:"round,omitempty"`
}

// BidVectorPayload is the full vector of signed bids a party submits to
// the referee when adjudicating an allocation claim. Every element is the
// original signed bid envelope; a party can only alter its own entry by
// signing a second, contradictory bid — which is equivocation evidence.
// Round binds the vector to the round it was submitted in; a vector
// captured in round j and replayed in round j+1 fails VerifyBidVector.
type BidVectorPayload struct {
	Proc  string         `json:"proc"`
	Bids  []sig.Envelope `json:"bids"`
	Round string         `json:"round,omitempty"`
}

// PaymentPayload is the Computing Payments submission S_Pi(P_i, Q).
// Round binds the submission to its round, like BidVectorPayload.Round.
type PaymentPayload struct {
	Proc  string    `json:"proc"`
	Q     []float64 `json:"q"`
	Round string    `json:"round,omitempty"`
}

// MetersPayload is the referee's broadcast of observed execution times
// (φ_1, …, φ_m) read from the tamper-proof meters.
type MetersPayload struct {
	Phi []float64 `json:"phi"`
}

// ClaimPayload is a misallocation claim raised in the Allocating Load
// phase: the claimant received Delivered blocks but expected its share of
// the allocation.
type ClaimPayload struct {
	Proc      string `json:"proc"`
	Delivered int    `json:"delivered"`
	Expected  int    `json:"expected"`
}

// WitnessReportPayload is a signed unreachability report: Witness claims
// it never received Accused's Bidding-phase broadcast within the retry
// budget. Eviction for unreachability demands matching reports from
// ≥⌈m/2⌉ DISTINCT witnesses (CorroborationThreshold), so one strategic
// processor cannot frame a rival by filing alone — an uncorroborated
// report triggers a bid relay through the referee instead, and a witness
// that maintains its claim after the verified relay is itself convicted
// (JudgeWitnessReport). Round binds the report to its session round like
// every other signed artifact.
type WitnessReportPayload struct {
	Witness string `json:"witness"`
	Accused string `json:"accused"`
	Round   string `json:"round,omitempty"`
}

// ---- Binary hot-path codec -------------------------------------------------
//
// Each hot phase payload implements sig.BinaryAppender/BinaryDecoder: a
// deterministic length-prefixed encoding behind a per-type tag byte. The
// protocol seals these payloads with sig.SealBinary, and they open only
// from that encoding — a JSON-encoded bid, bid vector, payment, meter
// reading or witness report is rejected even when correctly signed.

// Binary payload type tags.
const (
	tagBid       = 'b'
	tagBidVector = 'v'
	tagPayment   = 'p'
	tagMeters    = 'm'
	tagWitness   = 'w'
)

// AppendBinary implements sig.BinaryAppender.
func (p BidPayload) AppendBinary(dst []byte) []byte {
	dst = sig.AppendBinaryHeader(dst, tagBid)
	dst = sig.AppendString(dst, p.Proc)
	dst = sig.AppendFloat(dst, p.Bid)
	return sig.AppendString(dst, p.Round)
}

// DecodeBinary implements sig.BinaryDecoder.
func (p *BidPayload) DecodeBinary(src []byte) error {
	r := sig.NewBinReader(src, tagBid)
	r.StringInto(&p.Proc)
	p.Bid = r.Float()
	r.StringInto(&p.Round)
	return r.Close()
}

// AppendBinary implements sig.BinaryAppender.
func (p BidVectorPayload) AppendBinary(dst []byte) []byte {
	dst = sig.AppendBinaryHeader(dst, tagBidVector)
	dst = sig.AppendString(dst, p.Proc)
	dst = sig.AppendUvarint(dst, uint64(len(p.Bids)))
	for _, e := range p.Bids {
		dst = e.AppendBinary(dst)
	}
	return sig.AppendString(dst, p.Round)
}

// DecodeBinary implements sig.BinaryDecoder.
func (p *BidVectorPayload) DecodeBinary(src []byte) error {
	r := sig.NewBinReader(src, tagBidVector)
	r.StringInto(&p.Proc)
	n := r.Uvarint()
	if n > uint64(len(src)) { // each envelope takes ≥4 bytes; cheap sanity bound
		return fmt.Errorf("%w: bid vector length %d", sig.ErrBinaryPayload, n)
	}
	if uint64(cap(p.Bids)) < n {
		p.Bids = make([]sig.Envelope, n)
	}
	p.Bids = p.Bids[:n]
	for i := range p.Bids {
		r.DecodeEnvelope(&p.Bids[i])
	}
	r.StringInto(&p.Round)
	return r.Close()
}

// AppendBinary implements sig.BinaryAppender.
func (p PaymentPayload) AppendBinary(dst []byte) []byte {
	dst = sig.AppendBinaryHeader(dst, tagPayment)
	dst = sig.AppendString(dst, p.Proc)
	dst = sig.AppendFloats(dst, p.Q)
	return sig.AppendString(dst, p.Round)
}

// DecodeBinary implements sig.BinaryDecoder.
func (p *PaymentPayload) DecodeBinary(src []byte) error {
	r := sig.NewBinReader(src, tagPayment)
	r.StringInto(&p.Proc)
	r.FloatsInto(&p.Q)
	r.StringInto(&p.Round)
	return r.Close()
}

// AppendBinary implements sig.BinaryAppender.
func (p MetersPayload) AppendBinary(dst []byte) []byte {
	dst = sig.AppendBinaryHeader(dst, tagMeters)
	return sig.AppendFloats(dst, p.Phi)
}

// DecodeBinary implements sig.BinaryDecoder.
func (p *MetersPayload) DecodeBinary(src []byte) error {
	r := sig.NewBinReader(src, tagMeters)
	r.FloatsInto(&p.Phi)
	return r.Close()
}

// AppendBinary implements sig.BinaryAppender.
func (p WitnessReportPayload) AppendBinary(dst []byte) []byte {
	dst = sig.AppendBinaryHeader(dst, tagWitness)
	dst = sig.AppendString(dst, p.Witness)
	dst = sig.AppendString(dst, p.Accused)
	return sig.AppendString(dst, p.Round)
}

// DecodeBinary implements sig.BinaryDecoder.
func (p *WitnessReportPayload) DecodeBinary(src []byte) error {
	r := sig.NewBinReader(src, tagWitness)
	r.StringInto(&p.Witness)
	r.StringInto(&p.Accused)
	r.StringInto(&p.Round)
	return r.Close()
}
