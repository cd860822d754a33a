// Package agent models the strategic processors of DLS-BL-NCP. Each
// processor privately knows its true per-unit processing time and follows
// a Behavior: the honest behavior implements the mechanism faithfully,
// and each deviant behavior realizes one of the cheating avenues Section 4
// enumerates — misreported bids, contradictory bids, slowed execution,
// misallocation by the load originator, unfounded claims, and incorrect
// or contradictory payment vectors.
//
// The behaviors are pure decision rules; internal/protocol drives them
// through the phases and the referee reacts to what they produce.
package agent

import (
	"errors"
	"fmt"
	"math"

	"dlsbl/internal/sig"
)

// Behavior is a processor's strategy: a set of deviation knobs whose zero
// value (with the factors defaulted to 1 by Normalize) is the honest,
// protocol-compliant strategy.
type Behavior struct {
	// Name labels the behavior in experiment output.
	Name string

	// BidFactor scales the reported bid: b = BidFactor·w. 1 is truthful,
	// <1 overstates capacity (claims to be faster), >1 understates it.
	BidFactor float64

	// SlackFactor scales execution: w̃ = max(w, SlackFactor·w). Values
	// below 1 are physically impossible and are clamped — a processor
	// cannot run faster than its true speed.
	SlackFactor float64

	// Equivocate broadcasts a second, contradictory signed bid during the
	// Bidding phase (offense (i) of Section 4).
	Equivocate bool
	// EquivocationFactor scales the second bid relative to the first.
	EquivocationFactor float64

	// FalseEquivocationReport accuses another processor of equivocation
	// without evidence (offense (v): unsubstantiated claims).
	FalseEquivocationReport bool

	// FrameRival files an unreachability report against the next
	// processor during the Bidding phase and MAINTAINS the claim even
	// after the referee relays the rival's verified bid — the framing
	// attack against the eviction rule. Alone it can never reach the
	// ⌈m/2⌉ corroboration threshold, so the rival stays in and the
	// maintained claim convicts the framer (offense (v) again: an
	// unsubstantiated claim, held against proof).
	FrameRival bool

	// MisallocateExtraBlocks only matters when this processor is the load
	// originator: it ships this many extra blocks (positive) or withholds
	// this many (negative) from the first other processor (offense (ii)).
	MisallocateExtraBlocks int

	// RefuseMediation only matters for a short-shipping originator: it
	// refuses to transmit the missing blocks through the referee.
	RefuseMediation bool

	// TamperBlocks only matters for the originator: it corrupts the data
	// of the blocks it ships, so the user-signature integrity check
	// fails.
	TamperBlocks bool

	// FalseShortageClaim raises an α'_i < α_i claim even though delivery
	// was complete (offense (v)).
	FalseShortageClaim bool

	// FalseExcessClaim raises an α'_i > α_i claim even though delivery
	// was exactly the assignment; the referee substantiates against the
	// data set and fines the claimant (also offense (v)).
	FalseExcessClaim bool

	// WrongPaymentFactor scales this processor's own entry in the payment
	// vector it submits (offense (iii)). 1 is honest.
	WrongPaymentFactor float64

	// EquivocatePayments submits two contradictory payment vectors.
	EquivocatePayments bool

	// TamperBidVectorEntry alters this processor's own bid inside the
	// vector it submits to the referee during a claim (offense (iv)); the
	// altered entry must be freshly signed, which is precisely the
	// equivocation evidence Lemma 5.2 relies on.
	TamperBidVectorEntry bool

	// Abstain opts the processor out entirely: "If P_i does not wish to
	// participate, it does not broadcast a bid and it receives a utility
	// of 0" (Section 4, Bidding). Abstaining is allowed, never fined.
	Abstain bool
}

// Normalize fills the neutral defaults for zero-valued factors so that
// Behavior{} is the honest strategy.
func (b Behavior) Normalize() Behavior {
	if b.BidFactor == 0 {
		b.BidFactor = 1
	}
	if b.SlackFactor == 0 {
		b.SlackFactor = 1
	}
	if b.EquivocationFactor == 0 {
		b.EquivocationFactor = 2
	}
	if b.WrongPaymentFactor == 0 {
		b.WrongPaymentFactor = 1
	}
	if b.Name == "" {
		b.Name = "honest"
	}
	return b
}

// Deviant reports whether the behavior departs from the protocol in any
// way the referee could fine (misreporting the bid alone is NOT a
// protocol deviation — it is a lie the mechanism absorbs, not an offense).
func (b Behavior) Deviant() bool {
	n := b.Normalize()
	return n.Equivocate || n.FalseEquivocationReport || n.FrameRival ||
		n.MisallocateExtraBlocks != 0 ||
		n.RefuseMediation || n.TamperBlocks || n.FalseShortageClaim || n.FalseExcessClaim ||
		n.WrongPaymentFactor != 1 || n.EquivocatePayments || n.TamperBidVectorEntry
}

// Canonical behaviors used by the experiments and examples.
var (
	Honest        = Behavior{Name: "honest"}
	OverBid       = Behavior{Name: "overbid-1.5x", BidFactor: 1.5}
	UnderBid      = Behavior{Name: "underbid-0.6x", BidFactor: 0.6}
	SlowExecution = Behavior{Name: "slack-1.5x", SlackFactor: 1.5}
	Equivocator   = Behavior{Name: "equivocator", Equivocate: true}
	FalseAccuser  = Behavior{Name: "false-accuser", FalseEquivocationReport: true}
	Framer        = Behavior{Name: "framer", FrameRival: true}
	OverShipper   = Behavior{Name: "overship-originator", MisallocateExtraBlocks: 3}
	ShortShipper  = Behavior{Name: "shortship-originator", MisallocateExtraBlocks: -3}
	BlockTamperer = Behavior{Name: "block-tamperer", MisallocateExtraBlocks: -3, TamperBlocks: true}
	Refuser       = Behavior{Name: "mediation-refuser", MisallocateExtraBlocks: -3, RefuseMediation: true}
	FalseClaimant = Behavior{Name: "false-shortage-claimant", FalseShortageClaim: true}
	ExcessClaimer = Behavior{Name: "false-excess-claimant", FalseExcessClaim: true}
	PaymentCheat  = Behavior{Name: "payment-cheat-2x", WrongPaymentFactor: 2}
	PaymentLiar   = Behavior{Name: "payment-equivocator", EquivocatePayments: true}
	VectorTamper  = Behavior{Name: "bid-vector-tamperer", TamperBidVectorEntry: true}
)

// DeviantCatalog lists every finable behavior, used by the compliance
// experiments (E8/E9).
var DeviantCatalog = []Behavior{
	Equivocator, FalseAccuser, Framer, OverShipper, ShortShipper, BlockTamperer,
	Refuser, FalseClaimant, ExcessClaimer, PaymentCheat, PaymentLiar, VectorTamper,
}

// Catalog returns every canonical behavior keyed by name — the honest and
// misreporting strategies plus the full deviant catalog. It is the lookup
// table behind the by-name behavior selection in cmd/dls-sim and the
// service job API.
func Catalog() map[string]Behavior {
	out := map[string]Behavior{
		Honest.Name:        Honest,
		OverBid.Name:       OverBid,
		UnderBid.Name:      UnderBid,
		SlowExecution.Name: SlowExecution,
		"abstain":          {Name: "abstain", Abstain: true},
	}
	for _, b := range DeviantCatalog {
		out[b.Name] = b
	}
	return out
}

// ByName looks a canonical behavior up by name. The empty name is the
// honest strategy.
func ByName(name string) (Behavior, bool) {
	if name == "" {
		return Honest, true
	}
	b, ok := Catalog()[name]
	return b, ok
}

// Agent is one strategic processor: identity, signing key, private true
// value, and strategy.
type Agent struct {
	ID       string
	Key      *sig.KeyPair
	TrueW    float64
	Behavior Behavior
}

// New creates an agent, normalizing its behavior.
func New(id string, key *sig.KeyPair, trueW float64, b Behavior) (*Agent, error) {
	a := new(Agent)
	if err := a.Init(id, key, trueW, b); err != nil {
		return nil, err
	}
	return a, nil
}

// Init makes *a the agent New(id, key, trueW, b) returns, in place, so a
// caller that plays many rounds can keep its agents in one slice.
func (a *Agent) Init(id string, key *sig.KeyPair, trueW float64, b Behavior) error {
	if id == "" {
		return errors.New("agent: empty id")
	}
	if key == nil || key.ID != id {
		return fmt.Errorf("agent: key identity mismatch for %q", id)
	}
	if !(trueW > 0) || math.IsInf(trueW, 0) {
		return fmt.Errorf("agent: invalid true value %v for %q", trueW, id)
	}
	*a = Agent{ID: id, Key: key, TrueW: trueW, Behavior: b.Normalize()}
	return nil
}

// Bid returns the bid the agent reports: b = BidFactor·w.
func (a *Agent) Bid() float64 { return a.Behavior.BidFactor * a.TrueW }

// SecondBid returns the contradictory bid an equivocator also broadcasts,
// and whether one exists.
func (a *Agent) SecondBid() (float64, bool) {
	if !a.Behavior.Equivocate {
		return 0, false
	}
	return a.Bid() * a.Behavior.EquivocationFactor, true
}

// Exec returns the execution value w̃ the agent actually processes at:
// max(w, SlackFactor·w). The tamper-proof meter observes this value
// regardless of what the agent bid.
func (a *Agent) Exec() float64 {
	return math.Max(a.TrueW, a.Behavior.SlackFactor*a.TrueW)
}

// PaymentVector returns the vector the agent submits, given the correct
// vector it computed (all honest agents compute the same one): a payment
// cheat scales its own entry.
func (a *Agent) PaymentVector(correct []float64, self int) []float64 {
	out := append([]float64(nil), correct...)
	if f := a.Behavior.WrongPaymentFactor; f != 1 && self >= 0 && self < len(out) {
		out[self] *= f
	}
	return out
}

// TamperedOwnBid returns the altered bid a vector-tamperer signs into its
// submitted bid vector.
func (a *Agent) TamperedOwnBid() float64 { return a.Bid() * 3 }
