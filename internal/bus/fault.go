package bus

import (
	"fmt"
	"math"
	"math/rand"
)

// FaultPlan describes a deterministic, seeded adversarial link layer for
// the simulated bus. The paper specifies DLS-BL-NCP over a perfectly
// reliable atomic-broadcast medium; a FaultPlan removes that assumption so
// the retry/eviction machinery in internal/protocol can be exercised and
// measured. Every fault decision is drawn from a private PRNG seeded with
// Seed, and deliveries are processed in a fixed (sorted-receiver) order,
// so two buses built from equal plans misbehave identically.
//
// All probabilities are per control-plane delivery (a broadcast to k
// receivers makes k independent delivery decisions), must lie in [0, 1],
// and compose in a fixed pipeline per delivery:
//
//	unresponsive? → drop? → corrupt? → duplicate? → (per copy) delay? → reorder?
//
// A nil *FaultPlan is the reliable bus: the delivery path then takes a
// single branch and performs no PRNG work (see BenchmarkBroadcastReliable
// for the zero-overhead guard).
type FaultPlan struct {
	// Seed drives the fault PRNG. Two plans with equal fields produce
	// identical fault sequences.
	Seed int64 `json:"seed"`

	// Drop is the probability a delivery is lost forever.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability a delivery arrives twice. The copies
	// carry the same logical nonce, so idempotent receivers (nonce dedup
	// in internal/protocol) collapse them.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Delay is the probability a delivery is deferred to the receiver's
	// next-but-one Drain — the discrete-time analogue of a message that
	// misses its per-attempt deadline and straggles in late.
	Delay float64 `json:"delay,omitempty"`
	// Corrupt is the probability a delivery suffers a signature-breaking
	// bit flip. The payload bytes are preserved; the Ed25519 signature is
	// flipped, so Envelope.Verify fails and honest receivers discard the
	// copy exactly as the paper prescribes for unverifiable messages.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Reorder is the probability a delivery jumps the receiver's queue,
	// landing at a random earlier position instead of at the tail.
	Reorder float64 `json:"reorder,omitempty"`

	// JitterMax adds latency jitter to the DATA plane: each reserved
	// transfer is stretched by an extra uniform [0, JitterMax) of virtual
	// time, modeling per-link contention on the shared medium.
	JitterMax float64 `json:"jitter_max,omitempty"`

	// Unresponsive lists endpoint identities whose control-plane traffic
	// is blackholed in both directions — the crash-faulty processors.
	// Their deliveries count as drops.
	Unresponsive []string `json:"unresponsive,omitempty"`

	// Pairs lists targeted per-link fault rules, the strategic-adversary
	// upgrade over the i.i.d. probabilities above: each rule applies only
	// to deliveries from its From endpoint to its To endpoint, so an
	// attacker can degrade exactly one rival's links while every other
	// pair stays clean. Pair rules compose with the i.i.d. fields (the
	// per-pair draw happens first; an undropped delivery still faces the
	// global Drop).
	Pairs []PairFault `json:"pairs,omitempty"`

	// Crashes lists processors that die mid-run: each spec fell-stops its
	// processor at the start of the Processing Load phase, after the load
	// is allocated but before any results are metered. The protocol layer
	// reads these specs (the bus only transports them); see
	// protocol.Config.Faults and the checkpointed re-allocation path.
	Crashes []Crash `json:"crashes,omitempty"`
}

// PairFault is a targeted fault rule for one directed link. Zero-valued
// probabilities leave that failure mode to the plan's i.i.d. fields.
type PairFault struct {
	// From and To name the endpoints of the directed link the rule
	// applies to ("P3" → "P1").
	From string `json:"from"`
	To   string `json:"to"`
	// Drop is the probability a delivery on this link is lost forever;
	// 1.0 severs the link, the building block of a framing attack.
	Drop float64 `json:"drop,omitempty"`
	// Corrupt is the probability a delivery on this link suffers a
	// signature-breaking bit flip.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Jitter stretches DATA-plane transfers terminating at To by an
	// extra uniform [0, Jitter) of virtual time, on top of the plan's
	// global JitterMax (see Bus.ReserveTransferTo).
	Jitter float64 `json:"jitter,omitempty"`
}

// Crash fail-stops one processor during the computation phase.
type Crash struct {
	// Proc is the processor that dies ("P3").
	Proc string `json:"proc"`
	// Installment restricts the crash to one pipelined sub-round
	// (1-based); 0 fires in whichever round reaches the Processing Load
	// phase first.
	Installment int `json:"installment,omitempty"`
}

// Validate checks the plan's parameters.
func (p *FaultPlan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Drop", p.Drop}, {"Duplicate", p.Duplicate}, {"Delay", p.Delay},
		{"Corrupt", p.Corrupt}, {"Reorder", p.Reorder},
	} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("bus: fault plan %s=%v outside [0,1]", f.name, f.v)
		}
	}
	if p.JitterMax < 0 || math.IsNaN(p.JitterMax) || math.IsInf(p.JitterMax, 0) {
		return fmt.Errorf("bus: fault plan JitterMax=%v invalid", p.JitterMax)
	}
	for i, pr := range p.Pairs {
		if pr.From == "" || pr.To == "" {
			return fmt.Errorf("bus: fault plan Pairs[%d] names an empty endpoint", i)
		}
		if pr.From == pr.To {
			return fmt.Errorf("bus: fault plan Pairs[%d] targets the self-link %s→%s", i, pr.From, pr.To)
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"Drop", pr.Drop}, {"Corrupt", pr.Corrupt}} {
			if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
				return fmt.Errorf("bus: fault plan Pairs[%d].%s=%v outside [0,1]", i, f.name, f.v)
			}
		}
		if pr.Jitter < 0 || math.IsNaN(pr.Jitter) || math.IsInf(pr.Jitter, 0) {
			return fmt.Errorf("bus: fault plan Pairs[%d].Jitter=%v invalid", i, pr.Jitter)
		}
	}
	for i, c := range p.Crashes {
		if c.Proc == "" {
			return fmt.Errorf("bus: fault plan Crashes[%d] names no processor", i)
		}
		if c.Installment < 0 {
			return fmt.Errorf("bus: fault plan Crashes[%d].Installment=%d negative", i, c.Installment)
		}
	}
	return nil
}

// active reports whether the plan can affect the control plane at all.
// Crashes are excluded: they are protocol-level fail-stops, not link
// faults, so a crashes-only plan keeps the bus on its reliable fast path.
func (p *FaultPlan) active() bool {
	return p != nil && (p.Drop > 0 || p.Duplicate > 0 || p.Delay > 0 ||
		p.Corrupt > 0 || p.Reorder > 0 || len(p.Unresponsive) > 0 ||
		len(p.Pairs) > 0)
}

// DataPlaneActive reports whether the plan stretches data-plane
// transfers at all (global jitter or any per-pair jitter).
func (p *FaultPlan) DataPlaneActive() bool {
	if p == nil {
		return false
	}
	if p.JitterMax > 0 {
		return true
	}
	for _, pr := range p.Pairs {
		if pr.Jitter > 0 {
			return true
		}
	}
	return false
}

// CrashAt returns the processors the plan fail-stops at the Processing
// Load phase of the given 1-based installment (inst 1 also matches
// whole-load runs; Installment 0 specs match every installment).
func (p *FaultPlan) CrashAt(inst int) []string {
	if p == nil || len(p.Crashes) == 0 {
		return nil
	}
	var procs []string
	for _, c := range p.Crashes {
		if c.Installment == 0 || c.Installment == inst {
			procs = append(procs, c.Proc)
		}
	}
	return procs
}

// pairKey identifies one directed link for the targeted-rule lookup.
type pairKey struct{ from, to string }

// faultState is the per-bus instantiation of a plan: the seeded PRNG,
// the blackhole set and the per-pair rule index. It is guarded by the
// bus mutex, and inert while plan is nil.
type faultState struct {
	plan        *FaultPlan
	rng         *rand.Rand
	unreachable map[string]bool
	pairs       map[pairKey]PairFault
}

// reset instantiates plan p in place: the PRNG reseeded to the stream
// rand.NewSource(p.Seed) starts, and the blackhole set and pair index
// refilled. A nil p leaves the state inert.
func (fs *faultState) reset(p *FaultPlan) {
	fs.plan = p
	clear(fs.unreachable)
	clear(fs.pairs)
	if p == nil {
		return
	}
	if fs.rng == nil {
		fs.rng = rand.New(rand.NewSource(p.Seed))
		fs.unreachable = make(map[string]bool, len(p.Unresponsive))
		fs.pairs = make(map[pairKey]PairFault, len(p.Pairs))
	} else {
		fs.rng.Seed(p.Seed)
	}
	for _, id := range p.Unresponsive {
		fs.unreachable[id] = true
	}
	for _, pr := range p.Pairs {
		fs.pairs[pairKey{pr.From, pr.To}] = pr
	}
}

// pairRule returns the targeted rule for the (from, to) link, if any.
func (fs *faultState) pairRule(from, to string) (PairFault, bool) {
	if len(fs.pairs) == 0 {
		return PairFault{}, false
	}
	pr, ok := fs.pairs[pairKey{from, to}]
	return pr, ok
}

// corruptEnvelope returns a copy of the message whose signature (or, for
// an unsigned message, payload) has one bit flipped. The original record
// and its backing arrays are never touched — other receivers share them.
func corruptEnvelope(msg Message) Message {
	out := msg
	if len(msg.Env.Signature) > 0 {
		sig := append([]byte(nil), msg.Env.Signature...)
		sig[0] ^= 0x01
		out.Env.Signature = sig
	} else if len(msg.Env.Payload) > 0 {
		pl := append([]byte(nil), msg.Env.Payload...)
		pl[0] ^= 0x01
		out.Env.Payload = pl
	}
	return out
}
