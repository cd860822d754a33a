package referee

import (
	"errors"
	"fmt"

	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/payment"
	"dlsbl/internal/sig"
)

// Referee failover. The referee is minimally trusted but, until this
// file, singly available: it holds the only copy of the hash-chained
// audit transcript, the meter readings and the round bindings, so losing
// it mid-round lost the round. A Standby fixes that: the primary streams
// every state change over the existing reliable transport (KindAuditReplica
// envelopes signed with the referee key), the standby verifies each
// replica against the incremental hash chain, and Promote rebuilds a
// fully armed *Referee from the replicated state — able to adjudicate
// the rest of the round with verdicts and payments bit-identical to the
// primary's, since both compute from the same replicated inputs.

// StandbyAccount is the bus endpoint and ledger-facing identity of the
// standby referee.
const StandbyAccount = "referee-standby"

// StandbySnapshot is the full referee state at attach time: the primary
// sends it once, then streams incremental AuditReplicaPayload updates.
type StandbySnapshot struct {
	Procs      []string           `json:"procs"`
	Fine       float64            `json:"fine"`
	Round      string             `json:"round,omitempty"`
	BidEpoch   string             `json:"bid_epoch,omitempty"`
	Epochs     []string           `json:"epochs,omitempty"`
	InstRounds int                `json:"inst_rounds,omitempty"`
	InstPolicy dlt.RoundPolicy    `json:"inst_policy,omitempty"`
	Meters     map[string]float64 `json:"meters,omitempty"`
	Entries    []AuditEntry       `json:"entries,omitempty"`
}

// MeterReading replicates one tamper-proof meter value exactly. The
// audit entry renders φ rounded for humans; payments recompute from
// these bits.
type MeterReading struct {
	Proc string  `json:"proc"`
	Phi  float64 `json:"phi"`
}

// InstBinding replicates the installment payment rule RecordInstallment
// armed on the primary.
type InstBinding struct {
	Rounds int             `json:"rounds"`
	Policy dlt.RoundPolicy `json:"policy"`
}

// AuditReplicaPayload is one primary → standby replication message. The
// first message of a round carries the Snapshot; every later one carries
// the freshly sealed audit Entry plus whatever structured state the
// entry's action implies (a meter reading, an eviction, an installment
// binding) — the entry alone is enough to extend the hash chain, the
// side state is what Promote needs to adjudicate.
type AuditReplicaPayload struct {
	Snapshot *StandbySnapshot `json:"snapshot,omitempty"`
	Entry    *AuditEntry      `json:"entry,omitempty"`
	Meter    *MeterReading    `json:"meter,omitempty"`
	Inst     *InstBinding     `json:"inst,omitempty"`
	Evict    string           `json:"evict,omitempty"`
}

// Standby accumulates the primary's replicated state and can promote
// itself into a full Referee when the primary dies. It performs the
// hash-chain verification ON APPLY, so a corrupted or reordered replica
// stream is rejected the moment it arrives, not at promotion time.
type Standby struct {
	snap    *StandbySnapshot
	entries []AuditEntry
	meters  map[string]float64
	evicted map[string]bool
	inst    *InstBinding
}

// NewStandby returns an empty standby awaiting the primary's snapshot.
func NewStandby() *Standby {
	return &Standby{meters: make(map[string]float64), evicted: make(map[string]bool)}
}

// Apply verifies and folds in one replication envelope: the signature
// must check against reg (the primary referee's key), and a carried
// audit entry must extend the replicated hash chain exactly — Seq,
// PrevHash and content hash all verified incrementally.
func (s *Standby) Apply(reg *sig.Registry, env sig.Envelope) error {
	if env.Sender != Account {
		return fmt.Errorf("referee: standby rejected replica signed by %q, want the primary %q", env.Sender, Account)
	}
	var p AuditReplicaPayload
	if err := env.Open(reg, &p); err != nil {
		return fmt.Errorf("referee: standby rejected replica: %w", err)
	}
	if p.Snapshot != nil {
		if s.snap != nil {
			return errors.New("referee: standby received a second snapshot")
		}
		if err := VerifyEntries(p.Snapshot.Entries); err != nil {
			return fmt.Errorf("referee: snapshot transcript: %w", err)
		}
		s.snap = p.Snapshot
		s.entries = append([]AuditEntry(nil), p.Snapshot.Entries...)
		for proc, phi := range p.Snapshot.Meters {
			s.meters[proc] = phi
		}
		if p.Snapshot.InstRounds > 0 {
			s.inst = &InstBinding{Rounds: p.Snapshot.InstRounds, Policy: p.Snapshot.InstPolicy}
		}
		return nil
	}
	if s.snap == nil {
		return errors.New("referee: standby received an update before the snapshot")
	}
	if p.Entry != nil {
		e := *p.Entry
		if e.Seq != len(s.entries) {
			return fmt.Errorf("referee: replica entry sequence %d, want %d", e.Seq, len(s.entries))
		}
		prev := genesisHash
		if len(s.entries) > 0 {
			prev = s.entries[len(s.entries)-1].Hash
		}
		if e.PrevHash != prev {
			return fmt.Errorf("referee: replica entry %d breaks the chain", e.Seq)
		}
		if hashEntry(e) != e.Hash {
			return fmt.Errorf("referee: replica entry %d content does not match its hash", e.Seq)
		}
		s.entries = append(s.entries, e)
	}
	if p.Meter != nil {
		s.meters[p.Meter.Proc] = p.Meter.Phi
	}
	if p.Inst != nil {
		s.inst = p.Inst
	}
	if p.Evict != "" {
		s.evicted[p.Evict] = true
		delete(s.meters, p.Evict)
	}
	return nil
}

// Entries returns a copy of the replicated transcript so far.
func (s *Standby) Entries() []AuditEntry { return append([]AuditEntry(nil), s.entries...) }

// Promote rebuilds a fully armed Referee from the replicated state. The
// returned referee adopts the replicated transcript (chain continuity:
// its next entry extends the primary's last replicated hash), the round
// bindings, the meter readings and the surviving participant list, so
// its adjudications and payment recomputations are bit-identical to
// what the primary would have produced from the same inputs.
func (s *Standby) Promote(ver *sig.BatchVerifier, ledger *payment.Ledger, mech core.Mechanism) (*Referee, error) {
	if s.snap == nil {
		return nil, errors.New("referee: standby has no replicated snapshot to promote from")
	}
	var procs []string
	for _, p := range s.snap.Procs {
		if !s.evicted[p] {
			procs = append(procs, p)
		}
	}
	ref, err := New(ver, ledger, mech, procs, s.snap.Fine)
	if err != nil {
		return nil, fmt.Errorf("referee: promoting standby: %w", err)
	}
	ref.round = s.snap.Round
	ref.bidEpoch = s.snap.BidEpoch
	if s.snap.Epochs != nil {
		var epochs []string
		for i, p := range s.snap.Procs {
			if !s.evicted[p] && i < len(s.snap.Epochs) {
				epochs = append(epochs, s.snap.Epochs[i])
			}
		}
		ref.epochs = epochs
	}
	if s.inst != nil {
		ref.instRounds, ref.instPolicy = s.inst.Rounds, s.inst.Policy
	}
	for proc, phi := range s.meters {
		ref.meters[proc] = phi
	}
	ref.audit = AuditLog{entries: append([]AuditEntry(nil), s.entries...)}
	return ref, nil
}

// AttachStandby arms replication: the send function carries one
// AuditReplicaPayload to the standby (the protocol layer seals it with
// the referee key and ships it over the reliable transport). The current
// state goes out immediately as a snapshot; every subsequent audit
// append, meter record, eviction and installment binding streams after
// it. A send failure latches (see ReplicationErr) rather than failing
// the adjudication that triggered it — the primary stays authoritative;
// only a later promotion must refuse to proceed from a torn replica.
func (r *Referee) AttachStandby(send func(AuditReplicaPayload) error) error {
	snap := &StandbySnapshot{
		Procs:      append([]string(nil), r.procs...),
		Fine:       r.fine,
		Round:      r.round,
		BidEpoch:   r.bidEpoch,
		Epochs:     append([]string(nil), r.epochs...),
		InstRounds: r.instRounds,
		InstPolicy: r.instPolicy,
		Entries:    r.audit.Entries(),
	}
	if len(r.meters) > 0 {
		snap.Meters = make(map[string]float64, len(r.meters))
		for p, phi := range r.meters {
			snap.Meters[p] = phi
		}
	}
	if err := send(AuditReplicaPayload{Snapshot: snap}); err != nil {
		return fmt.Errorf("referee: standby snapshot: %w", err)
	}
	r.send = send
	return nil
}

// ReplicationErr returns the first standby replication failure, or nil.
// Promotion paths must check it: a standby behind a torn stream would
// adjudicate from stale state.
func (r *Referee) ReplicationErr() error { return r.replErr }
