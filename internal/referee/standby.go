package referee

import (
	"errors"
	"fmt"

	"dlsbl/internal/core"
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
	Procs   []string           `json:"procs"`
	Fine    float64            `json:"fine"`
	Round   string             `json:"round,omitempty"`
	Epochs  []string           `json:"epochs"`
	Meters  map[string]float64 `json:"meters,omitempty"`
	Entries []AuditEntry       `json:"entries,omitempty"`
}

// MeterReading replicates one tamper-proof meter value exactly. The
// audit entry renders φ rounded for humans; payments recompute from
// these bits.
type MeterReading struct {
	Proc string  `json:"proc"`
	Phi  float64 `json:"phi"`
}

// AuditReplicaPayload is one primary → standby replication message. The
// first message of a round carries the Snapshot; every later one carries
// the freshly sealed audit Entry plus whatever structured state the
// entry's action implies (a meter reading, an eviction) — the entry alone
// is enough to extend the hash chain, the side state is what Promote
// needs to adjudicate. An installment entry implies none: only a
// BidSession runs installment sub-rounds, and a session arms no standby.
type AuditReplicaPayload struct {
	Snapshot *StandbySnapshot `json:"snapshot,omitempty"`
	Entry    *AuditEntry      `json:"entry,omitempty"`
	Meter    *MeterReading    `json:"meter,omitempty"`
	Evict    string           `json:"evict,omitempty"`
}

// Standby accumulates the primary's replicated state and can promote
// itself into a full Referee when the primary dies. It performs the
// hash-chain verification ON APPLY, so a corrupted or reordered replica
// stream is rejected the moment it arrives, not at promotion time.
type Standby struct {
	snap    *StandbySnapshot
	log     AuditLog // the replicated transcript
	meters  map[string]float64
	evicted map[string]bool
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
		s.log.entries = append([]AuditEntry(nil), p.Snapshot.Entries...)
		for proc, phi := range p.Snapshot.Meters {
			s.meters[proc] = phi
		}
		return nil
	}
	if s.snap == nil {
		return errors.New("referee: standby received an update before the snapshot")
	}
	if p.Entry != nil {
		e := *p.Entry
		if e.Seq != s.log.Len() {
			return fmt.Errorf("referee: replica entry sequence %d, want %d", e.Seq, s.log.Len())
		}
		if e.PrevHash != s.log.lastHash() {
			return fmt.Errorf("referee: replica entry %d breaks the chain", e.Seq)
		}
		if h := s.log.digest(&e); string(h[:]) != e.Hash {
			return fmt.Errorf("referee: replica entry %d content does not match its hash", e.Seq)
		}
		s.log.entries = append(s.log.entries, e)
	}
	if p.Meter != nil {
		s.meters[p.Meter.Proc] = p.Meter.Phi
	}
	if p.Evict != "" {
		s.evicted[p.Evict] = true
		delete(s.meters, p.Evict)
	}
	return nil
}

// Entries returns a copy of the replicated transcript so far.
func (s *Standby) Entries() []AuditEntry { return s.log.Entries() }

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
	if len(s.snap.Epochs) != len(s.snap.Procs) {
		return nil, fmt.Errorf("referee: promoting standby: snapshot has %d epochs for %d processors", len(s.snap.Epochs), len(s.snap.Procs))
	}
	var procs, epochs []string
	for i, p := range s.snap.Procs {
		if !s.evicted[p] {
			procs = append(procs, p)
			epochs = append(epochs, s.snap.Epochs[i])
		}
	}
	ref, err := New(ver, ledger, mech, procs, s.snap.Fine)
	if err != nil {
		return nil, fmt.Errorf("referee: promoting standby: %w", err)
	}
	if err := ref.BindRounds(s.snap.Round, epochs); err != nil {
		return nil, fmt.Errorf("referee: promoting standby: %w", err)
	}
	for proc, phi := range s.meters {
		ref.meters[proc] = phi
	}
	ref.audit = AuditLog{entries: s.log.Entries()}
	return ref, nil
}

// AttachStandby arms replication: the send function carries one
// AuditReplicaPayload to the standby (the protocol layer seals it with
// the referee key and ships it over the reliable transport). The current
// state goes out immediately as a snapshot; every subsequent audit
// append, meter record and eviction streams after it. A send failure latches (see ReplicationErr) rather than failing
// the adjudication that triggered it — the primary stays authoritative;
// only a later promotion must refuse to proceed from a torn replica.
func (r *Referee) AttachStandby(send func(AuditReplicaPayload) error) error {
	snap := &StandbySnapshot{
		Procs:   append([]string(nil), r.procs...),
		Fine:    r.fine,
		Round:   r.round,
		Epochs:  append([]string(nil), r.epochs...),
		Entries: r.audit.Entries(),
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
