package referee

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Audit transcript. The referee is only "minimally trusted": it holds no
// processor parameters unless a conflict arises, and its decisions move
// real money. To make those decisions reviewable after the fact, every
// adjudication and settlement is appended to a hash-chained transcript —
// each entry commits to its content AND to the previous entry's digest,
// so no record can be silently altered, reordered or dropped without
// breaking the chain.

// AuditEntry is one transcript record. Round carries the session-salted
// round ID the referee was bound to when the entry was sealed (empty for
// standalone runs); it is covered by the entry hash, so the transcript
// commits to WHICH round every adjudication belonged to — a replayed
// message from an earlier round cannot be laundered into a later round's
// chain without breaking it.
type AuditEntry struct {
	Seq      int      `json:"seq"`
	Action   string   `json:"action"` // "verdict", "settlement", "meter", "payments", "eviction", "bid-reuse"
	Phase    string   `json:"phase"`
	Round    string   `json:"round,omitempty"`
	Guilty   []string `json:"guilty,omitempty"`
	Detail   string   `json:"detail"`
	PrevHash string   `json:"prev"`
	Hash     string   `json:"hash"` // SHA-256 over (seq, action, phase, round, guilty, detail, prev)
}

// AuditLog is the referee's append-only, hash-chained transcript. It is
// not safe for concurrent use, Verify included: hashing reuses the log's
// own scratch.
type AuditLog struct {
	entries []AuditEntry

	// Hashing scratch: the entry being hashed is copied into scratch (so
	// no caller's entry escapes into the encoder) and encoded through enc
	// into buf.
	scratch AuditEntry
	buf     bytes.Buffer
	enc     *json.Encoder
}

// auditReserve is the entry capacity a referee for m processors reserves
// once: a round's m meter readings, its payments verdict and its bid
// reuse and installment records, with room for one more verdict.
func auditReserve(m int) int { return m + 4 }

// genesisHash anchors the chain.
const genesisHash = "dls-bl-ncp-audit-genesis"

func (l *AuditLog) lastHash() string {
	if len(l.entries) == 0 {
		return genesisHash
	}
	return l.entries[len(l.entries)-1].Hash
}

// Append records an action and returns the sealed entry. Standalone runs
// have no round ID; session-bound callers use AppendRound.
func (l *AuditLog) Append(action, phase string, guilty []string, detail string) AuditEntry {
	return l.AppendRound("", action, phase, guilty, detail)
}

// AppendRound records an action stamped with the session round it belongs
// to and returns the sealed entry.
func (l *AuditLog) AppendRound(round, action, phase string, guilty []string, detail string) AuditEntry {
	e := AuditEntry{
		Seq:      len(l.entries),
		Action:   action,
		Phase:    phase,
		Round:    round,
		Guilty:   append([]string(nil), guilty...),
		Detail:   detail,
		PrevHash: l.lastHash(),
	}
	h := l.digest(&e)
	e.Hash = string(h[:])
	l.entries = append(l.entries, e)
	return e
}

// digest returns the hex SHA-256 of e with its Hash field excluded: the
// digest of exactly the bytes json.Marshal produces for e with Hash
// cleared. The encoder appends a newline that Marshal does not, and the
// hash leaves it out.
func (l *AuditLog) digest(e *AuditEntry) [2 * sha256.Size]byte {
	if l.enc == nil {
		l.enc = json.NewEncoder(&l.buf)
	}
	l.scratch = *e
	l.scratch.Hash = ""
	l.buf.Reset()
	if err := l.enc.Encode(&l.scratch); err != nil {
		// AuditEntry contains only marshalable fields; this cannot fire.
		panic("referee: audit entry not marshalable: " + err.Error())
	}
	b := l.buf.Bytes()
	sum := sha256.Sum256(b[:len(b)-1])
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return h
}

// Entries returns a copy of the transcript.
func (l *AuditLog) Entries() []AuditEntry {
	return append([]AuditEntry(nil), l.entries...)
}

// take hands the entries over to the caller and leaves the log empty.
func (l *AuditLog) take() []AuditEntry {
	e := l.entries
	l.entries = nil
	return e
}

// reset starts an empty log of n reserved entries for a new run, keeping
// the hashing scratch; earlier entries stay with whoever took them.
func (l *AuditLog) reset(n int) {
	l.entries = make([]AuditEntry, 0, n)
}

// Len returns the number of records.
func (l *AuditLog) Len() int { return len(l.entries) }

// Verify re-derives the whole chain and reports the first inconsistency:
// a mutated entry, a broken link or a bad sequence number.
func (l *AuditLog) Verify() error {
	prev := genesisHash
	for i, e := range l.entries {
		if e.Seq != i {
			return fmt.Errorf("referee: audit entry %d has sequence %d", i, e.Seq)
		}
		if e.PrevHash != prev {
			return fmt.Errorf("referee: audit entry %d breaks the chain", i)
		}
		if h := l.digest(&l.entries[i]); string(h[:]) != e.Hash {
			return fmt.Errorf("referee: audit entry %d content does not match its hash", i)
		}
		prev = e.Hash
	}
	return nil
}

// VerifyEntries validates a transcript copy that left the referee (e.g.
// one attached to a protocol outcome).
func VerifyEntries(entries []AuditEntry) error {
	l := AuditLog{entries: entries}
	return l.Verify()
}

// String renders the transcript for humans.
func (l *AuditLog) String() string {
	var b strings.Builder
	for _, e := range l.entries {
		guilty := "-"
		if len(e.Guilty) > 0 {
			guilty = strings.Join(e.Guilty, "+")
		}
		fmt.Fprintf(&b, "[%03d] %-10s %-10s guilty=%-8s %s\n", e.Seq, e.Action, e.Phase, guilty, e.Detail)
	}
	return b.String()
}
