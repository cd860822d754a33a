// Package payment implements the payment infrastructure DLS-BL-NCP
// assumes: accounts for the user, the processors and the referee's fine
// escrow, with double-entry transfers so money is conserved — every fine
// collected is exactly redistributed and every payment the user remits
// lands on some processor's balance.
package payment

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Entry is one executed transfer.
type Entry struct {
	From   string
	To     string
	Amount float64
	Memo   string
}

// Ledger is a double-entry book over named accounts. Balances are signed:
// the user account naturally goes negative as it pays out (it represents
// external funds), and a fined processor may end below zero.
type Ledger struct {
	mu       sync.Mutex
	balances map[string]float64
	history  []Entry
}

// NewLedger opens a ledger with the given accounts at zero balance.
func NewLedger(accounts ...string) (*Ledger, error) {
	l := &Ledger{balances: make(map[string]float64, len(accounts))}
	for _, a := range accounts {
		if err := l.Open(a); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Reset returns every open account to a zero balance and forgets the
// history, keeping the accounts and the history's capacity: a long-lived
// owner (a BidSession) resets one ledger for every round it serves.
// History copies are the caller's and stay as they were.
func (l *Ledger) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for a := range l.balances {
		l.balances[a] = 0
	}
	clear(l.history)
	l.history = l.history[:0]
}

// Open adds an account at zero balance.
func (l *Ledger) Open(account string) error {
	if account == "" {
		return errors.New("payment: empty account name")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.balances[account]; dup {
		return fmt.Errorf("payment: account %q already open", account)
	}
	l.balances[account] = 0
	return nil
}

// Transfer moves amount from one account to another. Zero-amount
// transfers are recorded (they document a zero payment); negative or
// non-finite amounts are rejected — to charge someone, transfer in the
// other direction.
func (l *Ledger) Transfer(from, to string, amount float64, memo string) error {
	if math.IsNaN(amount) || math.IsInf(amount, 0) || amount < 0 {
		return fmt.Errorf("payment: invalid amount %v", amount)
	}
	if from == to {
		return fmt.Errorf("payment: self-transfer on %q", from)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.balances[from]; !ok {
		return fmt.Errorf("payment: unknown account %q", from)
	}
	if _, ok := l.balances[to]; !ok {
		return fmt.Errorf("payment: unknown account %q", to)
	}
	l.balances[from] -= amount
	l.balances[to] += amount
	l.history = append(l.history, Entry{From: from, To: to, Amount: amount, Memo: memo})
	return nil
}

// Balance returns an account's balance.
func (l *Ledger) Balance(account string) (float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.balances[account]
	if !ok {
		return 0, fmt.Errorf("payment: unknown account %q", account)
	}
	return b, nil
}

// Accounts returns the open account names, sorted.
func (l *Ledger) Accounts() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.balances))
	for a := range l.balances {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// History returns a copy of all executed transfers in order.
func (l *Ledger) History() []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Entry(nil), l.history...)
}

// Flows sums the executed transfers between hub and the accounts that
// index maps, without copying the history: what account a sent to hub is
// added to in[index[a]], and what hub sent a to out[index[a]].
func (l *Ledger) Flows(hub string, index map[string]int, in, out []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.history {
		if i, ok := index[e.From]; ok && e.To == hub {
			in[i] += e.Amount
		}
		if i, ok := index[e.To]; ok && e.From == hub {
			out[i] += e.Amount
		}
	}
}

// NetDrift returns Σ balances, which double-entry bookkeeping keeps at
// exactly zero up to floating-point error; tests assert it stays below
// tolerance.
func (l *Ledger) NetDrift() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s float64
	for _, b := range l.balances {
		s += b
	}
	return s
}
