package payment

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpenAndTransfer(t *testing.T) {
	l, err := NewLedger("user", "P1", "P2")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer("user", "P1", 10, "payment Q1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer("user", "P2", 2.5, "payment Q2"); err != nil {
		t.Fatal(err)
	}
	for account, want := range map[string]float64{"user": -12.5, "P1": 10, "P2": 2.5} {
		got, err := l.Balance(account)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s balance = %v, want %v", account, got, want)
		}
	}
	if drift := l.NetDrift(); drift != 0 {
		t.Errorf("net drift = %v", drift)
	}
	h := l.History()
	if len(h) != 2 || h[0].Memo != "payment Q1" || h[1].Amount != 2.5 {
		t.Errorf("history = %+v", h)
	}
}

func TestTransferValidation(t *testing.T) {
	l, err := NewLedger("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Transfer("a", "b", -1, ""); err == nil {
		t.Error("negative amount accepted")
	}
	if err := l.Transfer("a", "b", math.NaN(), ""); err == nil {
		t.Error("NaN amount accepted")
	}
	if err := l.Transfer("a", "b", math.Inf(1), ""); err == nil {
		t.Error("infinite amount accepted")
	}
	if err := l.Transfer("a", "a", 1, ""); err == nil {
		t.Error("self transfer accepted")
	}
	if err := l.Transfer("ghost", "b", 1, ""); err == nil {
		t.Error("unknown source accepted")
	}
	if err := l.Transfer("a", "ghost", 1, ""); err == nil {
		t.Error("unknown destination accepted")
	}
	if err := l.Transfer("a", "b", 0, "zero ok"); err != nil {
		t.Errorf("zero transfer rejected: %v", err)
	}
}

func TestOpenValidation(t *testing.T) {
	l, err := NewLedger("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Open(""); err == nil {
		t.Error("empty account accepted")
	}
	if err := l.Open("a"); err == nil {
		t.Error("duplicate account accepted")
	}
	if _, err := NewLedger("x", "x"); err == nil {
		t.Error("duplicate in constructor accepted")
	}
	if _, err := l.Balance("ghost"); err == nil {
		t.Error("unknown balance query accepted")
	}
}

func TestAccountsSorted(t *testing.T) {
	l, err := NewLedger("zeta", "alpha", "mid")
	if err != nil {
		t.Fatal(err)
	}
	got := l.Accounts()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("accounts = %v, want %v", got, want)
		}
	}
}

func TestHistoryIsCopy(t *testing.T) {
	l, _ := NewLedger("a", "b")
	if err := l.Transfer("a", "b", 1, "x"); err != nil {
		t.Fatal(err)
	}
	h := l.History()
	h[0].Amount = 999
	if l.History()[0].Amount != 1 {
		t.Error("History exposes internal storage")
	}
}

// TestFlows: Flows sums, per mapped account, what it sent to the hub
// and what the hub sent it, and skips transfers that miss the hub or an
// unmapped account.
func TestFlows(t *testing.T) {
	l, _ := NewLedger("hub", "a", "b", "c")
	for _, tr := range []Entry{{"a", "hub", 3, ""}, {"hub", "b", 1, ""}, {"hub", "a", 0.5, ""},
		{"a", "hub", 1, ""}, {"a", "b", 7, ""}, {"c", "hub", 2, ""}} {
		if err := l.Transfer(tr.From, tr.To, tr.Amount, tr.Memo); err != nil {
			t.Fatal(err)
		}
	}
	in, out := make([]float64, 2), make([]float64, 2)
	l.Flows("hub", map[string]int{"a": 0, "b": 1}, in, out)
	if !reflect.DeepEqual(in, []float64{4, 0}) || !reflect.DeepEqual(out, []float64{0.5, 1}) {
		t.Errorf("into hub %v, out of hub %v; want [4 0] and [0.5 1]", in, out)
	}
}

// Property: conservation — after any sequence of random transfers, the
// sum of all balances is ~0 and each balance equals inflow − outflow.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		accounts := []string{"user", "P1", "P2", "P3", "referee"}
		l, err := NewLedger(accounts...)
		if err != nil {
			return false
		}
		flows := make(map[string]float64)
		n := int(nRaw) % 200
		for i := 0; i < n; i++ {
			from := accounts[rng.Intn(len(accounts))]
			to := accounts[rng.Intn(len(accounts))]
			if from == to {
				continue
			}
			amt := rng.Float64() * 100
			if err := l.Transfer(from, to, amt, "rand"); err != nil {
				return false
			}
			flows[from] -= amt
			flows[to] += amt
		}
		if math.Abs(l.NetDrift()) > 1e-9 {
			return false
		}
		for _, a := range accounts {
			b, err := l.Balance(a)
			if err != nil {
				return false
			}
			if math.Abs(b-flows[a]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerReset: a reset ledger keeps its accounts at zero balance with
// no history, replays a round exactly as a new ledger does, and leaves
// history copies taken before it as they were.
func TestLedgerReset(t *testing.T) {
	accounts := []string{"user", "referee", "P1", "P2"}
	round := func(l *Ledger) {
		t.Helper()
		for _, tr := range []Entry{{"user", "P1", 1.5, "pay"}, {"P2", "referee", 4, "fine"}, {"referee", "P1", 2, "share"}} {
			if err := l.Transfer(tr.From, tr.To, tr.Amount, tr.Memo); err != nil {
				t.Fatal(err)
			}
		}
	}
	reused, err := NewLedger(accounts...)
	if err != nil {
		t.Fatal(err)
	}
	round(reused)
	round(reused)
	before := reused.History()
	kept := append([]Entry(nil), before...)
	reused.Reset()
	if h := reused.History(); len(h) != 0 {
		t.Fatalf("history after Reset: %v", h)
	}
	for _, a := range accounts {
		if b, err := reused.Balance(a); err != nil || b != 0 {
			t.Fatalf("%s: balance %v, %v after Reset", a, b, err)
		}
	}
	fresh, err := NewLedger(accounts...)
	if err != nil {
		t.Fatal(err)
	}
	round(reused)
	round(fresh)
	if !reflect.DeepEqual(reused.History(), fresh.History()) || !reflect.DeepEqual(reused.Accounts(), fresh.Accounts()) {
		t.Error("a reset ledger's round differs from a new ledger's")
	}
	for _, a := range accounts {
		rb, _ := reused.Balance(a)
		fb, _ := fresh.Balance(a)
		if rb != fb {
			t.Errorf("%s: balance %v after Reset, %v on a new ledger", a, rb, fb)
		}
	}
	if !reflect.DeepEqual(before, kept) {
		t.Error("Reset changed a history copy taken before it")
	}
}
