package protocol

import (
	"fmt"
	"strings"
	"testing"

	"dlsbl/internal/dlt"
)

// TestRunSubInstallments drives the installment sub-round API directly:
// a reserved session round served as two equal installments completes
// both, stamps the "<salt>:rN.iK" IDs, and scales each installment's
// money flow by its fraction; accessor coverage (Network) rides along.
func TestRunSubInstallments(t *testing.T) {
	s, err := NewBidSession(Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{3, 2, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Network() != dlt.NCPFE {
		t.Fatalf("accessor: network %v", s.Network())
	}
	job := JobConfig{Seed: 7, NBlocks: 64}
	if _, err := s.Run(job); err != nil {
		t.Fatal(err)
	}
	n := s.NextRound()
	fracs, err := dlt.RoundFractions(2, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for k, frac := range fracs {
		out, err := s.RunSub(job, n, k+1, 2, frac, dlt.EqualRounds)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Completed {
			t.Fatalf("installment %d terminated in %s", k+1, out.TerminatedIn)
		}
		if want := fmt.Sprintf(":r%d.i%d", n, k+1); !strings.HasSuffix(out.RoundID, want) {
			t.Errorf("installment %d round ID %q, want suffix %q", k+1, out.RoundID, want)
		}
		if out.Installment != k+1 || out.LoadFraction != frac {
			t.Errorf("installment %d stamped (%d, %v), want (%d, %v)",
				k+1, out.Installment, out.LoadFraction, k+1, frac)
		}
		for _, q := range out.Payments {
			total += q
		}
	}
	if total <= 0 {
		t.Error("installments paid nothing")
	}

	// Guard rails: unreserved rounds, out-of-range installments and
	// fractions are rejected.
	if _, err := s.RunSub(job, n+99, 1, 2, 0.5, dlt.EqualRounds); err == nil {
		t.Error("unreserved round accepted")
	}
	if _, err := s.RunSub(job, n, 3, 2, 0.5, dlt.EqualRounds); err == nil {
		t.Error("installment 3 of 2 accepted")
	}
	if _, err := s.RunSub(job, n, 1, 2, 0, dlt.EqualRounds); err == nil {
		t.Error("zero fraction accepted")
	}
}
