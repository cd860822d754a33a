package pipeline

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

// raceEnabled reports whether the test binary was built with -race,
// whose runtime skews allocation counts.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// warmInstallmentSession returns an m = 16 NCP-FE session whose bids and
// keys are cached by one 4-installment load, and that load, so every
// later RunLoad is a steady-state pipelined load.
func warmInstallmentSession(tb testing.TB) (*protocol.BidSession, Load) {
	tb.Helper()
	w := make([]float64, 16)
	for i := range w {
		w[i] = 1 + float64(i%5)*0.25
	}
	s, err := protocol.NewBidSession(protocol.Config{Network: dlt.NCPFE, Z: 0.1, TrueW: w})
	if err != nil {
		tb.Fatal(err)
	}
	ld := Load{Job: protocol.JobConfig{Seed: 3}, Rounds: 4, Policy: dlt.EqualRounds}
	runInstallmentLoad(tb, s, ld)
	return s, ld
}

func runInstallmentLoad(tb testing.TB, s *protocol.BidSession, ld Load) {
	tb.Helper()
	out, err := RunLoad(s, ld)
	if err != nil {
		tb.Fatal(err)
	}
	if !out.Completed || len(out.Installments) != ld.Rounds {
		tb.Fatalf("load did not complete its %d installments", ld.Rounds)
	}
}

// TestInstallmentLoadAllocs pins what a warm 4-installment m = 16 load
// allocates at GOMAXPROCS 1, the inline crypto path: about 76 KiB. The
// session keeps each installment's names, keys, registry, batch verifier
// (with its scratch), bus (with the records its deliveries point to),
// transport tables, ledger, payment engine and referee for the next, and
// the payments working set and cached bid set as well: each installment
// seals its payment vectors over the last one's envelopes, from requests
// pointing at payloads the session keeps. Each installment prices its
// payments with the engine's allocation-free period rule, seals honest
// payment vectors and sums fines without copying them, hands its audit
// log to its outcome uncopied, and encodes each signed payload into a
// pooled buffer. Building the requests, boxed payloads, payment
// envelopes, verifier scratch and bid set afresh for every installment
// cost about 122 KiB, filing a copy of every message in each recipient's
// inbox as well about 139 KiB, copying the vectors and the ledger
// history about 151 KiB, rebuilding the round state for every
// installment about 359 KiB, and before that, re-solving 2m+1 freshly
// allocated schedules per installment and marshalling every audit entry
// into a fresh slice about 497 KiB.
func TestInstallmentLoadAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are skewed under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, ld := warmInstallmentSession(t)
	// Collect first and keep the collector off for the window, so no
	// collection that earlier tests brought forward lands inside it.
	// The bytes also depend on the session's age: its verify memo's map
	// grows in bursts (up to 48 KiB a load), so the window always
	// measures a fresh session's first loads.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runInstallmentLoad(t, s, ld)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	const max = 84 << 10
	if got > max {
		t.Errorf("warm m=16 4-installment load: %d KiB allocated, want <= %d KiB", got>>10, max>>10)
	}
	t.Logf("warm m=16 4-installment load: %d KiB allocated", got>>10)
}

// BenchmarkInstallmentLoad times a warm 4-installment m = 16 load
// through RunLoad, the pipelined-http workload's unit of work.
func BenchmarkInstallmentLoad(b *testing.B) {
	s, ld := warmInstallmentSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runInstallmentLoad(b, s, ld)
	}
}
