package protocol

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"dlsbl/internal/dlt"
)

// coldConfig is a cold round at m members: zero-value defaults, so every
// run generates fresh keys and plays the full Θ(m²) bid exchange.
func coldConfig(m int) Config {
	in := dlt.DefaultRandomInstance(rand.New(rand.NewSource(int64(m))), dlt.NCPFE, m)
	return Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: int64(m)}
}

// runCold plays one cold round and fails unless it completed.
func runCold(tb testing.TB, cfg Config) {
	out, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if !out.Completed {
		tb.Fatalf("m=%d: cold round terminated in %s", len(cfg.TrueW), out.TerminatedIn)
	}
}

// raceEnabled reports whether the test binary was built with -race. The
// race runtime makes sync.Pool drop items at random, so byte counts there
// say nothing about the code, and every round runs several times slower.
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

// allocBytesPerRun returns the heap bytes one call of f allocates,
// averaged over runs calls after one warm-up call (which fills the
// process-wide pools a long-lived caller keeps warm).
func allocBytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestColdRoundAllocs pins what a cold round allocates at GOMAXPROCS 1,
// the inline crypto path. The bid exchange's receive side adopts each
// drained inbox as the pending buffer, presizes the received rows and
// keeps no map per receiver; a receive side that grows those per
// receiver allocates about 570 KiB at m = 16 and 26 MiB at m = 128,
// well past both bounds.
func TestColdRoundAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are skewed under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		m, runs int
		max     uint64
	}{
		{m: 16, runs: 5, max: 400 << 10},
		{m: 128, runs: 2, max: 18 << 20},
	} {
		cfg := coldConfig(c.m)
		got := allocBytesPerRun(c.runs, func() { runCold(t, cfg) })
		if got > c.max {
			t.Errorf("cold m=%d round: %d KiB allocated, want <= %d KiB", c.m, got>>10, c.max>>10)
		}
		t.Logf("cold m=%d round: %d KiB allocated", c.m, got>>10)
	}
}

// BenchmarkColdRound times a cold protocol.Run up to service.MaxPoolSize
// members, the per-m cost that cap is derived from.
func BenchmarkColdRound(b *testing.B) {
	for _, m := range []int{16, 64, 128, 256} {
		cfg := coldConfig(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCold(b, cfg)
			}
		})
	}
}
