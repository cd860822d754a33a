package service

import (
	"fmt"
	"sync"
	"testing"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

// TestLoad200ConcurrentJobs is the PR's acceptance load test: 200
// concurrent job submissions spread across 8 pools, run under -race,
// with every job's payments bit-identical to a direct protocol.Run with
// the same seed. All pools share TrueW, so one reference run per seed
// covers every pool — payments depend only on (z, w, seed), never on
// which pool (or which warm keyring) played the round.
func TestLoad200ConcurrentJobs(t *testing.T) {
	const (
		nPools    = 8
		seedsPer  = 25 // 8 × 25 = 200 submissions
		z         = 0.2
		totalJobs = nPools * seedsPer
	)
	trueW := []float64{1, 1.5, 2, 2.5}

	// Reference payments, one cold direct run per seed.
	want := make(map[int64][]float64, seedsPer)
	for seed := int64(1); seed <= seedsPer; seed++ {
		out, err := protocol.Run(protocol.Config{
			Network: dlt.NCPFE, Z: z, TrueW: trueW, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = out.Payments
	}

	srv := New(Config{Workers: 4, QueueDepth: totalJobs})
	defer srv.Close()
	srv.testHookDuringRun = overlapRendezvous(2)
	poolNames := make([]string, nPools)
	for i := range poolNames {
		poolNames[i] = fmt.Sprintf("pool-%02d", i)
		if _, err := srv.CreatePool(PoolSpec{Name: poolNames[i], TrueW: trueW}); err != nil {
			t.Fatal(err)
		}
	}

	// 200 goroutines, one submission each, all released at once.
	type outcome struct {
		pool string
		seed int64
		res  JobResult
	}
	results := make(chan outcome, totalJobs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, pool := range poolNames {
		for seed := int64(1); seed <= seedsPer; seed++ {
			wg.Add(1)
			go func(pool string, seed int64) {
				defer wg.Done()
				<-start
				tasks, err := srv.Submit(pool, []JobSpec{{Z: z, Seed: seed}}, nil)
				if err != nil {
					t.Errorf("submit %s seed %d: %v", pool, seed, err)
					return
				}
				results <- outcome{pool: pool, seed: seed, res: tasks[0].Wait()}
			}(pool, seed)
		}
	}
	close(start)
	wg.Wait()
	close(results)

	seen := 0
	for o := range results {
		seen++
		if o.res.Error != "" {
			t.Fatalf("%s seed %d failed: %s", o.pool, o.seed, o.res.Error)
		}
		if !equalF64(o.res.Payments, want[o.seed]) {
			t.Fatalf("%s seed %d: payments %v, direct run got %v",
				o.pool, o.seed, o.res.Payments, want[o.seed])
		}
	}
	if seen != totalJobs {
		t.Fatalf("collected %d results, want %d", seen, totalJobs)
	}

	// Every pool played exactly its share of rounds, serialized locally,
	// on a keyring warmed once.
	for _, name := range poolNames {
		p, ok := srv.Pool(name)
		if !ok {
			t.Fatalf("pool %s missing", name)
		}
		snap := p.Snapshot()
		if snap.Rounds != seedsPer {
			t.Fatalf("pool %s rounds = %d, want %d", name, snap.Rounds, seedsPer)
		}
		if snap.WarmKeys != len(trueW)+1 {
			t.Fatalf("pool %s warm keys = %d, want %d", name, snap.WarmKeys, len(trueW)+1)
		}
	}
	m := srv.Metrics()
	if m.Jobs.Completed != totalJobs || m.Jobs.Failed != 0 {
		t.Fatalf("metrics completed=%d failed=%d, want %d/0", m.Jobs.Completed, m.Jobs.Failed, totalJobs)
	}
	if m.Jobs.PeakRun < 2 {
		t.Fatalf("peak running = %d; distinct pools never overlapped", m.Jobs.PeakRun)
	}
}
