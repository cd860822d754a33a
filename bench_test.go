// Benchmark harness: one bench per reproduced paper artifact (E1…E12,
// matching DESIGN.md §4), plus the ablation micro-benches DESIGN.md §5
// calls out (closed form vs bisection solver, signature costs, protocol
// scaling). Run with:
//
//	go test -bench=. -benchmem
package dlsbl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dlsbl"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/experiments"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

// benchExperiment runs a registered experiment end-to-end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(42); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One bench per paper artifact ----

func BenchmarkE1FigureCP(b *testing.B)               { benchExperiment(b, "E1") }
func BenchmarkE2FigureNCPFE(b *testing.B)            { benchExperiment(b, "E2") }
func BenchmarkE3FigureNCPNFE(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4SimultaneousFinish(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5OrderInvariance(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Strategyproofness(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7VoluntaryParticipation(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8Compliance(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9FinesOnlyDeviants(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10CommComplexity(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Baselines(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkE12Verification(b *testing.B)          { benchExperiment(b, "E12") }

// Extension experiments (DESIGN.md §4, X-series).
func BenchmarkX1StarSequencing(b *testing.B)      { benchExperiment(b, "X1") }
func BenchmarkX2Coalitions(b *testing.B)          { benchExperiment(b, "X2") }
func BenchmarkX3Frugality(b *testing.B)           { benchExperiment(b, "X3") }
func BenchmarkX4Topologies(b *testing.B)          { benchExperiment(b, "X4") }
func BenchmarkX5MultiRound(b *testing.B)          { benchExperiment(b, "X5") }
func BenchmarkX6StarMechanism(b *testing.B)       { benchExperiment(b, "X6") }
func BenchmarkX7LinearMechanism(b *testing.B)     { benchExperiment(b, "X7") }
func BenchmarkX8ResultCollection(b *testing.B)    { benchExperiment(b, "X8") }
func BenchmarkX9TreeNetworks(b *testing.B)        { benchExperiment(b, "X9") }
func BenchmarkX10Dynamics(b *testing.B)           { benchExperiment(b, "X10") }
func BenchmarkX11Decentralization(b *testing.B)   { benchExperiment(b, "X11") }
func BenchmarkX12AffineMechanism(b *testing.B)    { benchExperiment(b, "X12") }
func BenchmarkX13CostlyVerification(b *testing.B) { benchExperiment(b, "X13") }
func BenchmarkX14RepeatedPlay(b *testing.B)       { benchExperiment(b, "X14") }
func BenchmarkX15TwoParam(b *testing.B)           { benchExperiment(b, "X15") }
func BenchmarkX18Pipeline(b *testing.B)           { benchExperiment(b, "X18") }

// ---- Ablation: closed-form allocation vs independent bisection solver ----

func benchInstance(net dlt.Network, m int) dlt.Instance {
	rng := rand.New(rand.NewSource(int64(m)))
	return dlt.RandomInstance(rng, net, m, 0.5, 8, 0.02, 0.49)
}

func BenchmarkOptimalClosedForm(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		in := benchInstance(dlt.NCPFE, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dlt.Optimal(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptimalBisection(b *testing.B) {
	for _, m := range []int{8, 64, 512} {
		in := benchInstance(dlt.NCPFE, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dlt.SolveBisect(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Mechanism and protocol scaling ----

func BenchmarkMechanismRun(b *testing.B) {
	// m = 512 and m = 4096 exercise the regime where the naive O(m²)
	// path is unusable and the raw product recursion used to underflow;
	// the O(m) engine must scale ~linearly through them.
	for _, m := range []int{4, 16, 64, 512, 4096} {
		in := benchInstance(dlt.NCPFE, m)
		mech := core.Mechanism{Network: dlt.NCPFE, Z: in.Z}
		exec := core.TruthfulExec(in.W)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mech.Run(in.W, exec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaymentEngineRunInto is the steady-state hot path: a warm
// engine writing into a reused Outcome. Allocs/op must report 0.
func BenchmarkPaymentEngineRunInto(b *testing.B) {
	for _, m := range []int{4, 64, 512, 4096} {
		in := benchInstance(dlt.NCPFE, m)
		exec := core.TruthfulExec(in.W)
		eng := core.NewPaymentEngine(dlt.NCPFE, in.Z)
		var out core.Outcome
		if err := eng.RunInto(in.W, exec, core.WithVerification, &out); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := eng.RunInto(in.W, exec, core.WithVerification, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProtocolHonest(b *testing.B) {
	for _, m := range []int{4, 16, 64} {
		in := benchInstance(dlt.NCPFE, m)
		cfg := protocol.Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: 1, NBlocks: 8 * m}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var units int
			for i := 0; i < b.N; i++ {
				out, err := protocol.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				units = out.BusStats.Units
			}
			b.ReportMetric(float64(units), "msg-units")
		})
	}
}

func BenchmarkSchedule(b *testing.B) {
	in := benchInstance(dlt.NCPFE, 64)
	a, err := dlt.Optimal(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dlt.Schedule(in, a); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Crypto substrate costs ----

func BenchmarkSealAndVerify(b *testing.B) {
	k, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(1))
	if err != nil {
		b.Fatal(err)
	}
	reg := sig.NewRegistry()
	if err := reg.Register(k.ID, k.Public); err != nil {
		b.Fatal(err)
	}
	payload := map[string]float64{"bid": 2.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := sig.Seal(k, "bid", payload)
		if err != nil {
			b.Fatal(err)
		}
		if err := env.Verify(reg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Facade sanity bench (also exercises the public API) ----

func BenchmarkFacadeOptimal(b *testing.B) {
	in := dlsbl.Instance{Network: dlsbl.NCPFE, Z: 0.2, W: []float64{1, 1.5, 2, 2.5}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := dlsbl.OptimalMakespan(in); err != nil {
			b.Fatal(err)
		}
	}
}
