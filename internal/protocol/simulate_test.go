package protocol

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dlsbl/internal/dlt"
)

// TestSimulateMatchesClosedFormSchedule: the event-driven realization and
// the analytic schedule agree on every processor's finish time and on the
// makespan, across all three network classes.
func TestSimulateMatchesClosedFormSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, net := range dlt.Networks {
		for trial := 0; trial < 60; trial++ {
			m := 1 + rng.Intn(12)
			if net != dlt.CP && m < 2 {
				m = 2
			}
			in := dlt.DefaultRandomInstance(rng, net, m)
			alloc, err := dlt.Optimal(in)
			if err != nil {
				t.Fatal(err)
			}
			// Random execution slack on top of the bids.
			exec := make([]float64, m)
			for i := range exec {
				exec[i] = in.W[i] * (1 + rng.Float64())
			}
			analytic, err := dlt.Schedule(dlt.Instance{Network: net, Z: in.Z, W: exec}, alloc)
			if err != nil {
				t.Fatal(err)
			}
			simulated, err := SimulateTimeline(net, in.Z, alloc, exec, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			af := analytic.FinishTimes()
			sf := simulated.FinishTimes()
			for i := range af {
				if relErr(af[i], sf[i]) > 1e-9 {
					t.Errorf("%v m=%d: T[%d] analytic %v, simulated %v", net, m, i, af[i], sf[i])
				}
			}
			if relErr(analytic.Makespan, simulated.Makespan) > 1e-9 {
				t.Errorf("%v m=%d: makespan analytic %v, simulated %v", net, m, analytic.Makespan, simulated.Makespan)
			}
			assertBusSerial(t, simulated)
		}
	}
}

func assertBusSerial(t *testing.T, tl dlt.Timeline) {
	t.Helper()
	spans := tl.BusSpans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End-1e-12 {
			t.Errorf("simulated bus spans overlap: %+v then %+v", spans[i-1], spans[i])
		}
	}
}

// TestSimulateMatchesProtocolOutcome: the timeline the full protocol
// reports equals the event-driven one for the same inputs.
func TestSimulateMatchesProtocolOutcome(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := SimulateTimeline(dlt.NCPFE, cfg.Z, out.Alloc, out.Exec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(out.Makespan, simulated.Makespan) > 1e-9 {
		t.Errorf("protocol makespan %v, simulated %v", out.Makespan, simulated.Makespan)
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := SimulateTimeline(dlt.NCPFE, 0.2, dlt.Allocation{0.5, 0.5}, []float64{1}, nil, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SimulateTimeline(dlt.Network(9), 0.2, dlt.Allocation{1}, []float64{1}, nil, nil); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := SimulateTimeline(dlt.NCPFE, -1, dlt.Allocation{0.5, 0.5}, []float64{1, 1}, nil, nil); err == nil {
		t.Error("negative z accepted")
	}
}

// TestSimulateZeroFraction: processors with zero load finish at their
// (empty) delivery instant and contribute nothing to the makespan.
func TestSimulateZeroFraction(t *testing.T) {
	tl, err := SimulateTimeline(dlt.NCPFE, 0.5, dlt.Allocation{0.7, 0.3, 0}, []float64{1, 1, 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(0.7, 0.5*0.3+0.3)
	if relErr(tl.Makespan, want) > 1e-9 {
		t.Errorf("makespan %v, want %v", tl.Makespan, want)
	}
}
