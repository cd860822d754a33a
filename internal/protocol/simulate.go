package protocol

import (
	"fmt"

	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/sim"
)

// SimulateTimeline replays the load distribution and processing as
// discrete events on a simulated one-port bus: the originator issues each
// transfer as a reservation on the shared data plane, a delivery event
// fires when the transfer completes, and each processor's computation is
// an event chain of its own. It is an *independent* realization of the
// schedule — the closed-form finishing-time equations never appear — and
// the tests cross-validate it against dlt.Schedule span by span.
//
// alloc is in processor index order; exec are the execution values the
// computations run at. plan, when non-nil, is the bus's FaultPlan.
// Control-plane faults are irrelevant here (the load transfers use the
// data plane only); what matters is the data-plane slice of the plan —
// JitterMax, which stretches each reserved transfer by seeded uniform
// jitter, and per-pair Jitter rules, which key each transfer by its
// destination's bus identity in procs. procs, when non-nil, must be
// index-aligned with alloc; nil procs reserves untargeted transfers
// (global jitter only).
func SimulateTimeline(net dlt.Network, z float64, alloc dlt.Allocation, exec []float64, plan *bus.FaultPlan, procs []string) (dlt.Timeline, error) {
	m := len(alloc)
	if len(exec) != m {
		return dlt.Timeline{}, fmt.Errorf("protocol: %d exec values for %d fractions", len(exec), m)
	}
	if procs != nil && len(procs) != m {
		return dlt.Timeline{}, fmt.Errorf("protocol: %d processor names for %d fractions", len(procs), m)
	}
	if net != dlt.NCPFE && net != dlt.NCPNFE && net != dlt.CP {
		return dlt.Timeline{}, fmt.Errorf("protocol: unknown network %v", net)
	}
	plane, err := bus.NewFaulty(z, plan)
	if err != nil {
		return dlt.Timeline{}, err
	}
	engine := sim.New()
	tl := dlt.Timeline{Instance: dlt.Instance{Network: net, Z: z, W: append([]float64(nil), exec...)}}

	compute := func(proc int, start float64) error {
		return engine.At(start, func() {
			end := engine.Now() + alloc[proc]*exec[proc]
			tl.Spans = append(tl.Spans, dlt.Span{
				Proc: proc, Kind: dlt.Comp, Start: engine.Now(), End: end, Frac: alloc[proc],
			})
		})
	}

	orig := net.Originator(m)
	lastTransferEnd := 0.0
	for i := 0; i < m; i++ {
		if i == orig {
			continue // the originator's fraction never crosses the bus
		}
		proc := i
		to := ""
		if procs != nil {
			to = procs[proc]
		}
		start, end, err := plane.ReserveTransferTo(0, alloc[proc], to)
		if err != nil {
			return dlt.Timeline{}, err
		}
		tl.Spans = append(tl.Spans, dlt.Span{
			Proc: proc, Kind: dlt.Comm, Start: start, End: end, Frac: alloc[proc], BusOwner: true,
		})
		if end > lastTransferEnd {
			lastTransferEnd = end
		}
		// Delivery event: computation starts the instant the fraction
		// arrives.
		if err := compute(proc, end); err != nil {
			return dlt.Timeline{}, err
		}
	}
	switch net {
	case dlt.NCPFE:
		// Front end: the originator computes from time zero.
		if err := compute(orig, 0); err != nil {
			return dlt.Timeline{}, err
		}
	case dlt.NCPNFE:
		// No front end: the originator computes after its last transfer.
		if err := compute(orig, lastTransferEnd); err != nil {
			return dlt.Timeline{}, err
		}
	case dlt.CP:
		// The control processor never computes; all workers were served
		// above (orig = -1, so nobody was skipped).
	}
	if err := engine.Run(4 * m); err != nil {
		return dlt.Timeline{}, err
	}
	for _, s := range tl.Spans {
		if s.End > tl.Makespan {
			tl.Makespan = s.End
		}
	}
	return tl, nil
}
