// Package dlsbl is the public API of this reproduction of Carroll &
// Grosu, "A Strategyproof Mechanism for Scheduling Divisible Loads in Bus
// Networks without Control Processor" (IPPS 2006).
//
// The library has three layers, re-exported here:
//
//   - Divisible Load Theory: optimal single-round load allocation on bus
//     networks (Instance, Allocation, Optimal, Makespan, Schedule) for the
//     three system classes CP, NCPFE and NCPNFE;
//   - the DLS-BL mechanism: compensation-and-bonus payments with
//     verification (Mechanism, Outcome) that make truth-telling a dominant
//     strategy;
//   - the DLS-BL-NCP protocol: the fully distributed execution of DLS-BL
//     by the strategic processors themselves, with signed messages, a
//     passive referee, fines and fine redistribution (ProtocolConfig,
//     RunProtocol, Behavior). The paper's reliable-broadcast assumption
//     is optional: a seeded FaultPlan injects drops, duplicates,
//     corruption, reordering and jitter, and the protocol answers with
//     idempotent retransmission (RetryPolicy), eviction of unreachable
//     processors and survivor re-allocation (see examples/faultybus).
//
// Quick start:
//
//	in := dlsbl.Instance{Network: dlsbl.NCPFE, Z: 0.2, W: []float64{1, 2, 3}}
//	alloc, makespan, _ := dlsbl.OptimalMakespan(in)
//
//	mech := dlsbl.Mechanism{Network: dlsbl.NCPFE, Z: 0.2}
//	out, _ := mech.Run([]float64{1, 2, 3}, []float64{1, 2, 3})
//
//	res, _ := dlsbl.RunProtocol(dlsbl.ProtocolConfig{
//		Network: dlsbl.NCPFE, Z: 0.2, TrueW: []float64{1, 2, 3},
//	})
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every reproduced figure and theorem.
package dlsbl

import (
	"math/rand"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/dynamics"
	"dlsbl/internal/experiments"
	"dlsbl/internal/gantt"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/session"
)

// ---- Divisible Load Theory (Section 2) ----

// Network identifies a bus-network system class.
type Network = dlt.Network

// The three system classes of the paper.
const (
	// CP: bus with a dedicated control processor (Figure 1).
	CP = dlt.CP
	// NCPFE: no control processor, originator with front end (Figure 2).
	NCPFE = dlt.NCPFE
	// NCPNFE: no control processor, originator without front end
	// (Figure 3).
	NCPNFE = dlt.NCPNFE
)

// Networks lists all three classes in paper order.
var Networks = dlt.Networks

// Instance is one divisible-load scheduling problem.
type Instance = dlt.Instance

// Allocation is a load split α with Σα_i = 1.
type Allocation = dlt.Allocation

// Timeline is an explicit schedule (used by the Gantt renderer).
type Timeline = dlt.Timeline

// AffineInstance extends Instance with fixed communication/computation
// overheads.
type AffineInstance = dlt.AffineInstance

// Optimal computes the optimal allocation (Algorithms 2.1/2.2 and the CP
// analogue).
func Optimal(in Instance) (Allocation, error) { return dlt.Optimal(in) }

// OptimalMakespan computes the optimal allocation and its makespan.
func OptimalMakespan(in Instance) (Allocation, float64, error) { return dlt.OptimalMakespan(in) }

// Makespan evaluates T(α) = max_i T_i(α) for an arbitrary allocation.
func Makespan(in Instance, a Allocation) (float64, error) { return dlt.Makespan(in, a) }

// FinishTimes evaluates the per-processor finishing times of eqs. (1)–(3).
func FinishTimes(in Instance, a Allocation) ([]float64, error) { return dlt.FinishTimes(in, a) }

// Schedule builds the explicit single-round timeline for an allocation.
func Schedule(in Instance, a Allocation) (Timeline, error) { return dlt.Schedule(in, a) }

// EqualSplit and ProportionalSplit are the naive baseline allocators.
func EqualSplit(m int) Allocation              { return dlt.EqualSplit(m) }
func ProportionalSplit(w []float64) Allocation { return dlt.ProportionalSplit(w) }

// OptimalAffine solves the affine-cost extension (fixed overheads, with
// participant selection).
func OptimalAffine(in AffineInstance) (Allocation, float64, error) { return dlt.OptimalAffine(in) }

// StarInstance is the heterogeneous-link star/single-level-tree extension
// (the paper's "other network architectures" future work).
type StarInstance = dlt.StarInstance

// StarAllocation is a star load split (root + children).
type StarAllocation = dlt.StarAllocation

// OptimalStar computes the equal-finish allocation for a star in the
// given child order.
func OptimalStar(s StarInstance) (StarAllocation, error) { return dlt.OptimalStar(s) }

// OptimalStarOrder additionally optimizes the service order (children by
// non-decreasing link time), returning order, allocation and makespan.
func OptimalStarOrder(s StarInstance) ([]int, StarAllocation, float64, error) {
	return dlt.OptimalStarOrder(s)
}

// StarMakespan evaluates a star schedule.
func StarMakespan(s StarInstance, a StarAllocation) (float64, error) { return dlt.StarMakespan(s, a) }

// ExhaustiveStarOrder searches all service orders (m ≤ 9); it exists to
// validate OptimalStarOrder.
func ExhaustiveStarOrder(s StarInstance) ([]int, float64, error) {
	return dlt.ExhaustiveStarOrder(s)
}

// LinearInstance is the daisy-chain (linear network) extension: P_1
// originates and the load is forwarded store-and-forward down the chain,
// every processor computing while it forwards.
type LinearInstance = dlt.LinearInstance

// OptimalLinear computes the equal-finish chain allocation.
func OptimalLinear(l LinearInstance) (Allocation, error) { return dlt.OptimalLinear(l) }

// OptimalLinearMakespan returns the chain allocation and its makespan.
func OptimalLinearMakespan(l LinearInstance) (Allocation, float64, error) {
	return dlt.OptimalLinearMakespan(l)
}

// LinearMakespan evaluates an arbitrary allocation on the chain.
func LinearMakespan(l LinearInstance, a Allocation) (float64, error) {
	return dlt.LinearMakespan(l, a)
}

// LinearSchedule builds the explicit chain timeline (renderable with
// RenderGantt).
func LinearSchedule(l LinearInstance, a Allocation) (Timeline, error) {
	return dlt.LinearSchedule(l, a)
}

// CollectInstance adds result collection to a bus instance: results of
// size Delta·α_i return to the originator over the one-port bus
// (extension X8).
type CollectInstance = dlt.CollectInstance

// CollectOrder selects the return order.
type CollectOrder = dlt.CollectOrder

// The two canonical return orders.
const (
	FIFO = dlt.FIFO
	LIFO = dlt.LIFO
)

// ScheduleWithCollection builds the full distribute-compute-return
// timeline.
func ScheduleWithCollection(c CollectInstance, a Allocation, order CollectOrder) (Timeline, error) {
	return dlt.ScheduleWithCollection(c, a, order)
}

// CollectMakespan evaluates the collection-aware makespan.
func CollectMakespan(c CollectInstance, a Allocation, order CollectOrder) (float64, error) {
	return dlt.CollectMakespan(c, a, order)
}

// TuneCollection improves an allocation for the collection-aware makespan
// by seeded local search; it never returns a worse allocation than the
// input.
func TuneCollection(c CollectInstance, start Allocation, order CollectOrder, iters int, rng *rand.Rand) (Allocation, float64, error) {
	return dlt.TuneCollection(c, start, order, iters, rng)
}

// Tree is a multi-level distribution tree solved by the equivalent-
// processor reduction (extension X9).
type Tree = dlt.Tree

// TreeAllocation holds per-node fractions in pre-order.
type TreeAllocation = dlt.TreeAllocation

// OptimalTree computes the optimal split across a tree and its unit-load
// makespan.
func OptimalTree(t *Tree) (TreeAllocation, float64, error) { return dlt.OptimalTree(t) }

// ---- DLS-BL mechanism (Section 3) ----

// Mechanism is the DLS-BL compensation-and-bonus mechanism with
// verification.
type Mechanism = core.Mechanism

// MechanismOutcome is the full result of running DLS-BL on a bid profile.
type MechanismOutcome = core.Outcome

// SweepPoint is one sample of a bid or execution sweep.
type SweepPoint = core.SweepPoint

// PaymentRule selects the bonus evaluation rule; WithVerification is the
// paper's mechanism, WithoutVerification the E12 ablation.
type PaymentRule = core.PaymentRule

// The two payment rules.
const (
	WithVerification    = core.WithVerification
	WithoutVerification = core.WithoutVerification
)

// TruthfulExec is the execution vector of rational truthful agents.
func TruthfulExec(trueW []float64) []float64 { return core.TruthfulExec(trueW) }

// StarMechanism is DLS-BL transplanted onto a star network with
// heterogeneous public link times (extension X6): the two-parameter
// mechanism of extension X15 with every link reported and observed as it
// is.
type StarMechanism = core.StarMechanism

// AffineMechanism is DLS-BL under affine costs, with a bid-sorted
// participation threshold (extension X12).
type AffineMechanism = core.AffineMechanism

// LinearMechanism is DLS-BL transplanted onto a daisy chain, with
// non-participants modeled as pure store-and-forward relays (extension
// X7).
type LinearMechanism = core.LinearMechanism

// DynamicsConfig drives best-response bidding dynamics over the mechanism
// (extension X10).
type DynamicsConfig = dynamics.Config

// DynamicsTrace is the recorded history of a dynamics run.
type DynamicsTrace = dynamics.Trace

// RunDynamics executes best-response dynamics and returns the trace.
func RunDynamics(cfg DynamicsConfig) (*DynamicsTrace, error) { return dynamics.Run(cfg) }

// Session plays repeated jobs over one processor pool with a reputation
// policy (extension X14).
type Session = session.Session

// SessionJob is one round of a Session.
type SessionJob = session.Job

// SessionReport aggregates a Session's rounds.
type SessionReport = session.Report

// Reputation policies for a Session.
const (
	Forgive     = session.Forgive
	BanDeviants = session.BanDeviants
)

// ---- DLS-BL-NCP protocol (Section 4) ----

// ProtocolConfig describes one distributed protocol run.
type ProtocolConfig = protocol.Config

// ProtocolOutcome records everything a protocol run produced.
type ProtocolOutcome = protocol.Outcome

// Behavior is a processor strategy; the zero value is honest.
type Behavior = agent.Behavior

// Canonical behaviors, honest and deviant.
var (
	Honest        = agent.Honest
	OverBid       = agent.OverBid
	UnderBid      = agent.UnderBid
	SlowExecution = agent.SlowExecution
	Equivocator   = agent.Equivocator
	PaymentCheat  = agent.PaymentCheat
)

// DeviantCatalog lists every finable behavior.
var DeviantCatalog = agent.DeviantCatalog

// RunProtocol executes DLS-BL-NCP end-to-end.
func RunProtocol(cfg ProtocolConfig) (*ProtocolOutcome, error) { return protocol.Run(cfg) }

// FaultPlan is a seeded adversarial link layer for the simulated bus:
// message drops, duplicates, delays, signature-breaking corruption,
// reordering, data-plane latency jitter and crashed endpoints. Set it on
// ProtocolConfig.Faults (or SessionJob.Faults) to run the protocol
// without the paper's reliable-broadcast assumption; nil keeps the
// reliable bus of the paper.
type FaultPlan = bus.FaultPlan

// PairFault is a targeted fault on one directed link (FaultPlan.Pairs):
// an adversary severing or degrading chosen sender→receiver paths
// rather than the whole bus. Eviction under targeted loss demands
// corroboration from ⌈m/2⌉ distinct witnesses; below that threshold the
// referee relays the missing bid and payments stay bit-identical to the
// fault-free run (see README "Byzantine adversaries" and DESIGN.md §15).
type PairFault = bus.PairFault

// Crash schedules a processor death mid-run (FaultPlan.Crashes): the
// victim bids, is allocated, then goes dark while computing. It is
// evicted at the processing checkpoint and the remaining load
// re-balances over the survivors per Theorem 2.2.
type Crash = bus.Crash

// RetryPolicy bounds the reliable-transport machinery the protocol runs
// over a faulty bus: per-message attempt budget, capped exponential
// backoff, per-phase deadline.
type RetryPolicy = protocol.RetryPolicy

// FaultStats counts what the transport layer did during a run
// (retransmissions, duplicate/corrupt discards, backoff time, evictions).
type FaultStats = protocol.FaultStats

// EvictionEvent records a processor removed from a run for
// unreachability — an audited availability failure, not a fined offense.
type EvictionEvent = protocol.EvictionEvent

// RunProtocolCP executes the centralized prior-work DLS-BL protocol with
// a trusted control processor (extension X11's baseline).
func RunProtocolCP(cfg ProtocolConfig) (*ProtocolOutcome, error) { return protocol.RunCP(cfg) }

// BidSession amortizes the Bidding phase across a stream of loads: bid
// once, allocate many times, re-bid only on membership or rate change.
// Payments are bit-identical to per-job bidding; per-job control traffic
// drops Θ(m²) → Θ(m) after the first round (see DESIGN.md §10).
type BidSession = protocol.BidSession

// JobConfig is one load served by a BidSession.
type JobConfig = protocol.JobConfig

// NewBidSession validates the pool config (per-job fields must be unset)
// and returns a session whose first Run bids and whose later Runs reuse.
func NewBidSession(cfg ProtocolConfig) (*BidSession, error) { return protocol.NewBidSession(cfg) }

// ---- Rendering and experiments ----

// GanttOptions controls timeline rendering.
type GanttOptions = gantt.Options

// RenderGantt draws a timeline as a text Gantt chart (Figures 1–3).
func RenderGantt(tl Timeline, opt GanttOptions) (string, error) { return gantt.Render(tl, opt) }

// RenderFigure renders the paper's figure for an instance's optimal
// schedule.
func RenderFigure(in Instance, opt GanttOptions) (string, error) { return gantt.Figure(in, opt) }

// SVGOptions controls vector rendering of timelines.
type SVGOptions = gantt.SVGOptions

// RenderSVG draws a timeline as a standalone SVG document.
func RenderSVG(tl Timeline, opt SVGOptions) (string, error) { return gantt.RenderSVG(tl, opt) }

// RenderFigureSVG renders an instance's optimal schedule as SVG.
func RenderFigureSVG(in Instance, opt SVGOptions) (string, error) { return gantt.FigureSVG(in, opt) }

// AuditEntry is one record of the referee's hash-chained transcript.
type AuditEntry = referee.AuditEntry

// VerifyTranscript validates a transcript attached to a protocol outcome.
func VerifyTranscript(entries []AuditEntry) error { return referee.VerifyEntries(entries) }

// Experiment is one reproducible paper artifact (figure or theorem).
type Experiment = experiments.Experiment

// ExperimentResult is an experiment's rendered output.
type ExperimentResult = experiments.Result

// Experiments returns every experiment E1…E12 in order.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks one up ("E1" … "E12").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }
