package protocol

import (
	"errors"
	"fmt"
	"math"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
	"dlsbl/internal/workload"
)

// RunCP executes the centralized DLS-BL protocol of the authors' earlier
// paper (the system this paper removes the trust assumption from): a
// TRUSTED control processor P0 collects the signed bids, computes the
// allocation, distributes the load, observes the meters, computes the
// payments and bills the user. No referee, no fines, no cross-checking —
// the control processor's honesty is assumed, exactly what DLS-BL-NCP
// exists to avoid.
//
// Only the lying knobs of a Behavior (BidFactor, SlackFactor, Abstain)
// act here: protocol deviations target the mechanics of mutual
// verification, and with a trusted center there are no mechanics to
// subvert. The run measures what decentralization costs — compare the
// BusStats against Run's (Theorem 5.4: Θ(m) here vs Θ(m²) there).
const cpControlID = "P0"

// RunCP executes the centralized protocol on a CP-network configuration.
func RunCP(cfg Config) (*Outcome, error) {
	if cfg.Network != dlt.CP {
		return nil, fmt.Errorf("protocol: RunCP requires the CP network class, got %v", cfg.Network)
	}
	if len(cfg.TrueW) < 2 {
		return nil, errors.New("protocol: need at least two processors")
	}
	for i, w := range cfg.TrueW {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("protocol: invalid true value w[%d]=%v", i, w)
		}
	}
	if !(cfg.Z >= 0) || math.IsInf(cfg.Z, 0) {
		return nil, fmt.Errorf("protocol: invalid z=%v", cfg.Z)
	}
	m := len(cfg.TrueW)
	nBlocks := cfg.NBlocks
	if nBlocks == 0 {
		nBlocks = 64 * m
	}
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = 32
	}

	reg := sig.NewRegistry()
	seed := cfg.Seed
	newKey := func(id string) (*sig.KeyPair, error) {
		seed++
		k, err := sig.GenerateKeyPair(id, sig.DeterministicSource(seed))
		if err != nil {
			return nil, err
		}
		if err := reg.Register(id, k.Public); err != nil {
			return nil, err
		}
		return k, nil
	}
	if _, err := newKey(UserID); err != nil {
		return nil, err
	}
	if _, err := newKey(cpControlID); err != nil {
		return nil, err
	}

	procs := make([]string, m)
	agents := make([]*agent.Agent, m)
	for i := 0; i < m; i++ {
		procs[i] = fmt.Sprintf("P%d", i+1)
		k, err := newKey(procs[i])
		if err != nil {
			return nil, err
		}
		var b agent.Behavior
		if i < len(cfg.Behaviors) {
			b = cfg.Behaviors[i]
		}
		if b.Abstain {
			return nil, errors.New("protocol: RunCP does not model abstention")
		}
		a, err := agent.New(procs[i], k, cfg.TrueW[i], b)
		if err != nil {
			return nil, err
		}
		agents[i] = a
	}

	net, err := bus.New(cfg.Z)
	if err != nil {
		return nil, err
	}
	for _, id := range append([]string{cpControlID}, procs...) {
		if err := net.Attach(id); err != nil {
			return nil, err
		}
	}
	ledger, err := payment.NewLedger(append([]string{UserID}, procs...)...)
	if err != nil {
		return nil, err
	}

	// Bidding: every processor unicasts its signed bid to P0.
	bids := make([]float64, m)
	for i, a := range agents {
		env, err := sig.SealBinary(a.Key, referee.KindBid, referee.BidPayload{Proc: a.ID, Bid: a.Bid()})
		if err != nil {
			return nil, err
		}
		if err := net.Send(a.ID, cpControlID, referee.KindBid, env, 1); err != nil {
			return nil, err
		}
		bids[i] = a.Bid()
	}
	msgs, err := net.Drain(cpControlID)
	if err != nil {
		return nil, err
	}
	for _, msg := range msgs {
		var bp referee.BidPayload
		if err := msg.Env.Open(reg, &bp); err != nil {
			return nil, fmt.Errorf("protocol: control processor rejected a bid: %w", err)
		}
	}

	// Allocation and distribution by the trusted center.
	alloc, err := dlt.Optimal(dlt.Instance{Network: dlt.CP, Z: cfg.Z, W: bids})
	if err != nil {
		return nil, err
	}
	assigns, err := workload.Partition(alloc, nBlocks)
	if err != nil {
		return nil, err
	}

	// Processing: the center observes the meters directly.
	exec := make([]float64, m)
	phi := make([]float64, m)
	for i, a := range agents {
		exec[i] = a.Exec()
		phi[i] = alloc[i] * exec[i]
	}
	realized := dlt.Instance{Network: dlt.CP, Z: cfg.Z, W: exec}
	tl, err := dlt.Schedule(realized, alloc)
	if err != nil {
		return nil, err
	}

	// Payments: computed once by P0, announced to each processor (one
	// scalar each), billed to the user.
	eng := core.NewPaymentEngine(dlt.CP, cfg.Z)
	derived := make([]float64, m)
	for j := range derived {
		if alloc[j] > 0 {
			derived[j] = phi[j] / alloc[j]
		} else {
			derived[j] = bids[j]
		}
	}
	out, err := eng.Run(bids, derived, core.WithVerification)
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		// The center announces each processor's payment: one scalar per
		// processor — the Θ(m) control traffic of the centralized design.
		env := sig.Envelope{Sender: cpControlID, Kind: referee.KindPayment}
		if err := net.Send(cpControlID, p, referee.KindPayment, env, 1); err != nil {
			return nil, err
		}
	}
	inv := payment.Invoice{Payer: UserID}
	for i, p := range procs {
		inv.Lines = append(inv.Lines, payment.InvoiceLine{
			Account: p,
			Memo:    fmt.Sprintf("payment Q for %s (centralized DLS-BL)", p),
			Amount:  out.Payment[i],
		})
	}
	if err := ledger.PayInvoice(inv); err != nil {
		return nil, err
	}

	res := &Outcome{
		Completed:    true,
		Procs:        procs,
		Participated: make([]bool, m),
		Bids:         bids,
		Alloc:        alloc,
		Assignments:  assigns,
		Exec:         exec,
		Phi:          phi,
		Payments:     append([]float64(nil), out.Payment...),
		Fines:        make([]float64, m),
		Rewards:      make([]float64, m),
		Utilities:    make([]float64, m),
		WorkCost:     append([]float64(nil), phi...),
		Timeline:     tl,
		Makespan:     tl.Makespan,
		Invoice:      inv,
		UserCost:     out.UserCost,
		BusStats:     net.Stats(),
	}
	for i := range res.Participated {
		res.Participated[i] = true
		res.Utilities[i] = out.Payment[i] - phi[i]
	}
	return res, nil
}
