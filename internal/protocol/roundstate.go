package protocol

import (
	"fmt"
	"slices"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// roundState is the part of a round that depends only on its participant
// set, and the machinery and working storage every round resets rather
// than rebuilds. In the paper, Initialization registers each processor's
// keys with the PKI once and only the later phases repeat per load, and
// every installment of a pipelined load replays the same participant
// set; so a BidSession keeps one roundState and hands it to each round
// it serves. A one-shot Run builds one that dies with the run.
//
// setup builds the names, keys, registry, ledger and bus afresh whenever
// the round's participant set differs from the one they were built for
// (an abstention or a ban), so a round's PKI never holds a
// non-participant's key, and resets everything at the start of every
// round it serves, so nothing an aborted or panicked round left behind
// reaches the next. The working storage (the verifier's scratch, the
// payments working set, the cached round's bid set) is rewritten in full
// by every round before that round reads it, so the in-place compaction
// an eviction applies to the bid set cannot leak into a later round.
// Nothing a round hands out (its outcome, the bid cache) points into the
// state: runs copy the names, outcomes copy the per-processor series,
// and captureBidCache copies the bid set.
type roundState struct {
	// part is the participant set (config indices) the names, keys,
	// registry, ledger and bus were built for. A session never arms a
	// standby referee, so only a one-shot run's state includes one.
	part []int
	// procs names the participants, index-aligned with part. keys holds
	// the referee's pair, one per participant, then the standby's.
	procs []string
	keys  []*sig.KeyPair
	reg   *sig.Registry
	// ver is the batch verifier every round resets over reg and the
	// round's memo; the transport and the referee verify through it.
	ver *sig.BatchVerifier
	// ledger holds the user's, the referee's and every participant's
	// account.
	ledger *payment.Ledger
	// net is the simulated bus with every endpoint attached and xp the
	// transport over it; both nil until a round on the simulated bus
	// builds them. Each round resets the bus under its own job's fault
	// plan.
	net *bus.Bus
	xp  *transport
	// engine prices the Computing Payments phase into payOut; both keep
	// their buffers across rounds.
	engine *core.PaymentEngine
	payOut core.Outcome
	// ref is reseated by each round's seatReferee; its audit entries go
	// to the round's outcome.
	ref *referee.Referee
	// agents backs each round's agents, which setup initializes afresh.
	agents []agent.Agent
	// subs (each processor's payment submissions) and index (participant
	// name → config slot) are maps a round clears and fills before use.
	subs  map[string][]sig.Envelope
	index map[string]int
	// The Computing Payments working set: the execution values derived
	// from the meters, one payload and one sealing request per submission
	// (each request points at its payload, so none is boxed), and the
	// payment envelopes, each round's sealed over the bytes of the last.
	// Nothing reads an envelope after its round: the bus and transport
	// that carried it are reset, and the referee decodes into its own
	// buffers.
	derived  []float64
	payloads []referee.PaymentPayload
	seals    []sig.Sealing
	payEnvs  []sig.Envelope
	// bids, bidEnvs and epochs hold the bid set a cached round installs
	// (keepCachedBids). Bid envelopes are copied headers: their bytes
	// stay the bid cache's.
	bids    []float64
	bidEnvs []sig.Envelope
	epochs  []string
}

// prepare readies st for a round over the participants part. When st
// already serves exactly these participants it resets the ledger;
// otherwise it builds names, keys, registry and ledger for them and drops
// the bus and transport, which know the old endpoints. Either way the
// engine takes the round's network and bus rate.
func (st *roundState) prepare(cfg Config, part []int) error {
	if st.engine == nil {
		st.engine = core.NewPaymentEngine(cfg.Network, cfg.Z)
	}
	st.engine.Network, st.engine.Z = cfg.Network, cfg.Z
	if st.reg != nil && slices.Equal(st.part, part) {
		st.ledger.Reset()
		return nil
	}
	st.part = append([]int(nil), part...)
	st.procs = make([]string, len(part))
	for i, orig := range part {
		st.procs[i] = fmt.Sprintf("P%d", orig+1)
	}
	st.net, st.xp = nil, nil
	ids := append([]string{referee.Account}, st.procs...)
	// The standby comes LAST so that every earlier identity's
	// deterministic key — and therefore every signed artifact and payment
	// of the run — is bit-identical to a non-standby run's with the same
	// Seed.
	if cfg.Standby {
		ids = append(ids, referee.StandbyAccount)
	}
	st.reg = sig.NewRegistry()
	var err error
	if st.keys, err = loadKeys(cfg, st.reg, ids); err != nil {
		st.reg = nil
		return err
	}
	accounts := append([]string{UserID, referee.Account}, st.procs...)
	if st.ledger, err = payment.NewLedger(accounts...); err != nil {
		st.reg = nil
		return err
	}
	return nil
}

// endpoints lists the bus identities of a round over st's participants:
// every participant, the referee and, when st holds its key, the
// standby.
func (st *roundState) endpoints() []string {
	ids := append(append([]string(nil), st.procs...), referee.Account)
	if len(st.keys) > len(st.procs)+1 {
		ids = append(ids, referee.StandbyAccount)
	}
	return ids
}

// simBus returns st's simulated bus and its transport, ready for a
// round at bus rate z under the fault plan (nil for the paper's reliable
// bus) and the retry policy: reset when st already holds them, built
// with every endpoint attached otherwise.
func (st *roundState) simBus(z float64, plan *bus.FaultPlan, ver *sig.BatchVerifier, retry RetryPolicy) (*bus.Bus, *transport, error) {
	if st.net != nil {
		if err := st.net.Reset(z, plan); err != nil {
			return nil, nil, err
		}
		if err := st.xp.reset(ver, retry); err != nil {
			return nil, nil, err
		}
		return st.net, st.xp, nil
	}
	net, err := bus.NewFaulty(z, plan)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range st.endpoints() {
		if err := net.Attach(id); err != nil {
			return nil, nil, err
		}
	}
	xp, err := newTransport(net, ver, retry)
	if err != nil {
		return nil, nil, err
	}
	st.net, st.xp = net, xp
	return net, xp, nil
}
