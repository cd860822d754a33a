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
// set, and the machinery every round resets rather than rebuilds. In the
// paper, Initialization registers each processor's keys with the PKI
// once and only the later phases repeat per load, and every installment
// of a pipelined load replays the same participant set; so a BidSession
// keeps one roundState and hands it to each round it serves. A one-shot
// Run builds one that dies with the run.
//
// setup builds the names, keys, registry, ledger and bus afresh whenever
// the round's participant set differs from the one they were built for
// (an abstention or a ban), so a round's PKI never holds a
// non-participant's key, and resets everything at the start of every
// round it serves, so nothing an aborted or panicked round left behind
// reaches the next. No slice a run compacts on eviction is the state's:
// runs copy the names.
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
	// ledger holds the user's, the referee's and every participant's
	// account.
	ledger *payment.Ledger
	// net is the reliable bus with every endpoint attached and xp the
	// transport over it; both nil until a round without a fault plan or
	// an external medium builds them. A job with a fault plan builds its
	// own bus and transport.
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
// every participant, the referee and, when armed, the standby.
func (st *roundState) endpoints(standby bool) []string {
	ids := append(append([]string(nil), st.procs...), referee.Account)
	if standby {
		ids = append(ids, referee.StandbyAccount)
	}
	return ids
}

// reliable returns st's reliable bus and its transport, ready for a round
// at bus rate z under the retry policy: reset when st already holds them,
// built with every endpoint attached otherwise. Only a one-shot run arms
// a standby, and its bus is its own.
func (st *roundState) reliable(z float64, ver *sig.BatchVerifier, retry RetryPolicy) (*bus.Bus, *transport, error) {
	if st.net != nil {
		if err := st.net.Reset(z); err != nil {
			return nil, nil, err
		}
		if err := st.xp.reset(ver, retry); err != nil {
			return nil, nil, err
		}
		return st.net, st.xp, nil
	}
	net, err := bus.New(z)
	if err != nil {
		return nil, nil, err
	}
	for _, id := range st.endpoints(false) {
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
