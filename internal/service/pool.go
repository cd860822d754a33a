package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/session"
	"dlsbl/internal/sig"
)

// PoolSpec declares a named processor pool: the DLS-BL-NCP system class,
// the pool's private processing rates, the fine magnitude and the
// reputation policy. It is the JSON body of POST /v1/pools.
type PoolSpec struct {
	Name string `json:"name"`
	// Network is "ncp-fe" (default) or "ncp-nfe".
	Network string `json:"network,omitempty"`
	// TrueW are the pool's private per-unit processing times.
	TrueW []float64 `json:"w"`
	// Fine is the per-job fine magnitude F; 0 derives it per job from
	// the bids (referee.SuggestedFine).
	Fine float64 `json:"fine,omitempty"`
	// Policy is "forgive" (default) or "ban-deviants".
	Policy string `json:"policy,omitempty"`
	// Multiload selected bid reuse, which every pool now has: a pool
	// bids once and later jobs reuse the cached signed bids, re-bidding
	// only when the bid profile changes (see session.Session).
	//
	// Deprecated: decoded and ignored. It stays only because the layered
	// benchmark in bench/ still sets it.
	Multiload bool `json:"multiload,omitempty"`
	// PipelineDepth was the batch size of a retired runner that packed
	// queued jobs into one shared bus schedule. Every pool now runs a
	// plain FIFO and releases each result as its round settles.
	//
	// Deprecated: decoded and ignored. It stays only because the layered
	// benchmark in bench/ still sets it.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
}

// MaxPoolSize caps the processors in a pool (PoolSpec.TrueW) at
// creation. A round's bid exchange is Θ(m²) deliveries, each a pointer
// to its emission's shared record. A cold protocol.Run
// (BenchmarkColdRound in internal/protocol, median of 4 runs of 3 rounds
// at GOMAXPROCS 2 on a 2-vCPU KVM guest, Intel Xeon, Go 1.24) takes
// 4.1 ms and 0.11 MB at m = 16, 14 ms and 0.54 MB at m = 64, 36 ms and
// 1.4 MB at m = 128, and 71 ms and 4.3 MB at m = 256: ×2–2.5 per
// doubling in time and ×2.2–3 in bytes, rising toward ×4 as the Θ(m²)
// pointer arrays come to dominate, so a 4,096-member spec, 36 KiB of
// JSON, would cost one to three seconds of CPU and up to a gigabyte of
// allocation per job. 256 is also the largest pool that
// netbus.MailboxBytes is sized for; a larger cap must re-derive it.
const MaxPoolSize = 256

// Pool is a registered processor pool: a persistent session whose
// reputation state and warm keyring survive across the jobs the service
// runs against it. All rounds against one pool execute on its single
// runner goroutine, in admission order.
type Pool struct {
	spec      PoolSpec
	network   dlt.Network
	policy    session.Policy
	sess      *session.Session
	procNames []string
	// obs is the pool's resident tracer: every round runs under it, so
	// phase-duration quantiles and bus-event counters accumulate across
	// the pool's lifetime (see poolObs).
	obs *poolObs
	// sentinel watches every round's event stream for economic-invariant
	// violations (payment shape, conservation, telescoping installments,
	// witnessed evictions, evidenced convictions) and latches the first
	// breach for /metrics and /healthz. See obs.Sentinel.
	sentinel *obs.Sentinel

	// qmu guards the FIFO and closing for the runner, Submit and Close;
	// cond waits on it. A round runs outside every lock, so admission
	// never waits for one.
	qmu     sync.Mutex
	cond    *sync.Cond
	fifo    []*Task
	closing bool

	// state is the session state. Only the pool's runner touches it; after
	// every round it copies what Snapshot reports into pub, under mu.
	state *session.State
	mu    sync.Mutex
	pub   poolState
}

// poolState is the part of a pool's session state a snapshot reports, as
// of the last settled round.
type poolState struct {
	round   int
	banned  []string
	utility []float64
	bids    protocol.SessionStats
	traffic session.TrafficStats
}

// publish copies the session state Snapshot reports into pub and
// returns the copy. Only the runner calls it (and newPool, before the
// runner starts).
func (p *Pool) publish() poolState {
	st := poolState{
		round:   p.state.Round,
		banned:  bannedNames(p.procNames, p.state.Banned),
		utility: append([]float64(nil), p.state.CumulativeUtility...),
		bids:    p.state.BidStats(),
		traffic: p.state.Traffic,
	}
	p.mu.Lock()
	p.pub = st
	p.mu.Unlock()
	return st
}

func parseNetwork(name string) (dlt.Network, error) {
	switch strings.ToLower(name) {
	case "", "ncp-fe", "ncpfe", "fe":
		return dlt.NCPFE, nil
	case "ncp-nfe", "ncpnfe", "nfe":
		return dlt.NCPNFE, nil
	default:
		return 0, fmt.Errorf("service: unknown network %q (DLS-BL-NCP runs on ncp-fe or ncp-nfe)", name)
	}
}

func parsePolicy(name string) (session.Policy, error) {
	switch strings.ToLower(name) {
	case "", "forgive":
		return session.Forgive, nil
	case "ban-deviants", "ban":
		return session.BanDeviants, nil
	default:
		return 0, fmt.Errorf("service: unknown policy %q (forgive or ban-deviants)", name)
	}
}

func newPool(spec PoolSpec) (*Pool, error) {
	if spec.Name == "" {
		return nil, errors.New("service: pool needs a name")
	}
	if len(spec.TrueW) > MaxPoolSize {
		return nil, fmt.Errorf("service: a pool has at most %d processors, got %d", MaxPoolSize, len(spec.TrueW))
	}
	network, err := parseNetwork(spec.Network)
	if err != nil {
		return nil, err
	}
	policy, err := parsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	sess := &session.Session{
		Network: network,
		TrueW:   append([]float64(nil), spec.TrueW...),
		Fine:    spec.Fine,
		Policy:  policy,
		Keys:    sig.NewKeyring(),
		// A pool-lifetime verified-envelope memo: repeat rounds skip
		// re-verifying bit-identical envelopes.
		Memo: sig.NewVerifyMemo(),
	}
	state, err := sess.NewState()
	if err != nil {
		return nil, err
	}
	procNames := make([]string, len(spec.TrueW))
	for i := range procNames {
		procNames[i] = fmt.Sprintf("P%d", i+1)
	}
	p := &Pool{
		spec:      spec,
		network:   network,
		policy:    policy,
		sess:      sess,
		procNames: procNames,
		obs:       newPoolObs(),
		sentinel:  obs.NewSentinel(),
		state:     state,
	}
	p.cond = sync.NewCond(&p.qmu)
	p.publish()
	return p, nil
}

// bannedNames maps the banned mask to processor ids.
func bannedNames(procs []string, banned []bool) []string {
	var out []string
	for i, b := range banned {
		if b {
			out = append(out, procs[i])
		}
	}
	return out
}

// PoolSnapshot is a pool's publicly visible state, served by
// GET /v1/pools. WarmKeys counts the cached keypairs — m+1 (the processors and
// the referee) once the first round has paid the key-generation cost for
// everyone.
type PoolSnapshot struct {
	Name              string    `json:"name"`
	Network           string    `json:"network"`
	Policy            string    `json:"policy"`
	M                 int       `json:"m"`
	TrueW             []float64 `json:"w"`
	Fine              float64   `json:"fine,omitempty"`
	Rounds            int       `json:"rounds"`
	Queued            int       `json:"queued"`
	Banned            []string  `json:"banned,omitempty"`
	CumulativeUtility []float64 `json:"cumulative_utility"`
	WarmKeys          int       `json:"warm_keys"`

	// Amortized-bidding telemetry. RoundsSinceRebid counts consecutive
	// rounds served from the cached bids; MessagesSaved /
	// DeliveriesSaved / UnitsSaved total the bus traffic the avoided
	// Bidding exchanges would have cost (Deliveries is the Θ(m²) term).
	Rebids            int `json:"rebids,omitempty"`
	IncrementalRebids int `json:"incremental_rebids,omitempty"`
	RoundsSinceRebid  int `json:"rounds_since_rebid,omitempty"`
	MessagesSaved     int `json:"messages_saved,omitempty"`
	DeliveriesSaved   int `json:"deliveries_saved,omitempty"`
	UnitsSaved        int `json:"units_saved,omitempty"`

	// Verified-envelope memo telemetry (the hot-path verification cache
	// every pool carries): VerifyMemoHits counts Ed25519 verifications
	// skipped because the envelope had already verified bit-identically;
	// VerifyMemoSize is the current number of memoized digests. A copy a
	// round has already byte-matched against its message's first verified
	// copy never reaches the memo and is not counted, so an m = 16 reuse
	// round adds 49 hits (cached bids, the first copy of each payment
	// vector, the referee's checks, the meters vector's first copy).
	VerifyMemoHits int64 `json:"verify_memo_hits,omitempty"`
	VerifyMemoSize int   `json:"verify_memo_size,omitempty"`

	// SentinelViolations lists the economic-invariant breaches the pool's
	// sentinel has latched (oldest first); empty on a healthy pool. Any
	// entry here flips /healthz to 503 — an invariant violation means a
	// bug or tampering, never legitimate adversary behavior.
	SentinelViolations []string `json:"sentinel_violations,omitempty"`

	// Traffic totals the pool's control-plane bus traffic across rounds
	// (session.TrafficStats semantics: Deliveries is the Θ(m²) term).
	Traffic session.TrafficStats `json:"traffic"`

	// PhaseMS reports wall-clock duration statistics per protocol phase
	// over the pool's most recent rounds; BusEvents counts bus, transport
	// and protocol events by kind (obs event kinds: deliver, drop,
	// retransmit, eviction, …) since the pool was created. Both come from
	// the pool's resident tracer, so unlike Traffic they include a cached
	// attempt that fell back to the full exchange.
	PhaseMS   map[string]LatencySummary `json:"phase_ms,omitempty"`
	BusEvents map[string]int64          `json:"bus_events,omitempty"`
}

// Snapshot returns the pool's state as of its last settled round, and
// its queue as of now. It never waits for a running round.
func (p *Pool) Snapshot() PoolSnapshot {
	phase := p.obs.phaseSummaries()
	events := p.obs.eventCounts()
	p.qmu.Lock()
	queued := len(p.fifo)
	p.qmu.Unlock()
	p.mu.Lock()
	st := p.pub
	p.mu.Unlock()
	bs, ms := st.bids, p.sess.Memo.Stats()
	return PoolSnapshot{
		Name:               p.spec.Name,
		Network:            p.network.String(),
		Policy:             p.policy.String(),
		M:                  len(p.sess.TrueW),
		TrueW:              append([]float64(nil), p.sess.TrueW...),
		Fine:               p.spec.Fine,
		Rounds:             st.round,
		Queued:             queued,
		Banned:             append([]string(nil), st.banned...),
		CumulativeUtility:  append([]float64(nil), st.utility...),
		WarmKeys:           p.sess.Keys.Len(),
		Rebids:             bs.Rebids,
		IncrementalRebids:  bs.IncrementalRebids,
		RoundsSinceRebid:   bs.RoundsSinceRebid,
		MessagesSaved:      bs.SavedMessages,
		DeliveriesSaved:    bs.SavedDeliveries,
		UnitsSaved:         bs.SavedUnits,
		VerifyMemoHits:     ms.Hits,
		VerifyMemoSize:     ms.Size,
		SentinelViolations: p.sentinel.Violations(),
		Traffic:            st.traffic,
		PhaseMS:            phase,
		BusEvents:          events,
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.spec.Name }
