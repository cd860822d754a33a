package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
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
	// Multiload amortizes the Bidding phase across the pool's jobs: the
	// pool bids once and later rounds reuse the cached signed bids,
	// re-bidding only when the bid profile changes (ban, eviction,
	// behavior change). Θ(m) control-plane traffic per job instead of
	// Θ(m²); payments are unchanged. See session.Session.Multiload.
	Multiload bool `json:"multiload,omitempty"`
	// PipelineDepth was the batch size of a retired runner that packed
	// queued jobs into one shared bus schedule. Every pool now runs a
	// plain FIFO and releases each result as its round settles.
	//
	// Deprecated: decoded and ignored. It stays only because the layered
	// benchmark in bench/ still sets it.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
}

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

	mu      sync.Mutex
	cond    *sync.Cond
	fifo    []*Task
	state   *session.State
	closing bool
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
	network, err := parseNetwork(spec.Network)
	if err != nil {
		return nil, err
	}
	policy, err := parsePolicy(spec.Policy)
	if err != nil {
		return nil, err
	}
	sess := &session.Session{
		Network:   network,
		TrueW:     append([]float64(nil), spec.TrueW...),
		Fine:      spec.Fine,
		Policy:    policy,
		Keys:      sig.NewKeyring(),
		Multiload: spec.Multiload,
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
	p.cond = sync.NewCond(&p.mu)
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
// GET /v1/pools. WarmKeys counts the cached keypairs — m+2 once the first
// round has paid the key-generation cost for everyone.
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

	// Amortized-bidding telemetry (Multiload pools). RoundsSinceRebid
	// counts consecutive rounds served from the cached bids;
	// MessagesSaved / DeliveriesSaved / UnitsSaved total the bus traffic
	// the avoided Bidding exchanges would have cost (Deliveries is the
	// Θ(m²) term).
	Multiload         bool `json:"multiload,omitempty"`
	Rebids            int  `json:"rebids,omitempty"`
	IncrementalRebids int  `json:"incremental_rebids,omitempty"`
	RoundsSinceRebid  int  `json:"rounds_since_rebid,omitempty"`
	MessagesSaved     int  `json:"messages_saved,omitempty"`
	DeliveriesSaved   int  `json:"deliveries_saved,omitempty"`
	UnitsSaved        int  `json:"units_saved,omitempty"`

	// Verified-envelope memo telemetry (the hot-path verification cache
	// every pool carries): VerifyMemoHits counts Ed25519 verifications
	// skipped because the envelope had already verified bit-identically;
	// VerifyMemoSize is the current number of memoized digests.
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
	// the pool's resident tracer.
	PhaseMS   map[string]LatencySummary `json:"phase_ms,omitempty"`
	BusEvents map[string]int64          `json:"bus_events,omitempty"`
}

// Snapshot returns the pool's current state.
func (p *Pool) Snapshot() PoolSnapshot {
	phase := p.obs.phaseSummaries()
	events := p.obs.eventCounts()
	p.mu.Lock()
	defer p.mu.Unlock()
	bs := p.state.BidStats()
	ms := p.sess.Memo.Stats()
	return PoolSnapshot{
		Name:               p.spec.Name,
		Network:            p.network.String(),
		Policy:             p.policy.String(),
		M:                  len(p.sess.TrueW),
		TrueW:              append([]float64(nil), p.sess.TrueW...),
		Fine:               p.spec.Fine,
		Rounds:             p.state.Round,
		Queued:             len(p.fifo),
		Banned:             bannedNames(p.procNames, p.state.Banned),
		CumulativeUtility:  append([]float64(nil), p.state.CumulativeUtility...),
		WarmKeys:           p.sess.Keys.Len(),
		Multiload:          p.spec.Multiload,
		Rebids:             bs.Rebids,
		IncrementalRebids:  bs.IncrementalRebids,
		RoundsSinceRebid:   bs.RoundsSinceRebid,
		MessagesSaved:      bs.SavedMessages,
		DeliveriesSaved:    bs.SavedDeliveries,
		UnitsSaved:         bs.SavedUnits,
		VerifyMemoHits:     ms.Hits,
		VerifyMemoSize:     ms.Size,
		SentinelViolations: p.sentinel.Violations(),
		Traffic:            p.state.Traffic,
		PhaseMS:            phase,
		BusEvents:          events,
	}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.spec.Name }

// Rounds returns the number of rounds the pool has played.
func (p *Pool) Rounds() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.Round
}
