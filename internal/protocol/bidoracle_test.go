package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dlsbl/internal/adversarytest"
	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// The receive side of the Bidding phase as it stood before it moved to
// constant work per delivered copy: the transport appended every kept
// copy to the pending buffer and took one by scanning it and shifting
// its tail; the exchange kept a need map per receiver and scanned every
// logical bid for every receiver on every attempt; the collection kept a
// seen map per receiver. TestBidReceiveOracle holds the current code to
// these reference implementations.

// oracleSeen is the reference pull's per-endpoint seen map.
var oracleSeen = make(map[*rxBuf]map[nonceKey]bool)

// oraclePull is the reference transport.pull.
func oraclePull(t *transport, id string) error {
	msgs, err := t.net.Drain(id)
	if err != nil {
		return err
	}
	b := t.buf(id)
	seen := oracleSeen[b]
	if seen == nil {
		seen = make(map[nonceKey]bool)
		oracleSeen[b] = seen
	}
	for i := range msgs {
		m := msgs[i]
		if t.ver.Verify(&msgs[i].Env) != nil {
			t.stats.CorruptDiscards++
			t.event(obs.Event{Kind: obs.EvCorruptDiscard, From: m.From, To: id, Msg: m.Kind})
			continue
		}
		k := nonceKey{from: m.From, nonce: m.Nonce}
		if seen[k] {
			t.stats.DupDiscards++
			t.event(obs.Event{Kind: obs.EvDedupHit, From: m.From, To: id, Msg: m.Kind})
			continue
		}
		seen[k] = true
		b.pending = append(b.pending, m)
	}
	return nil
}

// oracleTakeNonce is the reference transport.takeNonce.
func oracleTakeNonce(t *transport, id, from string, nonce uint64) (*bus.Message, bool) {
	b := t.buf(id)
	for i, m := range b.pending {
		if m.From == from && m.Nonce == nonce {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return m, true
		}
	}
	return nil, false
}

// oracleTakeBids is the reference receive loop of the bid exchange.
func oracleTakeBids(r *run, msgs []logicalBid) (received [][]*bus.Message, missing [][]int, err error) {
	need := make([]map[uint64]int, r.m)
	for ri := range r.agents {
		need[ri] = make(map[uint64]int, len(msgs))
		for mi, lm := range msgs {
			if lm.sender != ri {
				need[ri][lm.nonce] = mi
			}
		}
	}
	received = make([][]*bus.Message, r.m)
	outstanding := func() int {
		n := 0
		for ri := range need {
			n += len(need[ri])
		}
		return n
	}
	for attempt := 1; ; attempt++ {
		for ri, a := range r.agents {
			if err := oraclePull(r.xp, a.ID); err != nil {
				return nil, nil, err
			}
			for _, lm := range msgs {
				if _, wanted := need[ri][lm.nonce]; !wanted {
					continue
				}
				if m, ok := oracleTakeNonce(r.xp, a.ID, r.agents[lm.sender].ID, lm.nonce); ok {
					received[ri] = append(received[ri], m)
					delete(need[ri], lm.nonce)
				}
			}
		}
		if outstanding() == 0 {
			break
		}
		r.xp.stats.Timeouts++
		r.xp.event(obs.Event{Kind: obs.EvTimeout, Msg: referee.KindBid,
			Detail: fmt.Sprintf("%d bid deliveries outstanding", outstanding())})
		if attempt >= r.xp.policy.MaxAttempts || r.xp.sleep(attempt) {
			break
		}
		for ri, a := range r.agents {
			for _, lm := range msgs {
				if _, wanted := need[ri][lm.nonce]; !wanted {
					continue
				}
				if _, err := r.net.SendTagged(r.agents[lm.sender].ID, a.ID, referee.KindBid, lm.env, 1, lm.nonce); err != nil {
					return nil, nil, err
				}
				r.xp.stats.Retransmits++
				r.xp.event(obs.Event{Kind: obs.EvRetransmit, From: r.agents[lm.sender].ID, To: a.ID, Msg: referee.KindBid})
			}
		}
	}
	missing = make([][]int, r.m)
	if outstanding() == 0 {
		return received, missing, nil
	}
	for ri := range need {
		for _, mi := range need[ri] {
			if msgs[mi].primary {
				missing[ri] = append(missing[ri], msgs[mi].sender)
			}
		}
		sort.Ints(missing[ri])
	}
	return received, missing, nil
}

// oracleScanBids is the reference collection.
func oracleScanBids(r *run, received [][]*bus.Message) (equivocators []int, evidence map[int][2]sig.Envelope) {
	type seenBid struct {
		envs []sig.Envelope
		bids []float64
	}
	evidence = make(map[int][2]sig.Envelope)
	for i := range r.agents {
		seen := make(map[string]*seenBid)
		for _, msg := range received[i] {
			var bp referee.BidPayload
			if err := r.open(&msg.Env, &bp); err != nil {
				continue
			}
			if bp.Proc != msg.Env.Sender {
				continue
			}
			sb := seen[bp.Proc]
			if sb == nil {
				sb = &seenBid{}
				seen[bp.Proc] = sb
			}
			duplicate := false
			for _, prev := range sb.bids {
				if prev == bp.Bid {
					duplicate = true
					break
				}
			}
			if duplicate {
				continue
			}
			sb.envs = append(sb.envs, msg.Env)
			sb.bids = append(sb.bids, bp.Bid)
		}
		for j, p := range r.procs {
			if sb := seen[p]; sb != nil && len(sb.bids) > 1 {
				if _, already := evidence[j]; !already {
					equivocators = append(equivocators, j)
					evidence[j] = [2]sig.Envelope{sb.envs[0], sb.envs[1]}
				}
			}
		}
	}
	return equivocators, evidence
}

// biddingCapture is what one round's receive side produced, next to the
// round's outcome.
type biddingCapture struct {
	received     [][]*bus.Message
	missing      [][]int
	equivocators []int
	evidence     map[int][2]sig.Envelope
	out          *Outcome
	err          error
}

// captureRound runs cfg with take and scan as the Bidding phase's
// receive side and records what they returned.
func captureRound(cfg Config,
	take func(*run, []logicalBid) ([][]*bus.Message, [][]int, error),
	scan func(*run, [][]*bus.Message) ([]int, map[int][2]sig.Envelope),
) biddingCapture {
	var c biddingCapture
	saveTake, saveScan := receiveBids, collectBids
	defer func() { receiveBids, collectBids = saveTake, saveScan }()
	receiveBids = func(r *run, msgs []logicalBid) ([][]*bus.Message, [][]int, error) {
		received, missing, err := take(r, msgs)
		// The relay of a healed loss appends to a row later; keep the
		// rows as the exchange returned them.
		c.received = make([][]*bus.Message, len(received))
		for i, row := range received {
			c.received[i] = append([]*bus.Message(nil), row...)
		}
		c.missing = missing
		return received, missing, err
	}
	collectBids = func(r *run, received [][]*bus.Message) ([]int, map[int][2]sig.Envelope) {
		c.equivocators, c.evidence = scan(r, received)
		return c.equivocators, c.evidence
	}
	c.out, c.err = Run(cfg)
	return c
}

// oracleCase draws case k of the equivalence sweep: m from 3 to 24 on
// either network, a fault plan (none, random loss, duplication,
// reordering and corruption, severed pairs, a blackholed sender, an
// unresponsive member), and equivocators, framers or a false accuser.
func oracleCase(k int) (Config, string) {
	rng := rand.New(rand.NewSource(int64(7919 * (k + 1))))
	m := 3 + rng.Intn(22)
	net := dlt.NCPFE
	if rng.Intn(2) == 1 {
		net = dlt.NCPNFE
	}
	in := dlt.DefaultRandomInstance(rng, net, m)
	cfg := Config{Network: net, Z: in.Z, TrueW: in.W, Seed: int64(k), NBlocks: 8 * m}
	seed := int64(1000 + k)
	var plan *bus.FaultPlan
	kind := ""
	switch k % 6 {
	case 0:
		kind = "reliable"
	case 1:
		kind = "reorder"
		plan = &bus.FaultPlan{Seed: seed, Reorder: 0.2 + 0.6*rng.Float64(), Duplicate: 0.1 * rng.Float64()}
	case 2:
		kind = "mixed"
		plan = &bus.FaultPlan{Seed: seed, Drop: 0.15 * rng.Float64(), Duplicate: 0.1 * rng.Float64(),
			Delay: 0.1 * rng.Float64(), Corrupt: 0.1 * rng.Float64(), Reorder: 0.3 * rng.Float64()}
	case 3:
		kind = "pairs"
		drop := 1.0
		if rng.Intn(2) == 1 {
			drop = 0.5
		}
		plan = adversarytest.RandomPairs(seed, m, 1+rng.Intn(m), drop)
		plan.Reorder = 0.2
	case 4:
		kind = "blackhole"
		sender := rng.Intn(m)
		var receivers []string
		for i := 0; i < m && len(receivers) < 1+rng.Intn(m-1); i++ {
			if i != sender {
				receivers = append(receivers, adversarytest.ProcID(i))
			}
		}
		plan = adversarytest.Blackhole(seed, adversarytest.ProcID(sender), receivers...)
		plan.Corrupt = 0.05
	case 5:
		kind = "unresponsive"
		orig := net.Originator(m)
		dead := rng.Intn(m)
		if dead == orig {
			dead = (dead + 1) % m
		}
		plan = &bus.FaultPlan{Seed: seed, Drop: 0.05, Reorder: 0.3,
			Unresponsive: []string{adversarytest.ProcID(dead)}}
	}
	cfg.Faults = plan
	bs := make([]agent.Behavior, m)
	switch rng.Intn(4) {
	case 1:
		bs[rng.Intn(m)] = agent.Equivocator
		bs[rng.Intn(m)] = agent.Equivocator
		kind += "+equivocators"
	case 2:
		bs[rng.Intn(m)] = agent.Framer
		kind += "+framer"
	case 3:
		bs[rng.Intn(m)] = agent.Equivocator
		bs[rng.Intn(m)] = agent.FalseAccuser
		kind += "+equivocator+accuser"
	}
	cfg.Behaviors = bs
	return cfg, fmt.Sprintf("case %d (m=%d, %s)", k, m, kind)
}

// sameRows compares received rows copy by copy, order included; a nil
// and an empty row are the same row.
func sameRows(a, b [][]*bus.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if !reflect.DeepEqual(a[i][k], b[i][k]) {
				return false
			}
		}
	}
	return true
}

// sameLists compares per-receiver index lists; a nil and an empty list
// are the same list.
func sameLists(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestBidReceiveOracle plays seeded rounds twice, once with the Bidding
// phase's receive side and once with the reference implementations
// above, and requires the same received rows (order included), missing
// lists, equivocators and evidence, and the same outcome: verdicts,
// transcript, payments, FaultStats and bus.Stats. The reorder cases
// deliver copies out of message-index order, so a receive side that
// kept arrival order would fail them. -short and -race play the first
// 12 cases, every fault kind twice.
func TestBidReceiveOracle(t *testing.T) {
	cases := 240
	if testing.Short() || raceEnabled() {
		cases = 12
	}
	reordered, evicted, relayed, equivocated := 0, 0, 0, 0
	for k := 0; k < cases; k++ {
		cfg, name := oracleCase(k)
		got := captureRound(cfg, (*run).takeBids, (*run).scanBids)
		want := captureRound(cfg, oracleTakeBids, oracleScanBids)
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
			t.Fatalf("%s: error %v, reference %v", name, got.err, want.err)
		}
		if !sameRows(got.received, want.received) {
			t.Fatalf("%s: received rows differ from the reference", name)
		}
		if !sameLists(got.missing, want.missing) {
			t.Fatalf("%s: missing %v, reference %v", name, got.missing, want.missing)
		}
		if !reflect.DeepEqual(got.equivocators, want.equivocators) || !reflect.DeepEqual(got.evidence, want.evidence) {
			t.Fatalf("%s: equivocators %v, reference %v (or their evidence differs)", name, got.equivocators, want.equivocators)
		}
		if !reflect.DeepEqual(got.out, want.out) {
			t.Fatalf("%s: outcome differs from the reference\n got %+v\nwant %+v", name, got.out, want.out)
		}
		if got.out != nil && got.out.BusStats.Reordered > 0 {
			reordered++
		}
		if got.out != nil && len(got.out.Evictions) > 0 {
			evicted++
		}
		if len(got.evidence) > 0 {
			equivocated++
		}
		for _, miss := range got.missing {
			if len(miss) > 0 {
				relayed++
				break
			}
		}
	}
	t.Logf("%d cases: %d reordered, %d evicted, %d with missing bids, %d with equivocation evidence",
		cases, reordered, evicted, relayed, equivocated)
	if reordered < cases/4 || evicted == 0 || relayed == 0 || equivocated == 0 {
		t.Fatalf("the sweep lost its coverage")
	}
}
