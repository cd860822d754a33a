package protocol

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
	"dlsbl/internal/workload"
)

// ---- Phase: Bidding -------------------------------------------------------

// logicalBid is one signed bid of the exchange, retransmitted under its
// nonce until every receiver holds it.
type logicalBid struct {
	sender  int // participant index
	env     sig.Envelope
	nonce   uint64
	primary bool // the sender's first (agreed) bid
}

// The receive side of the Bidding phase. They are variables so that a
// test can play whole rounds against the reference implementation they
// replaced; nothing else assigns them.
var (
	receiveBids = (*run).takeBids
	collectBids = (*run).scanBids
)

// bidExchange performs the all-to-all broadcast of signed bids over the
// (possibly faulty) bus: every logical bid message is retransmitted under
// its original nonce with capped exponential backoff until each receiver
// holds a verified copy or the retry budget runs out. It returns the
// per-receiver verified deliveries, each sender's primary (agreed) bid
// envelope and nonce, and — per receiver — the sorted participant indices
// of the senders whose primary bid that receiver still lacks after the
// budget. Deciding who is actually unreachable is the caller's job: under
// the witness-corroboration rule a residual missing pair alone evicts
// nobody (see healMissingBids).
func (r *run) bidExchange() (received [][]*bus.Message, firstEnvs []sig.Envelope, missing [][]int, primaryNonces []uint64, err error) {
	// Every processor signs its bid; equivocators also sign a second,
	// contradictory one.
	reqs := make([]sig.Sealing, 0, r.m)
	for _, a := range r.agents {
		reqs = append(reqs, sig.Sealing{Key: a.Key, Kind: referee.KindBid,
			Payload: referee.BidPayload{Proc: a.ID, Bid: a.Bid(), Round: r.roundID}})
		if second, ok := a.SecondBid(); ok {
			reqs = append(reqs, sig.Sealing{Key: a.Key, Kind: referee.KindBid,
				Payload: referee.BidPayload{Proc: a.ID, Bid: second, Round: r.roundID}})
		}
	}
	// One parallel pass signs every bid and verifies each in the worker
	// that signed it; its verdicts are not consulted here. The first copy
	// of each bid a receiver takes off the medium is a memo hit, later
	// byte-identical copies match it, and a copy the medium altered fails
	// and is discarded. The envelopes are fresh: the bid cache a clean
	// exchange captures keeps their bytes for later rounds.
	envs, err := r.ver.SealEach(reqs, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Every bid goes out in one batch, in signing order, so each sender's
	// bid is followed by its second one.
	msgs := make([]logicalBid, 0, len(envs))
	for i, a := range r.agents {
		copies := 1
		if _, ok := a.SecondBid(); ok {
			copies = 2
		}
		for k := 0; k < copies; k++ {
			msgs = append(msgs, logicalBid{sender: i, env: envs[len(msgs)], primary: k == 0})
		}
	}
	batch := r.bidBatch(msgs)
	if err := r.xp.emit(batch, ""); err != nil {
		return nil, nil, nil, nil, err
	}
	firstEnvs = make([]sig.Envelope, r.m)
	primaryNonces = make([]uint64, r.m)
	for mi := range msgs {
		lm := &msgs[mi]
		lm.nonce = batch[mi].Nonce
		if lm.primary {
			firstEnvs[lm.sender] = lm.env
			primaryNonces[lm.sender] = lm.nonce
		}
	}
	received, missing, err = receiveBids(r, msgs)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return received, firstEnvs, missing, primaryNonces, nil
}

// bidBatch writes the exchange's bids into the transport's batch as its
// logical messages.
func (r *run) bidBatch(msgs []logicalBid) []bus.Broadcast {
	batch := slices.Grow(r.xp.batch[:0], len(msgs))
	for _, lm := range msgs {
		batch = append(batch, bus.Broadcast{From: r.agents[lm.sender].ID, Kind: referee.KindBid, Env: lm.env, Size: 1, Nonce: lm.nonce})
	}
	r.xp.batch = batch
	return batch
}

// takeBids collects the broadcast bids msgs at every receiver through the
// transport's delivery loop. It returns each receiver's verified copies,
// per attempt in message-index order, in rows of its own, and the
// senders whose primary bid each receiver still lacks.
func (r *run) takeBids(msgs []logicalBid) (received [][]*bus.Message, missing [][]int, err error) {
	n := len(msgs)
	cells := make([]*bus.Message, r.m*n)
	received = make([][]*bus.Message, r.m)
	for ri := range received {
		received[ri] = cells[ri*n : ri*n : (ri+1)*n]
	}
	pairs, _, err := r.xp.deliver(r.bidBatch(msgs), r.procs, received)
	if err != nil {
		return nil, nil, err
	}
	missing = make([][]int, r.m)
	// msgs runs in sender order, so each list comes out sorted.
	for ri := range missing {
		for mi, lm := range msgs {
			if pairs[ri*n+mi] && lm.primary {
				missing[ri] = append(missing[ri], lm.sender)
			}
		}
	}
	return received, missing, nil
}

// witnessReport is one unreachability allegation in pre-eviction
// participant space: witness claims it never received accused's primary
// bid. genuine marks allegations backed by an actually missing delivery
// (as opposed to a framer's fabricated one).
type witnessReport struct {
	witness, accused int
	genuine          bool
}

// relayTask is one below-threshold report the referee mediated with a bid
// relay; phaseBidding adjudicates it once the referee exists.
type relayTask struct {
	witness, accused int // pre-eviction participant indices
	witnessID        string
	report           sig.Envelope
	evidence         referee.WitnessEvidence
}

// healMissingBids turns the residual missing primary-bid pairs of the
// exchange into evictions and mediated witness reports:
//
//   - a sender nobody can reach, or a receiver that heard nobody, is
//     unreachable outright (no witnesses needed — the whole pool agrees);
//   - an accused reported missing by ≥ ⌈m/2⌉ DISTINCT witnesses
//     (referee.CorroborationThreshold over the pre-eviction count) is
//     evicted: corroboration at that scale cannot be manufactured by a
//     single strategic processor;
//   - every below-threshold report triggers a bid relay instead: the
//     witness files a signed WitnessReportPayload with the referee, the
//     referee fetches the accused's primary bid envelope from any holder
//     and relays the verified copy to the witness, healing a genuine
//     targeted loss. The report is adjudicated later (JudgeWitnessReport):
//     a witness that maintains its claim against the verified relay — the
//     framing attack — is convicted.
//
// It returns the eviction set (participant index → reason) and the relay
// tasks to adjudicate, and appends relayed bids to the received rows of
// genuinely missing witnesses.
func (r *run) healMissingBids(received [][]*bus.Message, missing [][]int, primaryNonces []uint64) (map[int]string, []relayTask, error) {
	unreachable := make(map[int]string)
	m0 := r.m
	anyMissing := false
	for ri := range missing {
		if len(missing[ri]) > 0 {
			anyMissing = true
		}
	}
	framers := false
	for _, a := range r.agents {
		if a.Behavior.FrameRival {
			framers = true
		}
	}
	if !anyMissing && !framers {
		return unreachable, nil, nil
	}

	// Wholesale failures first: they need no corroboration machinery.
	sendFail := make([]int, m0) // receivers missing i's primary bid
	for ri := range missing {
		for _, s := range missing[ri] {
			sendFail[s]++
		}
	}
	for i := range r.agents {
		switch {
		case sendFail[i] == m0-1:
			unreachable[i] = fmt.Sprintf("bid undeliverable to all %d peers within the retry budget", m0-1)
		case len(missing[i]) == m0-1:
			unreachable[i] = fmt.Sprintf("received none of %d peer bids within the retry budget", m0-1)
		}
	}

	// Witness reports: every genuinely missing pair among live parties,
	// plus each framer's fabricated allegation against its rival.
	thresh := referee.CorroborationThreshold(m0)
	var reports []witnessReport
	reportedBy := make(map[int]map[int]bool) // accused → distinct witnesses
	addReport := func(w, a int, genuine bool) {
		if _, gone := unreachable[w]; gone {
			return
		}
		if _, gone := unreachable[a]; gone {
			return
		}
		if reportedBy[a] == nil {
			reportedBy[a] = make(map[int]bool)
		}
		if reportedBy[a][w] {
			return
		}
		reportedBy[a][w] = true
		reports = append(reports, witnessReport{witness: w, accused: a, genuine: genuine})
	}
	for ri := range missing {
		for _, s := range missing[ri] {
			addReport(ri, s, true)
		}
	}
	for i, a := range r.agents {
		if a.Behavior.FrameRival {
			addReport(i, (i+1)%m0, false)
		}
	}

	// Corroborated unreachability: ≥ ⌈m/2⌉ distinct witnesses agree.
	for a := 0; a < m0; a++ {
		ws := reportedBy[a]
		if len(ws) < thresh {
			continue
		}
		unreachable[a] = fmt.Sprintf("unreachable: %d of %d witnesses corroborate (threshold %d)",
			len(ws), m0-1, thresh)
		if r.tracer != nil {
			// Corroborated reports never reach the per-report relay loop
			// below (the accused is already gone), so the tally is the only
			// place the transcript can show each witness — and the sentinel
			// demands threshold-many before the eviction event.
			wits := make([]int, 0, len(ws))
			for w := range ws {
				wits = append(wits, w)
			}
			sort.Ints(wits)
			for _, w := range wits {
				r.tracer.Event(obs.Event{
					Kind: obs.EvWitnessReport, From: r.agents[w].ID, To: r.agents[a].ID,
					Msg: referee.KindWitnessReport, Round: r.roundID,
					Detail: fmt.Sprintf("%d of %d witnesses, threshold %d", len(ws), m0-1, thresh),
				})
			}
		}
	}

	// Below-threshold reports: file with the referee and mediate by relay.
	var tasks []relayTask
	holderEnv := make(map[int]sig.Envelope) // accused → primary bid from a holder
	for _, rep := range reports {
		if _, gone := unreachable[rep.witness]; gone {
			continue
		}
		if _, gone := unreachable[rep.accused]; gone {
			continue
		}
		w, a := r.agents[rep.witness], r.agents[rep.accused]
		env, err := sig.SealBinary(w.Key, referee.KindWitnessReport,
			referee.WitnessReportPayload{Witness: w.ID, Accused: a.ID, Round: r.roundID})
		if err != nil {
			return nil, nil, err
		}
		if r.tracer != nil {
			r.tracer.Event(obs.Event{
				Kind: obs.EvWitnessReport, From: w.ID, To: a.ID, Msg: referee.KindWitnessReport,
				Round:  r.roundID,
				Detail: fmt.Sprintf("%d of %d witnesses, threshold %d", len(reportedBy[rep.accused]), m0-1, thresh),
			})
		}
		if _, err := r.xp.sendReliable(w.ID, r.refAddr, referee.KindWitnessReport, env, 1); err != nil {
			if errors.Is(err, ErrUnreachable) {
				unreachable[rep.witness] = "unreachable while filing a witness report"
				continue
			}
			return nil, nil, err
		}
		ev := referee.WitnessEvidence{
			Corroborating: len(reportedBy[rep.accused]),
			Witnesses:     m0 - 1,
			Threshold:     thresh,
		}
		// The referee obtains the accused's primary bid from the first
		// reachable holder (once per accused; later reports reuse it).
		bidEnv, have := holderEnv[rep.accused]
		if !have {
			for hi := range r.agents {
				if hi == rep.accused {
					continue
				}
				if _, gone := unreachable[hi]; gone {
					continue
				}
				var held *sig.Envelope
				for mi := range received[hi] {
					if received[hi][mi].From == a.ID && received[hi][mi].Nonce == primaryNonces[rep.accused] {
						held = &received[hi][mi].Env
						break
					}
				}
				if held == nil {
					continue
				}
				if _, err := r.xp.sendReliable(r.agents[hi].ID, r.refAddr, referee.KindBid, *held, 1); err != nil {
					if errors.Is(err, ErrUnreachable) {
						continue
					}
					return nil, nil, err
				}
				bidEnv, have = *held, true
				holderEnv[rep.accused] = bidEnv
				break
			}
		}
		if !have {
			// Not a dead sender, yet no holder could produce the bid: the
			// accused's bid is unobtainable after all.
			unreachable[rep.accused] = "bid unobtainable from any holder during witness mediation"
			continue
		}
		ev.RelayDelivered = true
		relayed, err := r.xp.sendReliable(r.refAddr, w.ID, referee.KindBid, bidEnv, 1)
		if err != nil {
			if errors.Is(err, ErrUnreachable) {
				unreachable[rep.witness] = "unreachable during the referee's bid relay"
				continue
			}
			return nil, nil, err
		}
		if rep.genuine {
			// The relay heals the loss: the witness now holds the verified
			// bid and the round proceeds with no eviction.
			received[rep.witness] = append(received[rep.witness], relayed)
		}
		// A framer maintains its fabricated claim against its rival even
		// while holding the relayed proof; an honest witness withdraws.
		ev.ClaimMaintained = w.Behavior.FrameRival && rep.accused == (rep.witness+1)%m0
		tasks = append(tasks, relayTask{witness: rep.witness, accused: rep.accused, witnessID: w.ID, report: env, evidence: ev})
	}
	return unreachable, tasks, nil
}

// phaseBidding performs the all-to-all broadcast of signed bids, collects
// and cross-verifies them, adjudicates unreachability through the
// witness-corroboration rule (corroborated accused are evicted, framers
// are convicted, genuine targeted losses are healed by a referee bid
// relay), and lets processors inform the referee about equivocation.
// Returns true when a verdict terminated the protocol.
func (r *run) phaseBidding() (bool, error) {
	r.xp.beginPhase()
	received, firstEnvs, missing, primaryNonces, err := r.bidExchange()
	if err != nil {
		return false, err
	}
	unreachable, tasks, err := r.healMissingBids(received, missing, primaryNonces)
	if err != nil {
		return false, err
	}
	evictedNow := append([]EvictionEvent(nil), r.outcome.Evictions...)
	if err := r.applyEvictions(unreachable, obs.PhaseBidding); err != nil {
		return false, err
	}
	evictedNow = r.outcome.Evictions[len(evictedNow):]
	// Drop the per-receiver state of evicted processors; r.agents/r.procs
	// now hold the survivors, and the slices must stay index-aligned.
	if len(unreachable) > 0 {
		keptRecv, keptEnvs := received[:0], firstEnvs[:0]
		for ri := range received {
			if _, gone := unreachable[ri]; !gone {
				keptRecv = append(keptRecv, received[ri])
				keptEnvs = append(keptEnvs, firstEnvs[ri])
			}
		}
		received, firstEnvs = keptRecv, keptEnvs
	}

	// Collection: each surviving processor verifies every delivery,
	// discarding failures, and scans what it holds for equivocation.
	equivocators, evidence := collectBids(r, received)
	// The agreed bid vector: all honest processors see identical
	// broadcasts (the retry layer restores atomicity), and a processor's
	// own bid is what it broadcast first.
	r.bids = make([]float64, r.m)
	r.bidEnvs = make([]sig.Envelope, r.m)
	for i, a := range r.agents {
		r.bids[i] = a.Bid()
		r.bidEnvs[i] = firstEnvs[i]
	}

	// A round that runs its own Bidding phase IS every bid's epoch. The
	// referee comes into existence with a publicly known fine.
	r.epochs = make([]string, r.m)
	for i := range r.epochs {
		r.epochs[i] = r.roundID
	}
	if err := r.seatReferee(); err != nil {
		return false, err
	}
	// Evictions are availability failures, not offenses: they enter the
	// audit transcript (action "eviction") but carry no fine.
	for _, ev := range evictedNow {
		r.ref.RecordEviction(ev.Proc, ev.Phase, ev.Reason)
	}

	// Adjudicate the mediated witness reports. A maintained claim against
	// the verified relay is a convictable framing attempt; the fine never
	// terminates the round — the framer's bid is bound and the honest
	// majority proceeds. A task's indices predate the evictions, so the
	// witness is named by identity.
	for _, t := range tasks {
		if _, gone := unreachable[t.witness]; gone {
			continue
		}
		if _, gone := unreachable[t.accused]; gone {
			continue
		}
		r.evidence(t.witnessID, referee.KindWitnessReport)
		v, err := r.ref.JudgeWitnessReport(t.report, t.evidence)
		if err != nil {
			return false, err
		}
		terminated, err := r.settle(v, nil)
		if err != nil {
			return false, err
		}
		if r.tracer != nil {
			for _, g := range v.Guilty {
				r.tracer.Event(obs.Event{
					Kind: obs.EvFramingConviction, From: g, Round: r.roundID, Detail: v.Reason,
				})
			}
		}
		if terminated {
			return true, nil
		}
	}

	// Unfounded accusations fire first if a false accuser exists: it
	// signals the referee with non-evidence against its neighbour.
	for i, a := range r.agents {
		if !a.Behavior.FalseEquivocationReport {
			continue
		}
		// The "evidence" is the neighbour's single legitimate bid twice.
		bid := firstEnvs[(i+1)%r.m]
		r.evidence(a.ID, referee.KindEquivocationReport)
		v, err := r.ref.JudgeEquivocation(a.ID, bid, bid)
		if err != nil {
			return false, err
		}
		if terminated, err := r.settle(v, nil); err != nil || terminated {
			return terminated, err
		}
	}

	// Genuine equivocation: the first honest observer informs against the
	// equivocator, providing both signed bids as evidence.
	for _, j := range equivocators {
		accuser := ""
		for i, a := range r.agents {
			if i != j && !a.Behavior.Deviant() {
				accuser = a.ID
				break
			}
		}
		if accuser == "" {
			accuser = r.procs[(j+1)%r.m]
		}
		ev := evidence[j]
		// The report travels over the bus to the referee: two envelopes,
		// delivered reliably (retransmitted under one nonce if faulty).
		if _, err := r.xp.sendReliable(accuser, r.refAddr, referee.KindEquivocationReport, ev[0], 2); err != nil {
			return false, err
		}
		r.evidence(accuser, referee.KindEquivocationReport)
		v, err := r.ref.JudgeEquivocation(accuser, ev[0], ev[1])
		if err != nil {
			return false, err
		}
		if terminated, err := r.settle(v, nil); err != nil || terminated {
			return terminated, err
		}
	}
	return false, nil
}

// scanBids is the collection: each surviving processor decodes every
// copy it received and scans what it holds for equivocation. Every copy
// passed the transport's check on arrival, so it is decoded, not
// verified again, and a record that several receivers hold (every copy
// of one emission) is decoded once for all of them. It returns the
// equivocators in detection order and, for each, the first two
// contradictory signed bids a receiver held.
func (r *run) scanBids(received [][]*bus.Message) (equivocators []int, evidence map[int][2]sig.Envelope) {
	// seen[j] is what the current receiver holds from participant j; the
	// first two distinct bids are all the scan reads. One slice serves
	// every receiver: an entry whose stamp is not the receiver's is empty.
	type seenBid struct {
		stamp, n int
		envs     [2]sig.Envelope
		bids     [2]float64
	}
	// bidCopy is what a record decodes to: the live participant that
	// signed it, or -1 for a copy the scan discards, and its bid.
	type bidCopy struct {
		j   int
		bid float64
	}
	pos := make(map[string]int, r.m)
	for j, p := range r.procs {
		pos[p] = j
	}
	seen := make([]seenBid, r.m)
	decoded := make(map[*bus.Message]bidCopy, r.m)
	evidence = make(map[int][2]sig.Envelope)
	var bp referee.BidPayload // decoded into once per record, allocated once
	for i := range r.agents {
		stamp := i + 1
		for _, msg := range received[i] {
			c, ok := decoded[msg]
			if !ok {
				// A copy that does not decode, whose payload names another
				// party than its signer, or whose sender was evicted is
				// discarded.
				c.j = -1
				bp = referee.BidPayload{}
				if r.xp.open(msg, &bp) == nil && bp.Proc == msg.Env.Sender {
					if j, live := pos[bp.Proc]; live {
						c = bidCopy{j: j, bid: bp.Bid}
					}
				}
				decoded[msg] = c
			}
			if c.j < 0 {
				continue
			}
			sb := &seen[c.j]
			if sb.stamp != stamp {
				sb.stamp, sb.n = stamp, 0
			}
			if sb.n == 2 || (sb.n == 1 && sb.bids[0] == c.bid) {
				continue
			}
			sb.envs[sb.n], sb.bids[sb.n] = msg.Env, c.bid
			sb.n++
		}
		// Equivocation detection by this receiver.
		for j := range seen {
			if sb := &seen[j]; sb.stamp == stamp && sb.n > 1 {
				if _, already := evidence[j]; !already {
					equivocators = append(equivocators, j)
					evidence[j] = sb.envs
				}
			}
		}
	}
	return equivocators, evidence
}

// ---- Phase: Allocating Load -------------------------------------------------

// allocate applies the round's allocation rule to a bid vector: the
// paper's single-round optimal split for whole-load rounds, the
// steady-state balanced split (dlt.PipelinedAllocation) for installment
// sub-rounds — where the single-round rule would keep the first-served
// processor busy for the entire makespan and leave the pipeline nothing
// to overlap.
func (r *run) allocate(bids []float64) (dlt.Allocation, error) {
	in := dlt.Instance{Network: r.cfg.Network, Z: r.cfg.Z, W: bids}
	if r.instOf > 1 {
		return dlt.PipelinedAllocation(in)
	}
	return dlt.Optimal(in)
}

// recomputeCounts is the referee's recomputation callback: from an agreed
// bid vector to per-processor block counts.
func (r *run) recomputeCounts(bids []float64) ([]int, error) {
	alloc, err := r.allocate(bids)
	if err != nil {
		return nil, err
	}
	asg, err := workload.Partition(alloc, r.nBlocks)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(asg))
	for i, a := range asg {
		counts[i] = a.Count()
	}
	return counts, nil
}

// signedBidVector builds the vector of signed bids a party submits to the
// referee during a claim. A vector tamperer replaces its own entry with a
// freshly signed different bid — the only way to alter a signature-
// protected vector, and exactly what Lemma 5.2 catches.
func (r *run) signedBidVector(i int) (sig.Envelope, error) {
	a := r.agents[i]
	envs := append([]sig.Envelope(nil), r.bidEnvs...)
	if a.Behavior.TamperBidVectorEntry {
		// The forger stamps its own current bid epoch — an off-epoch entry
		// would be rejected outright; this way the fresh signature itself
		// is what convicts (Lemma 5.2).
		forged, err := sig.SealBinary(a.Key, referee.KindBid, referee.BidPayload{Proc: a.ID, Bid: a.TamperedOwnBid(), Round: r.epochs[i]})
		if err != nil {
			return sig.Envelope{}, err
		}
		envs[i] = forged
	}
	return sig.SealBinary(a.Key, referee.KindBidVector, referee.BidVectorPayload{Proc: a.ID, Bids: envs, Round: r.roundID})
}

// workDoneAt returns the termination compensations when a claim stops the
// protocol during delivery to recipient `upTo` (order position in the
// delivery sequence): everyone whose delivery completed earlier has
// commenced work, plus the NCP-FE originator, which computes from time 0.
func (r *run) workDoneAt(deliveryOrder []int, upTo int) map[string]float64 {
	work := make(map[string]float64)
	if r.cfg.Network == dlt.NCPFE {
		work[r.procs[r.origIdx]] = r.alloc[r.origIdx] * r.agents[r.origIdx].Exec() * r.loadFrac
	}
	for pos := 0; pos < upTo; pos++ {
		i := deliveryOrder[pos]
		work[r.procs[i]] = r.alloc[i] * r.agents[i].Exec() * r.loadFrac
	}
	return work
}

// phaseAllocating computes the allocation everywhere, ships the blocks,
// and adjudicates misallocation claims. Returns true on termination.
func (r *run) phaseAllocating() (bool, error) {
	r.xp.beginPhase()
	if err := r.failover(obs.PhaseAllocating); err != nil {
		return false, err
	}
	var err error
	r.alloc, err = r.allocate(r.bids)
	if err != nil {
		return false, err
	}
	r.assigns, err = workload.Partition(r.alloc, r.nBlocks)
	if err != nil {
		return false, err
	}

	orig := r.agents[r.origIdx]
	// Delivery order: index order, skipping the originator (Theorem 2.2
	// makes the order irrelevant for optimality).
	var order []int
	for i := range r.procs {
		if i != r.origIdx {
			order = append(order, i)
		}
	}
	// The originator's misallocation targets the first recipient.
	misTarget := -1
	if orig.Behavior.MisallocateExtraBlocks != 0 && len(order) > 0 {
		misTarget = order[0]
	}

	for pos, i := range order {
		a := r.agents[i]
		expected := r.assigns[i].Count()
		delivered := expected
		if i == misTarget {
			delivered += orig.Behavior.MisallocateExtraBlocks
			if delivered < 0 {
				delivered = 0
			}
		}

		// The paper's two claim kinds. The shortage case comes first, so
		// the excess case only sees deliveries of at least the assignment,
		// and a claimant with both false-claim behaviours is judged for
		// shortage.
		var v referee.Verdict
		switch {
		case delivered < expected || (delivered == expected && a.Behavior.FalseShortageClaim):
			// α'_i < α_i: the referee mediates, forwarding verified blocks
			// from the originator. A short delivery fines an originator
			// that refuses or whose blocks fail the integrity check, and
			// otherwise ends with the delivery exactly the assignment; a
			// claimant that persists against an exact delivery is fined.
			short := delivered < expected
			r.evidence(a.ID, referee.KindShortDeliveryClaim)
			v, err = r.ref.MediateShortDelivery(a.ID, orig.ID, referee.ShortDeliveryEvidence{
				OriginatorRefused:   short && orig.Behavior.RefuseMediation,
				IntegrityFailed:     short && orig.Behavior.TamperBlocks,
				ClaimantStillClaims: !short,
			})
		case delivered > expected || a.Behavior.FalseExcessClaim || a.Behavior.TamperBidVectorEntry:
			// α'_i > α_i: judged from both parties' signed bid vectors.
			v, err = r.bidVectorClaim(i, delivered)
		default:
			continue
		}
		if err != nil {
			return false, err
		}
		if terminated, err := r.settle(v, r.workDoneAt(order, pos)); err != nil || terminated {
			return terminated, err
		}
	}
	return false, nil
}

// bidVectorClaim adjudicates participant i's α'_i > α_i claim against
// the originator: both parties sign their bid vectors and send them to
// the referee, which recomputes the allocation from them and compares
// the delivered block count. Against an exact delivery the claim is
// unfounded and the claimant is fined; a vector tamperer makes such a
// claim to smuggle its altered vector in, and the fresh signature
// convicts it (Lemma 5.2).
func (r *run) bidVectorClaim(i, delivered int) (referee.Verdict, error) {
	a, orig := r.agents[i], r.agents[r.origIdx]
	claimVec, err := r.signedBidVector(i)
	if err != nil {
		return referee.Verdict{}, err
	}
	origVec, err := r.signedBidVector(r.origIdx)
	if err != nil {
		return referee.Verdict{}, err
	}
	if _, err := r.xp.sendReliable(a.ID, r.refAddr, referee.KindBidVector, claimVec, r.m); err != nil {
		return referee.Verdict{}, err
	}
	if _, err := r.xp.sendReliable(orig.ID, r.refAddr, referee.KindBidVector, origVec, r.m); err != nil {
		return referee.Verdict{}, err
	}
	r.evidence(a.ID, referee.KindBidVector)
	return r.ref.JudgeAllocationClaim(a.ID, orig.ID, claimVec, origVec, delivered, r.recomputeCounts)
}

// ---- Phase: Processing Load ---------------------------------------------------

// phaseProcessing executes the assignments at each agent's execution rate,
// records the tamper-proof meters, and has the referee broadcast
// (φ_1,…,φ_m).
func (r *run) phaseProcessing() error {
	r.xp.beginPhase()
	if err := r.failover(obs.PhaseProcessing); err != nil {
		return err
	}
	// Mid-run crash recovery (Theorem 2.2): a processor that dies at the
	// start of this phase's computation is evicted, the survivors re-solve
	// the allocation over the remaining pool, and the round proceeds — on
	// an installment schedule only the current and later installments are
	// re-planned, so work already metered stays credited through the
	// telescoping per-installment payments.
	if p := r.cfg.Faults; p != nil && len(p.Crashes) > 0 {
		inst := r.inst
		if inst == 0 {
			inst = 1 // whole-load rounds count as installment 1
		}
		evict := make(map[int]string)
		for _, id := range p.CrashAt(inst) {
			for i, proc := range r.procs {
				if proc == id {
					evict[i] = fmt.Sprintf("crashed at the start of Processing Load (installment %d)", inst)
				}
			}
		}
		if len(evict) > 0 {
			if err := r.hearFromSeated(); err != nil {
				return err
			}
			if fb, ok := r.net.(*bus.Bus); ok {
				for i := range evict {
					fb.MarkUnresponsive(r.procs[i])
				}
			}
			mark := len(r.outcome.Evictions)
			if err := r.applyEvictions(evict, obs.PhaseProcessing); err != nil {
				return err
			}
			for _, ev := range r.outcome.Evictions[mark:] {
				if _, err := r.ref.Evict(ev.Proc, ev.Phase, ev.Reason); err != nil {
					return err
				}
			}
			var err error
			if r.alloc, err = r.allocate(r.bids); err != nil {
				return err
			}
			if r.assigns, err = workload.Partition(r.alloc, r.nBlocks); err != nil {
				return err
			}
			if r.tracer != nil {
				r.tracer.Event(obs.Event{
					Kind: obs.EvCheckpointResume, Round: r.roundID,
					Detail: fmt.Sprintf("%d survivors re-solved the allocation after crash eviction", r.m),
				})
			}
		}
	}
	exec := make([]float64, r.m)
	phi := make([]float64, r.m)
	work := make([]float64, r.m)
	for i, a := range r.agents {
		exec[i] = a.Exec()
		// φ_i covers the load actually processed this round — the whole
		// load ordinarily, an installment's share on a pipelined
		// sub-round. At loadFrac=1 the multiplication is by the constant
		// 1, so the meters are bit-identical to the unscaled path.
		phi[i] = r.alloc[i] * exec[i] * r.loadFrac
		work[i] = phi[i]
		if err := r.ref.RecordMeter(a.ID, phi[i]); err != nil {
			return err
		}
	}
	r.outcome.Exec = exec
	r.outcome.Phi = phi
	r.outcome.WorkCost = work

	// Realized schedule: communication at the bid-derived fractions,
	// computation at the observed execution rates. Data-plane latency
	// jitter only exists in the event-driven realization — the closed-form
	// equations assume exact α·z transfer times — so a jittery plan routes
	// through the simulator on a bus carrying the same plan.
	var tl dlt.Timeline
	var err error
	if p := r.cfg.Faults; p != nil && p.DataPlaneActive() {
		tl, err = SimulateTimeline(r.cfg.Network, r.cfg.Z, r.alloc, exec, p, r.procs)
	} else {
		realized := dlt.Instance{Network: r.cfg.Network, Z: r.cfg.Z, W: exec}
		tl, err = dlt.Schedule(realized, r.alloc)
	}
	if err != nil {
		return err
	}
	if r.loadFrac != 1 {
		// An installment sub-round moves loadFrac of the load; every term
		// of the one-port schedule is linear in the load, so the realized
		// sub-round timeline is the unit schedule scaled down.
		for i := range tl.Spans {
			tl.Spans[i].Start *= r.loadFrac
			tl.Spans[i].End *= r.loadFrac
			tl.Spans[i].Frac *= r.loadFrac
		}
		tl.Makespan *= r.loadFrac
	}
	r.outcome.Timeline = tl
	r.outcome.Makespan = tl.Makespan

	// Referee broadcasts the meter vector; every processor must end up
	// holding a verified copy (the payment computation depends on it).
	env, err := sig.SealBinary(r.refKey, referee.KindMeters, referee.MetersPayload{Phi: phi})
	if err != nil {
		return err
	}
	missing, err := r.xp.broadcastReliable(r.refAddr, referee.KindMeters, env, r.m, r.procs)
	if err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("%w: meters broadcast undelivered to %v", ErrUnreachable, missing)
	}
	return nil
}

// ---- Phase: Computing Payments --------------------------------------------------

// phasePayments has every processor derive the execution values from the
// broadcast meters, compute the payment vector, and submit it signed to
// the referee, which checks unanimity, fines deviants, and forwards Q to
// the payment infrastructure.
func (r *run) phasePayments() error {
	r.xp.beginPhase()
	if err := r.failover(obs.PhasePayments); err != nil {
		return err
	}
	// w̃_j = φ_j / α_j; a processor with no load reveals nothing, so its
	// bid stands in (its compensation and valuation are zero anyway).
	st := r.st
	derived := slices.Grow(st.derived[:0], r.m)[:r.m]
	st.derived = derived
	for j := range derived {
		if r.alloc[j] > 0 {
			// The meters cover α_j·loadFrac of the load, so the per-unit
			// rate divides the fraction back out (a division by exactly
			// α_j when loadFrac is 1).
			derived[j] = r.outcome.Phi[j] / (r.alloc[j] * r.loadFrac)
		} else {
			derived[j] = r.bids[j]
		}
	}
	// An installment sub-round (instOf > 1) takes the period rule (the
	// balanced split, priced in the per-load period it minimizes); a
	// whole-load round takes the single-round rule.
	price := r.engine.RunInto
	if r.instOf > 1 {
		price = r.engine.RunPeriodInto
	}
	if err := price(r.bids, derived, core.WithVerification, r.payOut); err != nil {
		return err
	}
	out := r.payOut
	if err := r.ref.CheckFineSufficient(out.Compensation); err != nil {
		// The configured fine violates F ≥ Σ α_j·w̃_j; surface it rather
		// than continue with a toothless deterrent.
		return fmt.Errorf("protocol: %w", err)
	}

	// Every processor signs its payment vector; a payment equivocator
	// also signs a second one with its own entry raised. An honest
	// processor's vector is the engine's own: sealing only reads it. The
	// requests point at payloads the state keeps, and the envelopes are
	// sealed over the previous round's.
	n := r.m
	for _, a := range r.agents {
		if a.Behavior.EquivocatePayments {
			n++
		}
	}
	st.payloads = slices.Grow(st.payloads[:0], n)[:n]
	st.seals = slices.Grow(st.seals[:0], n)[:n]
	k := 0
	submit := func(a *agent.Agent, q []float64) {
		st.payloads[k] = referee.PaymentPayload{Proc: a.ID, Q: q, Round: r.roundID}
		st.seals[k] = sig.Sealing{Key: a.Key, Kind: referee.KindPayment, Payload: &st.payloads[k]}
		k++
	}
	for i, a := range r.agents {
		q := out.Payment
		if a.Behavior.WrongPaymentFactor != 1 {
			q = a.PaymentVector(out.Payment, i)
		}
		submit(a, q)
		if a.Behavior.EquivocatePayments {
			q2 := append([]float64(nil), q...)
			q2[i] += 1
			submit(a, q2)
		}
	}
	envs, err := r.ver.SealEach(st.seals, st.payEnvs)
	if err != nil {
		return err
	}
	st.payEnvs = envs
	// Each processor's submissions are its run of envs, in signing order.
	if st.subs == nil {
		st.subs = make(map[string][]sig.Envelope, r.m)
	}
	subs := st.subs
	clear(subs)
	for _, a := range r.agents {
		n := 1
		if a.Behavior.EquivocatePayments {
			n = 2
		}
		mine := envs[:n:n]
		envs = envs[n:]
		if _, err := r.xp.sendReliable(a.ID, r.refAddr, referee.KindPayment, mine[0], r.m); err != nil {
			return err
		}
		// A sealed payment vector the referee can verify is signed
		// evidence — the sentinel requires some before any conviction.
		r.evidence(a.ID, referee.KindPayment)
		for _, env := range mine[1:] {
			if _, err := r.xp.sendReliable(a.ID, r.refAddr, referee.KindPayment, env, r.m); err != nil {
				return err
			}
		}
		subs[a.ID] = mine
	}

	v, q, err := r.ref.JudgePayments(r.bids, derived, subs)
	if err != nil {
		return err
	}
	if _, err := r.settle(v, nil); err != nil {
		return err
	}

	// Forward Q to the payment infrastructure as an invoice: the user
	// remits payment. Q is per-unit-load; the installment's share scales
	// it, so across a pipelined load the per-installment payments sum to
	// (telescope into) the single-round payment — exactly so at
	// loadFrac=1, where the scaling multiplies by the constant 1.
	paid := make([]float64, len(q))
	inv := payment.Invoice{Payer: UserID, Lines: make([]payment.InvoiceLine, 0, len(r.procs))}
	for i, p := range r.procs {
		paid[i] = q[i] * r.loadFrac
		inv.Lines = append(inv.Lines, payment.InvoiceLine{
			Account: p,
			Memo:    fmt.Sprintf("payment Q for %s (C=%.6g, B=%.6g)", p, out.Compensation[i], out.Bonus[i]),
			Amount:  paid[i],
		})
	}
	if err := r.ledger.PayInvoice(inv); err != nil {
		return err
	}
	r.outcome.Invoice = inv
	r.outcome.Payments = paid
	if r.tracer != nil {
		// Economic sentinel events: one payment event per processor with
		// the Definition 3.1 decomposition Q = C + B (load-fraction
		// scaled, like the invoice lines), then the invoice total — the
		// stream a Sentinel checks payment shape and conservation on.
		total := 0.0
		for i, p := range r.procs {
			r.tracer.Event(obs.Event{
				Kind: obs.EvPayment, From: p, Round: r.roundID,
				Values: []float64{paid[i], out.Compensation[i] * r.loadFrac, out.Bonus[i] * r.loadFrac},
			})
			total += paid[i]
		}
		r.tracer.Event(obs.Event{
			Kind: obs.EvInvoice, From: UserID, Round: r.roundID,
			Values: []float64{total},
		})
	}
	return nil
}
