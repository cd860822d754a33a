package protocol

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
	"dlsbl/internal/payment"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// newTwinSessions returns two sessions over the same founding config: a
// keeps its round state between rounds, b drops it before every round, so
// each of b's rounds builds names, keys, registry, bus, transport,
// ledger, engine and referee afresh.
func newTwinSessions(t *testing.T, cfg Config) (a, b *BidSession) {
	t.Helper()
	a, err := NewBidSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b, err = NewBidSession(cfg); err != nil {
		t.Fatal(err)
	}
	b.freshState = true
	return a, b
}

// historyStep is one entry of a played history: the outcomes of the
// rounds it served (several for an installment load) or its error.
type historyStep struct {
	name string
	outs []*Outcome
	err  string
}

// untraced strips the wall-clock fields of a recorder's records, the only
// part of a trace that differs between two identical runs.
func untraced(rec *obs.Recorder) []obs.Record {
	recs := rec.Records()
	for i := range recs {
		recs[i].TS, recs[i].Wall = 0, 0
	}
	return recs
}

// playMixedHistory plays the history TestRoundStateReuseMatchesFresh
// compares: reuse rounds, a lossy-bus job, an unresponsive member whose
// eviction follows the cached attempt's fallback to the full exchange, a
// member's return, a rate-change splice (P3 overbids from then on), a
// leave splice (P4 abstains for one job) and P4's return, a payment
// cheat's conviction, an equivocator's terminated Bidding, a
// 4-installment load with a crash in installment 2, and a traced job
// followed by untraced ones. check, when non-nil, inspects s after each
// step.
func playMixedHistory(t *testing.T, s *BidSession, rec *obs.Recorder, check func(step string, s *BidSession)) []historyStep {
	t.Helper()
	var steps []historyStep
	record := func(name string, outs []*Outcome, err error) {
		st := historyStep{name: name, outs: outs}
		if err != nil {
			st.err = err.Error()
		}
		steps = append(steps, st)
		if check != nil {
			check(name, s)
		}
	}
	run := func(name string, job JobConfig) {
		out, err := s.Run(job)
		record(name, []*Outcome{out}, err)
	}
	// base is every job's assignment once P3 overbids; behave overlays
	// one member's behavior on it.
	base := make([]agent.Behavior, 6)
	behave := func(idx int, b agent.Behavior) []agent.Behavior {
		bs := slices.Clone(base)
		bs[idx] = b
		return bs
	}
	honest := JobConfig{Seed: 5}
	run("bid", honest)
	run("reuse", honest)
	run("reuse again", honest)
	run("lossy bus", JobConfig{Seed: 5, Faults: &bus.FaultPlan{Seed: 11, Drop: 0.1, Duplicate: 0.05, Reorder: 0.05}})
	run("unresponsive P4", JobConfig{Seed: 5, Faults: &bus.FaultPlan{Unresponsive: []string{"P4"}}, Retry: RetryPolicy{MaxAttempts: 3}})
	run("P4 back", honest)
	base[2] = agent.OverBid
	honest.Behaviors = base
	run("rate change", honest)
	run("leave", JobConfig{Seed: 5, Behaviors: behave(3, agent.Behavior{Name: "abstain", Abstain: true})})
	run("return", honest)
	run("payment cheat", JobConfig{Seed: 5, Behaviors: behave(4, agent.Behavior{Name: "cheat", WrongPaymentFactor: 2})})
	run("equivocator", JobConfig{Seed: 5, Behaviors: behave(1, agent.Behavior{Name: "equivocator", Equivocate: true, EquivocationFactor: 0.5})})

	// A 4-installment load whose P6 crashes in installment 2: later
	// installments run without it, as pipeline.RunLoad plays them.
	n := s.NextRound()
	fracs, err := dlt.RoundFractions(4, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	job := JobConfig{Seed: 5, Behaviors: base, Faults: &bus.FaultPlan{Crashes: []bus.Crash{{Proc: "P6", Installment: 2}}}}
	var outs []*Outcome
	for k, f := range fracs {
		out, err := s.RunSub(job, n, k+1, len(fracs), f, dlt.EqualRounds)
		if err != nil {
			record("installment load", outs, err)
			break
		}
		outs = append(outs, out)
		if len(out.Evictions) > 0 {
			job = JobConfig{Seed: 5, Faults: &bus.FaultPlan{}, Behaviors: behave(5, agent.Behavior{Name: "crashed", Abstain: true})}
		}
		if k == len(fracs)-1 {
			record("installment load", outs, nil)
		}
	}

	run("traced", JobConfig{Seed: 5, Behaviors: base, Tracer: rec})
	seen := len(rec.Records())
	run("untraced", honest)
	run("untraced reuse", honest)
	if got := len(rec.Records()); got != seen {
		t.Errorf("the traced job's recorder received %d records after its round", got-seen)
	}
	return steps
}

// TestRoundStateReuseMatchesFresh plays one session through a mixed
// history and replays it on a session that drops its round state before
// every round: every outcome (payments, fines, verdicts, transcripts, bus
// and transport stats, timelines), every trace record but its wall
// clock, and the session stats must be equal. It also checks that the
// history reached the paths it names and that the state was kept, and
// rebuilt, when it should have been.
func TestRoundStateReuseMatchesFresh(t *testing.T) {
	cfg := Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{1, 1.25, 1.5, 1.75, 2, 2.25}}
	a, b := newTwinSessions(t, cfg)
	recA, recB := obs.NewRecorder(), obs.NewRecorder()

	var kept *roundState
	var keptReg *sig.Registry
	check := func(step string, s *BidSession) {
		st := s.state
		defer func() { keptReg = st.reg }()
		switch step {
		case "bid":
			kept = st
		case "reuse", "reuse again", "lossy bus", "unresponsive P4", "P4 back", "rate change":
			if st != kept || st.reg != keptReg {
				t.Errorf("%s: the round state was rebuilt over an unchanged participant set", step)
			}
			if st.net == nil {
				t.Errorf("%s: no reliable bus kept", step)
			}
		case "leave", "return":
			if st.reg == keptReg {
				t.Errorf("%s: the registry survived a change of the participant set", step)
			}
			ids := append([]string{"referee"}, st.procs...)
			slices.Sort(ids)
			if got := st.reg.Identities(); !slices.Equal(got, ids) {
				t.Errorf("%s: the registry holds %v, want %v", step, got, ids)
			}
		}
	}
	stepsA := playMixedHistory(t, a, recA, check)
	stepsB := playMixedHistory(t, b, recB, nil)

	for i, sa := range stepsA {
		sb := stepsB[i]
		if sa.err != sb.err {
			t.Fatalf("%s: error %q with the state kept, %q without", sa.name, sa.err, sb.err)
		}
		if sa.err != "" {
			t.Fatalf("%s: %s", sa.name, sa.err)
		}
		for k := range sa.outs {
			if !reflect.DeepEqual(sa.outs[k], sb.outs[k]) {
				t.Errorf("%s (round %d): the outcome differs from a round built afresh", sa.name, k+1)
			}
		}
	}
	if !reflect.DeepEqual(untraced(recA), untraced(recB)) {
		t.Error("the traced round's records differ from a round built afresh")
	}
	if a.Stats() != b.Stats() {
		t.Errorf("session stats %+v with the state kept, %+v without", a.Stats(), b.Stats())
	}

	// The history reached what it names.
	out := func(name string) *Outcome {
		for _, s := range stepsA {
			if s.name == name {
				return s.outs[len(s.outs)-1]
			}
		}
		t.Fatalf("no step %q", name)
		return nil
	}
	for _, name := range []string{"reuse", "lossy bus", "payment cheat", "untraced"} {
		if !out(name).BidReused {
			t.Errorf("%s: not a reuse round", name)
		}
	}
	for _, name := range []string{"rate change", "leave"} {
		if !out(name).BidSpliced {
			t.Errorf("%s: not a splice", name)
		}
	}
	if o := out("return"); roundKind(o) != "full" || !o.Participated[3] {
		t.Errorf("return: a %s round, P4 participated=%v; want a full exchange with P4", roundKind(o), o.Participated[3])
	}
	if o := out("lossy bus"); o.Fault.Retransmits == 0 || o.BusStats.Dropped == 0 {
		t.Errorf("lossy bus: %d retransmits, %d drops; the job did not exercise its fault plan", o.Fault.Retransmits, o.BusStats.Dropped)
	}
	if o := out("unresponsive P4"); o.BidReused || len(o.Evictions) != 1 || o.Evictions[0].Proc != "P4" || o.Evictions[0].Phase != obs.PhaseBidding {
		t.Errorf("unresponsive P4: reused=%v evictions=%+v; want the full exchange to evict P4", o.BidReused, o.Evictions)
	}
	if o := out("payment cheat"); o.Fines[4] == 0 {
		t.Error("payment cheat: P5 was not fined")
	}
	if o := out("equivocator"); o.TerminatedIn != "bidding" {
		t.Errorf("equivocator: terminated in %q, want bidding", o.TerminatedIn)
	}
	var load historyStep
	for _, s := range stepsA {
		if s.name == "installment load" {
			load = s
		}
	}
	if len(load.outs) != 4 || len(load.outs[1].Evictions) != 1 || load.outs[1].Evictions[0].Proc != "P6" {
		t.Errorf("installment load: %d installments, installment 2 evicted %+v; want 4 and P6", len(load.outs), load.outs[1].Evictions)
	}
}

// TestRoundStateAfterPanic stops a full bid exchange with a panic once the
// bids are on the bus and one receiver has pulled its copies, recovers
// as the service's job boundary does, and plays on. The rounds after the
// panic must equal those of a session that builds every round afresh,
// whether or not the session drops its cache (the service's recovery
// does, which also releases the round state).
func TestRoundStateAfterPanic(t *testing.T) {
	for _, drop := range []bool{false, true} {
		t.Run(fmt.Sprintf("drop=%v", drop), func(t *testing.T) {
			cfg := Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{1, 1.5, 2, 2.5, 3}}
			a, b := newTwinSessions(t, cfg)
			honest := JobConfig{Seed: 9}
			// A false accuser is not spliceable: its round runs the full
			// exchange over an unchanged participant set.
			accuser := JobConfig{Seed: 9, Behaviors: []agent.Behavior{{}, {}, {Name: "accuser", FalseEquivocationReport: true}}}
			play := func(s *BidSession) []*Outcome {
				for i := 0; i < 2; i++ {
					if _, err := s.Run(honest); err != nil {
						t.Fatal(err)
					}
				}
				func() {
					save := receiveBids
					defer func() { receiveBids = save }()
					receiveBids = func(r *run, msgs []logicalBid) ([][]*bus.Message, [][]int, error) {
						if err := r.xp.pull(r.agents[1].ID); err != nil {
							t.Fatal(err)
						}
						panic("receive side failed mid-Bidding")
					}
					defer func() {
						if v := recover(); v == nil {
							t.Fatal("the round did not panic")
						}
					}()
					_, _ = s.Run(accuser)
				}()
				if drop {
					s.DropCache()
					if s.state != nil {
						t.Fatal("DropCache kept the round state")
					}
				}
				var outs []*Outcome
				for _, job := range []JobConfig{honest, honest, accuser, honest} {
					out, err := s.Run(job)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, out)
				}
				return outs
			}
			outsA, outsB := play(a), play(b)
			for k := range outsA {
				if !reflect.DeepEqual(outsA[k], outsB[k]) {
					t.Errorf("round %d after the panic differs from a round built afresh", k+1)
				}
			}
			if want := !drop; outsA[0].BidReused != want {
				t.Errorf("first round after the panic: reused=%v, want %v", outsA[0].BidReused, want)
			}
		})
	}
}

// outcomeRecord is a deep copy of what a round hands out that no later
// round may move: its payments, fines, verdicts, invoice lines and
// transcript entries with their hashes.
type outcomeRecord struct {
	payments, fines []float64
	verdicts        []referee.Verdict
	lines           []payment.InvoiceLine
	transcript      []referee.AuditEntry
}

func recordOutcome(o *Outcome) outcomeRecord {
	rec := outcomeRecord{
		payments: slices.Clone(o.Payments),
		fines:    slices.Clone(o.Fines),
		lines:    slices.Clone(o.Invoice.Lines),
	}
	for _, v := range o.Verdicts {
		v.Guilty = slices.Clone(v.Guilty)
		rec.verdicts = append(rec.verdicts, v)
	}
	for _, e := range o.Transcript {
		e.Guilty = slices.Clone(e.Guilty)
		rec.transcript = append(rec.transcript, e)
	}
	return rec
}

// TestRecycledEnvelopeLifetime plays one session through rounds that
// seal their payment vectors over the previous round's envelopes: a
// payment cheat's conviction, a payment equivocator's, a bid
// equivocator's terminated exchange (which keeps the bid cache), honest
// reuse rounds, a rate-change splice and a 4-installment load. Each
// round's outcome is deep-copied right after it. Once the session is
// done, every outcome must still equal its copy and every transcript
// must verify, so nothing a round hands out points into storage a later
// round rewrites; and the rounds after the bid equivocator must still be
// served from the first round's cache, whose bid envelopes no later
// exchange may overwrite.
func TestRecycledEnvelopeLifetime(t *testing.T) {
	cfg := Config{Network: dlt.NCPFE, Z: 0.1, TrueW: []float64{1, 1.25, 1.5, 1.75, 2, 2.25}}
	s, err := NewBidSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]agent.Behavior, len(cfg.TrueW))
	behave := func(idx int, b agent.Behavior) []agent.Behavior {
		bs := slices.Clone(base)
		bs[idx] = b
		return bs
	}
	type played struct {
		name string
		out  *Outcome
		rec  outcomeRecord
	}
	var rounds []played
	// sealedOver counts the completed rounds whose first payment envelope
	// took its payload bytes from the storage of the round before.
	sealedOver := 0
	var lastPayload *byte
	keep := func(name, kind string, out *Outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := roundKind(out); got != kind {
			t.Fatalf("%s: a %s round, want %s", name, got, kind)
		}
		rounds = append(rounds, played{name: name, out: out, rec: recordOutcome(out)})
		if !out.Completed {
			return
		}
		p := &s.state.payEnvs[0].Payload[0]
		if p == lastPayload {
			sealedOver++
		}
		lastPayload = p
	}
	honest := JobConfig{Seed: 4}
	run := func(name, kind string, job JobConfig) {
		out, err := s.Run(job)
		keep(name, kind, out, err)
	}
	run("payment cheat", "full", JobConfig{Seed: 4, Behaviors: behave(1, agent.PaymentCheat)})
	run("payment equivocator", "reuse", JobConfig{Seed: 4, Behaviors: behave(2, agent.PaymentLiar)})
	run("bid equivocator", "full", JobConfig{Seed: 4, Behaviors: behave(3, agent.Behavior{Name: "equivocator", Equivocate: true, EquivocationFactor: 0.5})})
	run("reuse", "reuse", honest)
	run("reuse again", "reuse", honest)
	base[4] = agent.OverBid
	honest.Behaviors = base
	run("rate change", "splice", honest)
	run("reuse after the splice", "reuse", honest)
	n := s.NextRound()
	fracs, err := dlt.RoundFractions(4, dlt.EqualRounds)
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range fracs {
		out, err := s.RunSub(honest, n, k+1, len(fracs), f, dlt.EqualRounds)
		keep(fmt.Sprintf("installment %d", k+1), "reuse", out, err)
	}

	if sealedOver < 4 {
		t.Errorf("%d rounds sealed their payment vectors over the previous round's envelopes, want at least 4", sealedOver)
	}
	fined := func(name string, idx int) {
		for _, p := range rounds {
			if p.name == name && p.out.Fines[idx] == 0 {
				t.Errorf("%s: P%d was not fined", name, idx+1)
			}
		}
	}
	fined("payment cheat", 1)
	fined("payment equivocator", 2)
	fined("bid equivocator", 3)
	for _, p := range rounds {
		if !reflect.DeepEqual(recordOutcome(p.out), p.rec) {
			t.Errorf("%s: the outcome changed after later rounds", p.name)
		}
		if err := referee.VerifyEntries(p.out.Transcript); err != nil {
			t.Errorf("%s: transcript: %v", p.name, err)
		}
	}
}
