package bus

import (
	"reflect"
	"testing"

	"dlsbl/internal/obs"
)

func TestFaultPlanValidatePairsAndCrashes(t *testing.T) {
	bad := []*FaultPlan{
		{Pairs: []PairFault{{From: "", To: "P2", Drop: 1}}},
		{Pairs: []PairFault{{From: "P1", To: "P1", Drop: 1}}},
		{Pairs: []PairFault{{From: "P1", To: "P2", Drop: 1.5}}},
		{Pairs: []PairFault{{From: "P1", To: "P2", Corrupt: -0.1}}},
		{Pairs: []PairFault{{From: "P1", To: "P2", Jitter: -1}}},
		{Crashes: []Crash{{Proc: ""}}},
		{Crashes: []Crash{{Proc: "P1", Installment: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid plan %d accepted: %+v", i, p)
		}
	}
	ok := &FaultPlan{
		Pairs:   []PairFault{{From: "P1", To: "P2", Drop: 1, Corrupt: 0.5, Jitter: 0.1}},
		Crashes: []Crash{{Proc: "P3", Installment: 2}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid targeted plan rejected: %v", err)
	}
}

func TestDataPlaneActive(t *testing.T) {
	var nilPlan *FaultPlan
	cases := []struct {
		plan *FaultPlan
		want bool
	}{
		{nilPlan, false},
		{&FaultPlan{}, false},
		{&FaultPlan{Drop: 0.5}, false}, // control-plane only
		{&FaultPlan{JitterMax: 0.1}, true},
		{&FaultPlan{Pairs: []PairFault{{From: "P1", To: "P2", Drop: 1}}}, false},
		{&FaultPlan{Pairs: []PairFault{{From: "P1", To: "P2", Jitter: 0.2}}}, true},
	}
	for i, c := range cases {
		if got := c.plan.DataPlaneActive(); got != c.want {
			t.Errorf("case %d: DataPlaneActive = %v, want %v", i, got, c.want)
		}
	}
}

func TestCrashAt(t *testing.T) {
	var nilPlan *FaultPlan
	if got := nilPlan.CrashAt(1); got != nil {
		t.Errorf("nil plan crashes %v", got)
	}
	p := &FaultPlan{Crashes: []Crash{
		{Proc: "P1", Installment: 2},
		{Proc: "P2"}, // Installment 0: every installment
		{Proc: "P3", Installment: 1},
	}}
	if got := p.CrashAt(1); !reflect.DeepEqual(got, []string{"P2", "P3"}) {
		t.Errorf("CrashAt(1) = %v", got)
	}
	if got := p.CrashAt(2); !reflect.DeepEqual(got, []string{"P1", "P2"}) {
		t.Errorf("CrashAt(2) = %v", got)
	}
	if got := p.CrashAt(3); !reflect.DeepEqual(got, []string{"P2"}) {
		t.Errorf("CrashAt(3) = %v", got)
	}
}

func TestPairFaultsTargetOnlyTheirLink(t *testing.T) {
	plan := &FaultPlan{Seed: 9, Pairs: []PairFault{{From: "a", To: "b", Drop: 1}}}
	b := faultyBus(t, plan, "a", "b", "c")
	_, env := sealedBy(t, "a", "x")
	if _, err := broadcast(b, "a", "k", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	bMsgs, err := b.Drain("b")
	if err != nil {
		t.Fatal(err)
	}
	cMsgs, err := b.Drain("c")
	if err != nil {
		t.Fatal(err)
	}
	if len(bMsgs) != 0 {
		t.Errorf("b received %d messages over its severed inbound link", len(bMsgs))
	}
	if len(cMsgs) != 1 {
		t.Errorf("c received %d messages over its clean link, want 1", len(cMsgs))
	}
	if s := b.Stats(); s.Dropped != 1 {
		t.Errorf("stats = %+v, want exactly 1 drop", s)
	}
}

func TestMarkUnresponsiveMidRun(t *testing.T) {
	b := faultyBus(t, nil, "a", "b")
	_, env := sealedBy(t, "a", "x")
	if err := b.Send("a", "b", "k", env, 1); err != nil {
		t.Fatal(err)
	}
	if msgs, err := b.Drain("b"); err != nil || len(msgs) != 1 {
		t.Fatalf("pre-crash delivery failed: %v, %d messages", err, len(msgs))
	}
	b.MarkUnresponsive("b")
	if err := b.Send("a", "b", "k", env, 1); err != nil {
		t.Fatal(err)
	}
	if msgs, _ := b.Drain("b"); len(msgs) != 0 {
		t.Errorf("dead endpoint still received %d messages", len(msgs))
	}
	if s := b.Stats(); s.Dropped != 1 {
		t.Errorf("stats = %+v, want the post-crash send counted as a drop", s)
	}
}

// TestFreshNoncesMonotonic pins the nonce counter: every transmission
// sent under a zero nonce, broadcast or unicast, gets the next one, and
// one sent under an explicit nonce keeps it and draws none.
func TestFreshNoncesMonotonic(t *testing.T) {
	b := faultyBus(t, nil, "a", "b")
	_, env := sealedBy(t, "a", "x")
	bs := []Broadcast{{From: "a", Kind: "k", Env: env, Size: 1}, {From: "b", Kind: "k", Env: env, Size: 1, Nonce: 40}}
	if err := b.BroadcastEach(bs); err != nil {
		t.Fatal(err)
	}
	n3, err := b.SendTagged("a", "b", "k", env, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bs[0].Nonce != 1 || bs[1].Nonce != 40 || n3 != 2 {
		t.Errorf("nonces %d, %d, %d; want 1, 40 (explicit), 2", bs[0].Nonce, bs[1].Nonce, n3)
	}
}

func TestSetTracerEmitsDeliveryEvents(t *testing.T) {
	b := faultyBus(t, nil, "a", "b")
	rec := obs.NewRecorder()
	b.SetTracer(rec)
	_, env := sealedBy(t, "a", "x")
	if err := b.Send("a", "b", "k", env, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Drain("b"); err != nil {
		t.Fatal(err)
	}
	if len(rec.Records()) == 0 {
		t.Error("tracer saw no delivery events")
	}
}
