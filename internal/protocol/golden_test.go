package protocol

import (
	"fmt"
	"strings"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
)

// transcriptGolden pins, for every round of a scripted session and for
// three one-shot runs, the last hash of the referee's audit chain and
// the settled money flow. The chain hash commits to every adjudication,
// bid-reuse and bid-splice entry, meter and settlement of the round, so a
// change to how cached rounds are served that alters any of them —
// rather than only the work done to reach them — fails here.
var transcriptGolden = []string{
	"NCP-FE/full 453d711740f9471b0f808e7fa9894d7433b12c72cecdfe85c7a9b31ac7815109 q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"NCP-FE/reuse cda729bc4d395372012a5d3f0e29060f794110e3dfbd6a50c9ce29fc15d5018a q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"NCP-FE/rate-splice 996e9710d351ea81fc03e9ebdbce8409607df854c44a7ad586748744d0892b00 q=[0.8177197317331449 0.5121311707106821 0.45910405944915567 0.4106031046242068] f=[0 0 0 0] done=true",
	"NCP-FE/reuse-spliced 34cb37660f84559ae5cf95cba0f900e20c1cf9d7a387be45c029269f3c908225 q=[0.8177197317331449 0.5121311707106821 0.45910405944915567 0.4106031046242068] f=[0 0 0 0] done=true",
	"NCP-FE/join-splice 34c7ed456a86b38a8bac2923530cd625dd57d3dbf301965c645bb135ea46399f q=[0.6854099633862198 0.44507548990422713 0.40019829225486203 0.36015731825414965 0.3311946928145045] f=[0 0 0 0 0] done=true",
	"NCP-FE/leave-splice 6357d80754f7725affa99e8f6990dd91ec0e3c475c8bb7395bf26dd63fc55c15 q=[0.9050765511684125 0.5537836181903066 0 0.4773316961627263 0.4369627872062956] f=[0 0 0 0 0] done=true",
	"NCP-FE/reuse-tamperer 184f796e55996f77df24e1b51387c39e41199de37728b6759c653d2f2587155f q=[] f=[0 24 0 0 0] done=false",
	"NCP-FE/reuse-payment-cheat 7140e79396179323b3e3a15d618d70b195174fe9c52e35a029cf39664edef628 q=[0.9050765511684125 0.5537836181903066 0 0.4773316961627263 0.4369627872062956] f=[0 0 0 24 0] done=true",
	"NCP-FE/installment-1 432d477bece7ba1b8b7bd0ca0fe683c939a1cb56a6656a9f48cbcf4c861779b3 q=[0.2651163258329813 0.18912905276541636 0 0.17297520661157023 0.1674518571751773] f=[0 0 0 0 0] done=true",
	"NCP-FE/installment-2 2109d864febb6a667bb28db5a39a53d1a37e599bf4bff8ceac44382054b077a4 q=[0.2651163258329813 0.18912905276541636 0 0.17297520661157023 0.1674518571751773] f=[0 0 0 0 0] done=true",
	"NCP-FE/installment-3 ebf22dcf715a477dfc939ca512425bd31db9ce7199fc269559ef594cdb86124a q=[0.2651163258329813 0.18912905276541636 0 0.17297520661157023 0.1674518571751773] f=[0 0 0 0 0] done=true",
	"NCP-FE/lossy-reuse e3b9eb9a7517ce4a11ddc02befc90871339bae1c2e13ec283cc258f86bd2fb5e q=[0.9050765511684125 0.5537836181903066 0 0.4773316961627263 0.4369627872062956] f=[0 0 0 0 0] done=true",
	"NCP-FE/equivocation-rebid 74f5a073ab0ab49d3d62d96303b2a542452d26cc2bc9c2a405a3f86c4e2ff6b9 q=[] f=[0 24 0 0 0] done=false",
	"NCP-FE/final-reuse 1a3ad401964e3ba60b4e996bd83039830234f451d9540037a06275694cb69437 q=[0.9050765511684125 0.5537836181903066 0 0.4773316961627263 0.4369627872062956] f=[0 0 0 0 0] done=true",
	"NCP-NFE/full 0e65f06afeea33d03f787b0ca96f019d8713d9d5b79f322319579fc9814fe092 q=[0.6766912320483749 0.5225000000000001 0.44595959595959583 0.4310035842293906] f=[0 0 0 0] done=true",
	"NCP-NFE/reuse d5814a237be29cc15a916bef941733b89a2aa66d96ea72df320315433f72daad q=[0.6766912320483749 0.5225000000000001 0.44595959595959583 0.4310035842293906] f=[0 0 0 0] done=true",
	"NCP-NFE/rate-splice 175adc4ff261fe7f989a6684d17f46693c266106440becdc95b9c9b42cb634e7 q=[0.712865009500911 0.5253526970954356 0.47014153356448574 0.453802924706925] f=[0 0 0 0] done=true",
	"NCP-NFE/reuse-spliced d3773fcefc86595ed14187207b2b532f24d193de87c8f570cf0dfb756ba0ea07 q=[0.712865009500911 0.5253526970954356 0.47014153356448574 0.453802924706925] f=[0 0 0 0] done=true",
	"NCP-NFE/join-splice 368f7f7d30a724358943936ee9e29230123cf3686f84d76f35b373942756d2e6 q=[0.5972781576228932 0.456936248241865 0.41022402600880786 0.36762169569063413 0.3601824769729247] f=[0 0 0 0 0] done=true",
	"NCP-NFE/leave-splice 055326f388a89e5cf5779595189f643365516b54803c5d0f0e47fef99191014c q=[0.7968720019793247 0.572134283307595 0 0.48836796955914785 0.4764383528411764] f=[0 0 0 0 0] done=true",
	"NCP-NFE/reuse-tamperer 6f1214b040ef548417aa4f7399794c8d64adb89e8d0d9e4baaade36e69b357df q=[] f=[0 24 0 0 0] done=false",
	"NCP-NFE/reuse-payment-cheat d92619fd3d6f3882b3f75a7e433efe12daababe853c43c39a3930150e9a5aba7 q=[0.7968720019793247 0.572134283307595 0 0.48836796955914785 0.4764383528411764] f=[0 0 0 24 0] done=true",
	"NCP-NFE/lossy-reuse a300fabeccfe6588a287a6bf2581a208f2f0dbefda0298eca1fc4d826152da84 q=[0.7968720019793247 0.572134283307595 0 0.48836796955914785 0.4764383528411764] f=[0 0 0 0 0] done=true",
	"NCP-NFE/equivocation-rebid 9a38a42870b3b1696bf36f25e54a038933cc02cbb47d43eaf2697f2194a4acb3 q=[] f=[0 24 0 0 0] done=false",
	"NCP-NFE/final-reuse 05ed36f98333aa4fa425fc443142c9899957799ee9893d550c28d184027713cd q=[0.7968720019793247 0.572134283307595 0 0.48836796955914785 0.4764383528411764] f=[0 0 0 0 0] done=true",
	"run e3f3ccb39fd5517826b3174cf8c240be34cb03b7035668f491c3ce2430387c0e q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"run-round 1ce28f2467e75532e2ff5f3d16c0aaaac701a05a34123f791764177de630d57d q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"failover 930b4c63d572a92ccab56ef002249b5da2f02df241cf21d5b56daaeab75dd85b q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
}

// goldenLine renders one outcome for the transcript golden: its last
// audit hash, payments, fines and completion.
func goldenLine(label string, out *Outcome) string {
	last := "-"
	if n := len(out.Transcript); n > 0 {
		last = out.Transcript[n-1].Hash
	}
	return fmt.Sprintf("%s %s q=%v f=%v done=%v", label, last, out.Payments, out.Fines, out.Completed)
}

// goldenSession scripts a BidSession through every way a round can be
// served: a full exchange, reuse, a rate splice and reuse of the spliced
// cache, join and leave splices, deviant reuse rounds, installment
// sub-rounds, a lossy reuse round, a terminated equivocation re-bid and a
// final reuse round.
func goldenSession(t *testing.T, net dlt.Network) []string {
	t.Helper()
	s, err := NewBidSession(Config{Network: net, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	seed := int64(0)
	run := func(label string, behaviors []agent.Behavior, faults *bus.FaultPlan) {
		t.Helper()
		seed++
		out, err := s.Run(JobConfig{Seed: seed, NBlocks: 40, Behaviors: behaviors, Faults: faults})
		if err != nil {
			t.Fatalf("%v %s: %v", net, label, err)
		}
		lines = append(lines, goldenLine(fmt.Sprintf("%v/%s", net, label), out))
	}
	at := func(i int, b agent.Behavior) []agent.Behavior {
		bs := make([]agent.Behavior, i+1)
		bs[i] = b
		return bs
	}

	run("full", nil, nil)
	run("reuse", nil, nil)
	if err := s.AnnounceRate(1, 1.75); err != nil {
		t.Fatal(err)
	}
	run("rate-splice", nil, nil)
	run("reuse-spliced", nil, nil)
	if _, err := s.Join(3); err != nil {
		t.Fatal(err)
	}
	run("join-splice", nil, nil)
	if err := s.Leave(2); err != nil {
		t.Fatal(err)
	}
	run("leave-splice", nil, nil)
	run("reuse-tamperer", at(1, agent.VectorTamper), nil)
	run("reuse-payment-cheat", at(3, agent.PaymentCheat), nil)
	if net == dlt.NCPFE {
		fracs, err := dlt.RoundFractions(3, dlt.EqualRounds)
		if err != nil {
			t.Fatal(err)
		}
		n := s.NextRound()
		for k, f := range fracs {
			out, err := s.RunSub(JobConfig{Seed: 100, NBlocks: 40}, n, k+1, len(fracs), f, dlt.EqualRounds)
			if err != nil {
				t.Fatalf("installment %d: %v", k+1, err)
			}
			lines = append(lines, goldenLine(fmt.Sprintf("%v/installment-%d", net, k+1), out))
		}
	}
	run("lossy-reuse", nil, &bus.FaultPlan{Seed: 3, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1})
	run("equivocation-rebid", at(1, agent.Equivocator), nil)
	run("final-reuse", nil, nil)
	return lines
}

// TestTranscriptGolden runs the scripted session on both network classes
// plus a standalone Run, an honest RunRound and a run whose referee fails
// over to its standby, and compares every line with transcriptGolden.
func TestTranscriptGolden(t *testing.T) {
	var got []string
	for _, net := range []dlt.Network{dlt.NCPFE, dlt.NCPNFE} {
		got = append(got, goldenSession(t, net)...)
	}
	cfg := Config{Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}, Seed: 7, NBlocks: 40}
	oneShot := func(label string, run func() (*Outcome, error)) {
		t.Helper()
		out, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got = append(got, goldenLine(label, out))
	}
	oneShot("run", func() (*Outcome, error) { return Run(cfg) })
	oneShot("run-round", func() (*Outcome, error) { return RunRound(cfg, "node:r1") })
	failover := cfg
	failover.Standby, failover.FailoverIn = true, obs.PhaseProcessing
	oneShot("failover", func() (*Outcome, error) { return Run(failover) })

	if len(got) != len(transcriptGolden) {
		t.Errorf("%d golden lines, want %d", len(got), len(transcriptGolden))
	}
	for i := range got {
		if i >= len(transcriptGolden) || got[i] != transcriptGolden[i] {
			t.Errorf("line %d:\n got %s", i, got[i])
		}
	}
	if t.Failed() {
		var b strings.Builder
		for _, l := range got {
			fmt.Fprintf(&b, "\t%q,\n", l)
		}
		t.Logf("current lines:\n%s", b.String())
	}
}
