package protocol

import (
	"fmt"
	"slices"
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
	"NCP-FE/rate-splice 5eed69f294ec247b66b3b42ea6cae1bc780709e37f4118c5b6614b621b4de73f q=[0.8386602327561737 0.5399173849047512 0.46174394864243906 0.27812969359420253] f=[0 0 0 0] done=true",
	"NCP-FE/reuse-spliced dd29f3b941760b15f007ef89c3aa163645dc0c39e41c8b7ab7e9ac78aa231917 q=[0.8386602327561737 0.5399173849047512 0.46174394864243906 0.27812969359420253] f=[0 0 0 0] done=true",
	"NCP-FE/leave-splice fb7037ccb95401876d0a59c7fd2be621f38cbc4869dc33f3983ad1679843d436 q=[1.2321100917431191 0.7330393951848946 0 0.3858976115449605] f=[0 0 0 0] done=true",
	"NCP-FE/reuse-tamperer 2230df48d5acf0a6a6d57a3523bc16cad4aad98e892e374821bf51392bc3d501 q=[] f=[0 30 0 0] done=false",
	"NCP-FE/reuse-payment-cheat 38bcac0ab4c56af5d539a5aed9eebad320b8083aa86ef7f08b204b6c10acafda q=[1.2321100917431191 0.7330393951848946 0 0.3858976115449605] f=[0 30 0 0] done=true",
	"NCP-FE/installment-1 41e7407d9ed432eec7fdffc51ad1184dcc6dd4abb2a0f73f20daf43f96b57500 q=[0.3571428571428571 0.2631578947368421 0 0.14252873563218393] f=[0 0 0 0] done=true",
	"NCP-FE/installment-2 9a7021f1bc4458005924d1472f638db3306f26107d0ba498349dbaff74abc28d q=[0.3571428571428571 0.2631578947368421 0 0.14252873563218393] f=[0 0 0 0] done=true",
	"NCP-FE/installment-3 484fddcc3825e9d80b3be21c6aa142d7376bae9ad7dd2efe4941e930aef71215 q=[0.3571428571428571 0.2631578947368421 0 0.14252873563218393] f=[0 0 0 0] done=true",
	"NCP-FE/lossy-reuse 38f809a652bd49c00a39259eda9a9c377d31104dbf6eee75a2c6d9263396c1c1 q=[1.2321100917431191 0.7330393951848946 0 0.3858976115449605] f=[0 0 0 0] done=true",
	"NCP-FE/equivocation-rebid 68f6a48849458b8221477154ff0b0c0132097040b8edf73d090fde27dd05fee5 q=[] f=[0 30 0 0] done=false",
	"NCP-FE/final-reuse 1f620b520e2c4305169fea2268d15ac57a0722dce391b7423b48f56ed662956c q=[1.2321100917431191 0.7330393951848946 0 0.3858976115449605] f=[0 0 0 0] done=true",
	"NCP-NFE/full 0e65f06afeea33d03f787b0ca96f019d8713d9d5b79f322319579fc9814fe092 q=[0.6766912320483749 0.5225000000000001 0.44595959595959583 0.4310035842293906] f=[0 0 0 0] done=true",
	"NCP-NFE/reuse d5814a237be29cc15a916bef941733b89a2aa66d96ea72df320315433f72daad q=[0.6766912320483749 0.5225000000000001 0.44595959595959583 0.4310035842293906] f=[0 0 0 0] done=true",
	"NCP-NFE/rate-splice cd1fed6a579a88de60699314dcc364fda362993b8b4e9d77fb11db8502bc0fd7 q=[0.7403344120819849 0.5629680998613037 0.47748199185718754 0.30128405887879733] f=[0 0 0 0] done=true",
	"NCP-NFE/reuse-spliced ff1127b12f865486c41cfc3d80cf6afed79141cc213cb118d61995e7353df372 q=[0.7403344120819849 0.5629680998613037 0.47748199185718754 0.30128405887879733] f=[0 0 0 0] done=true",
	"NCP-NFE/leave-splice ceff9755cfc30a213a2dafadec5301a281c009c7ac7268edfb26b5e985f7e00c q=[1.1046082949308755 0.7731748726655349 0 0.42007168458781347] f=[0 0 0 0] done=true",
	"NCP-NFE/reuse-tamperer 96ac2135cee9e7177f686b85f7f40d7769210b2ddcaf7fed8464a6acf253ffe3 q=[] f=[0 30 0 0] done=false",
	"NCP-NFE/reuse-payment-cheat e1185193c44f05e67a5b302a7e37936a47893ac181c9477632312b5d192e97bf q=[1.1046082949308755 0.7731748726655349 0 0.42007168458781347] f=[0 30 0 0] done=true",
	"NCP-NFE/lossy-reuse 16aae318306674bf4040a89340f07719636379df2e8c4ddbaba9176f261b5362 q=[1.1046082949308755 0.7731748726655349 0 0.42007168458781347] f=[0 0 0 0] done=true",
	"NCP-NFE/equivocation-rebid 7e796e4a4d3743399f04981add23c826afb24d20faa2217a076bb7c88ccc18ba q=[] f=[0 30 0 0] done=false",
	"NCP-NFE/final-reuse bec212f6c728bd83eca63fbf0fdebb77b1841373781418ab85a2f6ddb6334f96 q=[1.1046082949308755 0.7731748726655349 0 0.42007168458781347] f=[0 0 0 0] done=true",
	"run e3f3ccb39fd5517826b3174cf8c240be34cb03b7035668f491c3ce2430387c0e q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"run-round 1ce28f2467e75532e2ff5f3d16c0aaaac701a05a34123f791764177de630d57d q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
	"failover 930b4c63d572a92ccab56ef002249b5da2f02df241cf21d5b56daaeab75dd85b q=[0.7773672055427252 0.506815375236428 0.43564583880283536 0.39016218451702317] f=[0 0 0 0] done=true",
}

// roundKind names how a round's bids were served: "full" for a fresh
// exchange, "reuse" for the cached bid set as it stands, "splice" for
// the cached set with one member's bid changed.
func roundKind(out *Outcome) string {
	switch {
	case out.BidReused:
		return "reuse"
	case out.BidSpliced:
		return "splice"
	default:
		return "full"
	}
}

// goldenLine renders one outcome for the transcript golden: its last
// audit hash, payments, fines and completion. It first checks that the
// round was served the way kind names, so a script that drifts off the
// path its label names fails even where the money does not move.
func goldenLine(t *testing.T, label, kind string, out *Outcome) string {
	t.Helper()
	if got := roundKind(out); got != kind {
		t.Errorf("%s: a %s round, want %s", label, got, kind)
	}
	last := "-"
	if n := len(out.Transcript); n > 0 {
		last = out.Transcript[n-1].Hash
	}
	return fmt.Sprintf("%s %s q=%v f=%v done=%v", label, last, out.Payments, out.Fines, out.Completed)
}

// goldenSession scripts a BidSession, through job behaviors alone,
// through every way a round can be served: a full exchange, reuse, a rate
// splice (P4 overbids) and reuse of the spliced cache, a leave splice (P3
// abstains), deviant reuse rounds, installment sub-rounds, a lossy reuse
// round, a terminated equivocation re-bid and a final reuse round. The
// overbid and the abstention stay in a base assignment that every later
// job carries; each deviant is overlaid on P2.
func goldenSession(t *testing.T, net dlt.Network) []string {
	t.Helper()
	s, err := NewBidSession(Config{Network: net, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	base := make([]agent.Behavior, 4)
	seed := int64(0)
	run := func(label, kind string, behaviors []agent.Behavior, faults *bus.FaultPlan) {
		t.Helper()
		seed++
		out, err := s.Run(JobConfig{Seed: seed, NBlocks: 40, Behaviors: behaviors, Faults: faults})
		if err != nil {
			t.Fatalf("%v %s: %v", net, label, err)
		}
		lines = append(lines, goldenLine(t, fmt.Sprintf("%v/%s", net, label), kind, out))
	}
	p2 := func(b agent.Behavior) []agent.Behavior {
		bs := slices.Clone(base)
		bs[1] = b
		return bs
	}

	run("full", "full", nil, nil)
	run("reuse", "reuse", nil, nil)
	base[3] = agent.OverBid
	run("rate-splice", "splice", slices.Clone(base), nil)
	run("reuse-spliced", "reuse", slices.Clone(base), nil)
	base[2] = agent.Behavior{Name: "abstain", Abstain: true}
	run("leave-splice", "splice", slices.Clone(base), nil)
	run("reuse-tamperer", "reuse", p2(agent.VectorTamper), nil)
	run("reuse-payment-cheat", "reuse", p2(agent.PaymentCheat), nil)
	if net == dlt.NCPFE {
		fracs, err := dlt.RoundFractions(3, dlt.EqualRounds)
		if err != nil {
			t.Fatal(err)
		}
		n := s.NextRound()
		for k, f := range fracs {
			out, err := s.RunSub(JobConfig{Seed: 100, NBlocks: 40, Behaviors: slices.Clone(base)}, n, k+1, len(fracs), f, dlt.EqualRounds)
			if err != nil {
				t.Fatalf("installment %d: %v", k+1, err)
			}
			lines = append(lines, goldenLine(t, fmt.Sprintf("%v/installment-%d", net, k+1), "reuse", out))
		}
	}
	run("lossy-reuse", "reuse", slices.Clone(base), &bus.FaultPlan{Seed: 3, Drop: 0.1, Duplicate: 0.1, Reorder: 0.1})
	run("equivocation-rebid", "full", p2(agent.Equivocator), nil)
	run("final-reuse", "reuse", slices.Clone(base), nil)
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
		got = append(got, goldenLine(t, label, "full", out))
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
