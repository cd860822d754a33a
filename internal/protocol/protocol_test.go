package protocol

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/referee"
)

const tol = 1e-9

func relErr(a, b float64) float64 {
	den := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) / den
}

func honestConfig(net dlt.Network) Config {
	return Config{
		Network: net,
		Z:       0.2,
		TrueW:   []float64{1.0, 1.5, 2.0, 2.5},
		Seed:    7,
	}
}

func withBehavior(cfg Config, idx int, b agent.Behavior) Config {
	bs := make([]agent.Behavior, len(cfg.TrueW))
	bs[idx] = b
	cfg.Behaviors = bs
	return cfg
}

func TestHonestRunCompletes(t *testing.T) {
	for _, net := range []dlt.Network{dlt.NCPFE, dlt.NCPNFE} {
		cfg := honestConfig(net)
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", net, err)
		}
		if !out.Completed {
			t.Fatalf("%v: honest run terminated in %s: %+v", net, out.TerminatedIn, out.Verdicts)
		}
		if err := out.Alloc.Validate(4); err != nil {
			t.Errorf("%v: allocation infeasible: %v", net, err)
		}
		for i, b := range out.Bids {
			if b != cfg.TrueW[i] {
				t.Errorf("%v: bid[%d]=%v, want truthful %v", net, i, b, cfg.TrueW[i])
			}
		}
		for i, f := range out.Fines {
			if f != 0 {
				t.Errorf("%v: honest P%d fined %v", net, i+1, f)
			}
		}
		// Payments must equal the centrally computed DLS-BL payments.
		mech := core.Mechanism{Network: net, Z: cfg.Z}
		want, err := mech.Run(cfg.TrueW, core.TruthfulExec(cfg.TrueW))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Payment {
			if relErr(out.Payments[i], want.Payment[i]) > tol {
				t.Errorf("%v: Q[%d]=%v, central says %v", net, i, out.Payments[i], want.Payment[i])
			}
			if relErr(out.Utilities[i], want.Utility[i]) > tol {
				t.Errorf("%v: U[%d]=%v, central says %v", net, i, out.Utilities[i], want.Utility[i])
			}
			if out.Utilities[i] < -tol {
				t.Errorf("%v: honest utility U[%d]=%v < 0", net, i, out.Utilities[i])
			}
		}
		if relErr(out.UserCost, want.UserCost) > tol {
			t.Errorf("%v: user cost %v, central says %v", net, out.UserCost, want.UserCost)
		}
		// Realized makespan equals the optimal DLT makespan for the true
		// profile.
		_, ms, err := dlt.OptimalMakespan(dlt.Instance{Network: net, Z: cfg.Z, W: cfg.TrueW})
		if err != nil {
			t.Fatal(err)
		}
		if relErr(out.Makespan, ms) > tol {
			t.Errorf("%v: realized makespan %v, want %v", net, out.Makespan, ms)
		}
		// Assignments cover the dataset.
		total := 0
		for _, a := range out.Assignments {
			total += a.Count()
		}
		if total != 64*4 {
			t.Errorf("%v: assignments cover %d blocks, want %d", net, total, 64*4)
		}
		// Exec values observed at true speed.
		for i, e := range out.Exec {
			if relErr(e, cfg.TrueW[i]) > tol {
				t.Errorf("%v: exec[%d]=%v, want %v", net, i, e, cfg.TrueW[i])
			}
		}
	}
}

func TestHonestRunTraffic(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := len(cfg.TrueW)
	s := out.BusStats
	// m bid broadcasts + 1 meter broadcast; m payment unicasts.
	if s.Broadcasts != m+1 {
		t.Errorf("broadcasts = %d, want %d", s.Broadcasts, m+1)
	}
	if s.Unicasts != m {
		t.Errorf("unicasts = %d, want %d", s.Unicasts, m)
	}
	// Units: m bids of size 1 + meters of size m + m payment vectors of
	// size m ⇒ m + m + m² — the Θ(m²) of Theorem 5.4.
	if want := m + m + m*m; s.Units != want {
		t.Errorf("units = %d, want %d", s.Units, want)
	}
}

func TestEquivocatorFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 1, agent.Equivocator)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "bidding" {
		t.Fatalf("run not terminated in bidding: %+v", out)
	}
	F := out.FineMagnitude
	if F <= 0 {
		t.Fatal("no fine magnitude")
	}
	if relErr(out.Fines[1], F) > tol {
		t.Errorf("equivocator fined %v, want F=%v", out.Fines[1], F)
	}
	if relErr(out.Utilities[1], -F) > tol {
		t.Errorf("equivocator utility %v, want −F=%v", out.Utilities[1], -F)
	}
	// The others split F evenly: F/(m−1) each.
	for _, i := range []int{0, 2, 3} {
		if relErr(out.Rewards[i], F/3) > tol {
			t.Errorf("P%d reward %v, want F/3=%v", i+1, out.Rewards[i], F/3)
		}
		if out.Utilities[i] < -tol {
			t.Errorf("innocent P%d utility %v < 0", i+1, out.Utilities[i])
		}
	}
	if out.UserCost != 0 {
		t.Errorf("user paid %v for a terminated run", out.UserCost)
	}
}

func TestFalseAccuserFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 2, agent.FalseAccuser)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "bidding" {
		t.Fatalf("run not terminated in bidding: %+v", out)
	}
	if out.Fines[2] != out.FineMagnitude {
		t.Errorf("false accuser fined %v, want %v", out.Fines[2], out.FineMagnitude)
	}
	for _, i := range []int{0, 1, 3} {
		if out.Fines[i] != 0 {
			t.Errorf("innocent P%d fined %v", i+1, out.Fines[i])
		}
	}
}

func TestOverShippingOriginatorFined(t *testing.T) {
	// NCP-FE: originator is P1 (index 0).
	cfg := withBehavior(honestConfig(dlt.NCPFE), 0, agent.OverShipper)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "allocating" {
		t.Fatalf("run not terminated in allocating: completed=%v in=%q", out.Completed, out.TerminatedIn)
	}
	if out.Fines[0] != out.FineMagnitude {
		t.Errorf("originator fined %v, want %v", out.Fines[0], out.FineMagnitude)
	}
}

func TestShortShippingRemediatedWithoutFine(t *testing.T) {
	// A cooperative short-shipper is remediated through the referee and
	// the run completes with nobody fined (cases (i) of Section 4 with a
	// compliant mediation).
	cfg := withBehavior(honestConfig(dlt.NCPFE), 0, agent.ShortShipper)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("remediated run terminated in %s", out.TerminatedIn)
	}
	for i, f := range out.Fines {
		if f != 0 {
			t.Errorf("P%d fined %v after successful mediation", i+1, f)
		}
	}
	// The mediation verdict is on record.
	found := false
	for _, v := range out.Verdicts {
		if v.Phase == "allocating" && v.Clean() {
			found = true
		}
	}
	if !found {
		t.Error("no clean mediation verdict recorded")
	}
}

func TestMediationRefuserFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 0, agent.Refuser)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "allocating" {
		t.Fatal("refusing originator did not terminate the run")
	}
	if out.Fines[0] != out.FineMagnitude {
		t.Errorf("refuser fined %v, want %v", out.Fines[0], out.FineMagnitude)
	}
}

func TestBlockTampererFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 0, agent.BlockTamperer)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("block tamperer run completed")
	}
	if out.Fines[0] != out.FineMagnitude {
		t.Errorf("tamperer fined %v, want %v", out.Fines[0], out.FineMagnitude)
	}
}

func TestFalseShortageClaimantFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 2, agent.FalseClaimant)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "allocating" {
		t.Fatal("false claimant did not terminate the run")
	}
	if out.Fines[2] != out.FineMagnitude {
		t.Errorf("claimant fined %v, want %v", out.Fines[2], out.FineMagnitude)
	}
	if out.Fines[0] != 0 {
		t.Errorf("innocent originator fined %v", out.Fines[0])
	}
}

func TestFalseExcessClaimantFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 1, agent.ExcessClaimer)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "allocating" {
		t.Fatal("false excess claimant did not terminate the run")
	}
	if out.Fines[1] != out.FineMagnitude {
		t.Errorf("claimant fined %v, want %v", out.Fines[1], out.FineMagnitude)
	}
	if out.Fines[0] != 0 {
		t.Errorf("innocent originator fined %v", out.Fines[0])
	}
}

// TestShortageClaimJudgedOnTheDelivery: a false shortage claim is judged
// against what was actually delivered. Over-shipped, the claimant's
// blocks substantiate an excess instead and only the originator is fined;
// shipped exactly, the claimant is fined even when the originator would
// refuse mediation or tamper with blocks, since no mediation of a short
// delivery ever ran. A claimant making both false claims is judged for
// the shortage.
func TestShortageClaimJudgedOnTheDelivery(t *testing.T) {
	for _, c := range []struct {
		name     string
		orig     agent.Behavior
		claimant agent.Behavior
		guilty   int
		reason   string
	}{
		{"over-shipped", agent.OverShipper, agent.FalseClaimant, 0, "delivered"},
		{"exact, deviant originator",
			agent.Behavior{Name: "idle-refuser", RefuseMediation: true, TamperBlocks: true},
			agent.FalseClaimant, 1, "shortage"},
		{"both false claims", agent.Honest,
			agent.Behavior{Name: "double-claimant", FalseShortageClaim: true, FalseExcessClaim: true}, 1, "shortage"},
	} {
		cfg := withBehavior(honestConfig(dlt.NCPFE), 0, c.orig)
		cfg.Behaviors[1] = c.claimant // the first recipient
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Completed || out.TerminatedIn != "allocating" {
			t.Fatalf("%s: run not terminated in allocating", c.name)
		}
		for i, f := range out.Fines {
			want := 0.0
			if i == c.guilty {
				want = out.FineMagnitude
			}
			if f != want {
				t.Errorf("%s: P%d fined %v, want %v", c.name, i+1, f, want)
			}
		}
		if v := out.Verdicts[len(out.Verdicts)-1]; !strings.Contains(v.Reason, c.reason) {
			t.Errorf("%s: verdict %q, want one naming %q", c.name, v.Reason, c.reason)
		}
	}
}

func TestWorkCompensationOnLateTermination(t *testing.T) {
	// The false claimant sits at index 3 (last recipient in NCP-FE), so
	// recipients P2, P3 received their loads earlier and the originator
	// computes from time zero: all three must be compensated α_j·w̃_j out
	// of the fine pool.
	cfg := withBehavior(honestConfig(dlt.NCPFE), 3, agent.FalseClaimant)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("run completed despite false claim")
	}
	alloc, err := dlt.Optimal(dlt.Instance{Network: dlt.NCPFE, Z: cfg.Z, W: cfg.TrueW})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} {
		minWork := alloc[i] * cfg.TrueW[i]
		if out.Rewards[i] < minWork-tol {
			t.Errorf("P%d reward %v below commenced-work compensation %v", i+1, out.Rewards[i], minWork)
		}
	}
}

func TestPaymentCheatFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 1, agent.PaymentCheat)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Payment-phase fines do not terminate the run.
	if !out.Completed {
		t.Fatalf("payment-cheat run terminated in %s", out.TerminatedIn)
	}
	if out.Fines[1] != out.FineMagnitude {
		t.Errorf("cheat fined %v, want %v", out.Fines[1], out.FineMagnitude)
	}
	// The forwarded payments are the recomputed truth.
	mech := core.Mechanism{Network: dlt.NCPFE, Z: cfg.Z}
	want, err := mech.Run(cfg.TrueW, core.TruthfulExec(cfg.TrueW))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Payment {
		if relErr(out.Payments[i], want.Payment[i]) > tol {
			t.Errorf("Q[%d]=%v, want %v", i, out.Payments[i], want.Payment[i])
		}
	}
	// The cheat's utility is far below its honest utility.
	if out.Utilities[1] >= want.Utility[1] {
		t.Errorf("cheat utility %v not below honest %v", out.Utilities[1], want.Utility[1])
	}
	// The innocent majority splits the fine: xF/(m−x) each on top of
	// their payments.
	share := out.FineMagnitude / 3
	for _, i := range []int{0, 2, 3} {
		if relErr(out.Rewards[i], share) > tol {
			t.Errorf("P%d reward %v, want %v", i+1, out.Rewards[i], share)
		}
	}
}

func TestPaymentEquivocatorFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 3, agent.PaymentLiar)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("payment equivocation terminated the run")
	}
	if out.Fines[3] != out.FineMagnitude {
		t.Errorf("payment equivocator fined %v, want %v", out.Fines[3], out.FineMagnitude)
	}
}

func TestVectorTampererFined(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 2, agent.VectorTamper)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.TerminatedIn != "allocating" {
		t.Fatal("vector tamperer did not terminate the run")
	}
	if out.Fines[2] != out.FineMagnitude {
		t.Errorf("tamperer fined %v, want %v", out.Fines[2], out.FineMagnitude)
	}
}

// TestMisreportingAbsorbedWithoutFines: over/under-bidding and slacking
// are lies the mechanism handles economically — no referee involvement,
// run completes, and the liar ends up no better than honest (Theorem 5.2
// through the full protocol).
func TestMisreportingAbsorbedWithoutFines(t *testing.T) {
	base, err := Run(honestConfig(dlt.NCPFE))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []agent.Behavior{agent.OverBid, agent.UnderBid, agent.SlowExecution} {
		cfg := withBehavior(honestConfig(dlt.NCPFE), 1, b)
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !out.Completed {
			t.Fatalf("%s: run terminated in %s", b.Name, out.TerminatedIn)
		}
		for i, f := range out.Fines {
			if f != 0 {
				t.Errorf("%s: P%d fined %v for a non-protocol deviation", b.Name, i+1, f)
			}
		}
		if out.Utilities[1] > base.Utilities[1]+tol {
			t.Errorf("%s: liar utility %v beats honest %v", b.Name, out.Utilities[1], base.Utilities[1])
		}
	}
}

// TestUnderbidderExecutesAtTrueSpeed: an underbidder physically cannot
// meet its bid; the meter exposes w̃ = w > b and the bonus shrinks.
func TestUnderbidderMeterExposure(t *testing.T) {
	cfg := withBehavior(honestConfig(dlt.NCPFE), 1, agent.UnderBid)
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(out.Exec[1], cfg.TrueW[1]) > tol {
		t.Errorf("underbidder executed at %v, physical floor is %v", out.Exec[1], cfg.TrueW[1])
	}
	if out.Exec[1] <= out.Bids[1] {
		t.Error("meter did not expose the underbid")
	}
}

func TestLedgerConservation(t *testing.T) {
	for _, b := range append([]agent.Behavior{agent.Honest}, agent.DeviantCatalog...) {
		idx := 1
		if b.MisallocateExtraBlocks != 0 || b.TamperBlocks || b.RefuseMediation {
			idx = 0 // originator-only behaviors
		}
		cfg := withBehavior(honestConfig(dlt.NCPFE), idx, b)
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Σ processor balances + user balance = 0 (referee escrow always
		// drains): money in = money out.
		var procNet float64
		for i := range out.Procs {
			procNet += out.Utilities[i] + out.WorkCost[i] // = balance
		}
		if math.Abs(procNet-out.UserCost) > 1e-6 {
			t.Errorf("%s: processors net %v, user paid %v", b.Name, procNet, out.UserCost)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	ok := honestConfig(dlt.NCPFE)
	bad := []Config{
		{Network: dlt.CP, Z: ok.Z, TrueW: ok.TrueW},
		{Network: dlt.NCPFE, Z: ok.Z, TrueW: []float64{1}},
		{Network: dlt.NCPFE, Z: -1, TrueW: ok.TrueW},
		{Network: dlt.NCPFE, Z: ok.Z, TrueW: []float64{1, 0}},
		{Network: dlt.NCPFE, Z: ok.Z, TrueW: ok.TrueW, Fine: -1},
		{Network: dlt.NCPFE, Z: ok.Z, TrueW: ok.TrueW, NBlocks: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestExplicitFineTooSmallSurfaces(t *testing.T) {
	cfg := honestConfig(dlt.NCPFE)
	cfg.Fine = 1e-6 // violates F ≥ Σ α_j·w̃_j
	if _, err := Run(cfg); err == nil {
		t.Error("insufficient fine accepted silently")
	}
}

func TestNCPNFEOriginatorDeviations(t *testing.T) {
	// In NCP-NFE the originator is the LAST processor.
	m := 4
	cfg := honestConfig(dlt.NCPNFE)
	bs := make([]agent.Behavior, m)
	bs[m-1] = agent.OverShipper
	cfg.Behaviors = bs
	out, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed {
		t.Fatal("NFE over-shipper run completed")
	}
	if out.Fines[m-1] != out.FineMagnitude {
		t.Errorf("NFE originator fined %v, want %v", out.Fines[m-1], out.FineMagnitude)
	}
}

func TestOutcomeTranscriptVerifies(t *testing.T) {
	for _, b := range []agent.Behavior{agent.Honest, agent.Equivocator, agent.PaymentCheat} {
		cfg := withBehavior(honestConfig(dlt.NCPFE), 1, b)
		out, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(out.Transcript) == 0 {
			t.Fatalf("%s: empty transcript", b.Name)
		}
		if err := referee.VerifyEntries(out.Transcript); err != nil {
			t.Errorf("%s: transcript failed verification: %v", b.Name, err)
		}
		// A deviant run must contain a guilty verdict record.
		if b.Deviant() {
			found := false
			for _, e := range out.Transcript {
				if e.Action == "verdict" && len(e.Guilty) > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: no guilty verdict in transcript", b.Name)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(honestConfig(dlt.NCPFE))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(honestConfig(dlt.NCPFE))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.UserCost != b.UserCost {
		t.Error("identical configs produced different outcomes")
	}
	for i := range a.Payments {
		if a.Payments[i] != b.Payments[i] {
			t.Error("payments differ between identical runs")
		}
	}
}

// guiltyOf lists every party any verdict of the outcome fined, in
// verdict order.
func guiltyOf(o *Outcome) []string {
	var g []string
	for _, v := range o.Verdicts {
		g = append(g, v.Guilty...)
	}
	return g
}

// TestRunRoundSettlesLikeRun: a round ID only names the round. A
// standalone round run under one (RunRound) binds its referee to the
// epoch its own bids carry, so every deviant in the catalog — the
// allocation claims that submit signed bid vectors included — is
// convicted and settled exactly as in an anonymous Run, and no honest
// party is fined.
func TestRunRoundSettlesLikeRun(t *testing.T) {
	for _, b := range agent.DeviantCatalog {
		for _, idx := range []int{0, 1} {
			b, idx := b, idx
			t.Run(fmt.Sprintf("%s@P%d", b.Name, idx+1), func(t *testing.T) {
				cfg := withBehavior(honestConfig(dlt.NCPFE), idx, b)
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunRound(cfg, "node:r1")
				if err != nil {
					t.Fatal(err)
				}
				if g, w := econOf(got), econOf(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("RunRound economics diverge from Run\n got %+v\nwant %+v", g, w)
				}
				if g, w := guiltyOf(got), guiltyOf(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("RunRound fined %v, Run fined %v", g, w)
				}
			})
		}
	}
}
