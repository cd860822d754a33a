// Command dls-sim runs one full DLS-BL-NCP protocol simulation: m
// strategic processors on a bus network without a control processor go
// through Bidding, Allocating Load, Processing Load and Computing
// Payments, with the referee adjudicating any injected deviation.
//
// Usage:
//
//	dls-sim -net ncp-fe -z 0.2 -w 1,1.5,2,2.5
//	dls-sim -w 1,1.5,2,2.5 -deviant 1=equivocator
//	dls-sim -w 1,1.5,2,2.5 -deviant 0=shortship-originator -v
//	dls-sim -w 1,1.5,2,2.5 -trace run.json   # chrome://tracing view
//
// The -deviant flag takes index=behavior, where behavior is one of the
// named strategies (run with -behaviors to list them).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dlsbl/internal/agent"
	"dlsbl/internal/dlt"
	"dlsbl/internal/gantt"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
)

func behaviorCatalog() map[string]agent.Behavior { return agent.Catalog() }

func main() {
	netName := flag.String("net", "ncp-fe", "network class: ncp-fe or ncp-nfe")
	z := flag.Float64("z", 0.2, "per-unit communication time")
	wList := flag.String("w", "1,1.5,2,2.5", "comma-separated true processing times")
	deviant := flag.String("deviant", "", "inject a deviation: index=behavior (0-based index)")
	fine := flag.Float64("fine", 0, "fine magnitude F (0 = derived from bids)")
	seed := flag.Int64("seed", 1, "seed for key generation")
	verbose := flag.Bool("v", false, "print verdicts, the invoice and the realized Gantt chart")
	jsonOut := flag.Bool("json", false, "emit the full outcome as JSON")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run (open in chrome://tracing or Perfetto)")
	listBehaviors := flag.Bool("behaviors", false, "list behavior names and exit")
	flag.Parse()

	catalog := behaviorCatalog()
	if *listBehaviors {
		for name := range catalog {
			fmt.Println(name)
		}
		return
	}

	var net dlt.Network
	switch strings.ToLower(*netName) {
	case "ncp-fe", "ncpfe", "fe":
		net = dlt.NCPFE
	case "ncp-nfe", "ncpnfe", "nfe":
		net = dlt.NCPNFE
	default:
		fail(fmt.Errorf("unknown network %q (DLS-BL-NCP runs on ncp-fe or ncp-nfe)", *netName))
	}

	w, err := parseFloats(*wList)
	if err != nil {
		fail(err)
	}

	behaviors := make([]agent.Behavior, len(w))
	if *deviant != "" {
		idxStr, name, ok := strings.Cut(*deviant, "=")
		if !ok {
			fail(fmt.Errorf("-deviant wants index=behavior, got %q", *deviant))
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 || idx >= len(w) {
			fail(fmt.Errorf("invalid deviant index %q", idxStr))
		}
		b, ok := catalog[name]
		if !ok {
			fail(fmt.Errorf("unknown behavior %q (use -behaviors)", name))
		}
		behaviors[idx] = b
	}

	var rec *obs.Recorder
	cfg := protocol.Config{
		Network:   net,
		Z:         *z,
		TrueW:     w,
		Behaviors: behaviors,
		Fine:      *fine,
		Seed:      *seed,
	}
	if *tracePath != "" {
		rec = obs.NewRecorder()
		cfg.Tracer = rec
	}
	out, err := protocol.Run(cfg)
	if err != nil {
		fail(err)
	}
	if rec != nil {
		if err := writeTrace(*tracePath, rec); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing)\n", *tracePath)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
		return
	}
	report(out, *verbose)
}

func report(out *protocol.Outcome, verbose bool) {
	if out.Completed {
		fmt.Printf("protocol completed; realized makespan %.6g, user paid %.6g (F=%.4g)\n",
			out.Makespan, out.UserCost, out.FineMagnitude)
	} else {
		fmt.Printf("protocol TERMINATED in the %s phase (F=%.4g)\n", out.TerminatedIn, out.FineMagnitude)
	}
	fmt.Printf("%-5s %10s %10s %10s %10s %10s %10s\n",
		"proc", "bid", "alpha", "payment", "fine", "reward", "utility")
	for i, p := range out.Procs {
		alpha, q := 0.0, 0.0
		if i < len(out.Alloc) {
			alpha = out.Alloc[i]
		}
		if i < len(out.Payments) {
			q = out.Payments[i]
		}
		fmt.Printf("%-5s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
			p, out.Bids[i], alpha, q, out.Fines[i], out.Rewards[i], out.Utilities[i])
	}
	fmt.Printf("bus traffic: %d messages, %d units (%d broadcasts, %d unicasts)\n",
		out.BusStats.Messages, out.BusStats.Units, out.BusStats.Broadcasts, out.BusStats.Unicasts)
	if verbose {
		for _, v := range out.Verdicts {
			status := "clean"
			if !v.Clean() {
				status = "fined " + strings.Join(v.Guilty, "+")
			}
			fmt.Printf("verdict [%s] %s: %s\n", v.Phase, status, v.Reason)
		}
		if out.Completed {
			fmt.Print(out.Invoice.String())
			chart, err := gantt.Render(out.Timeline, gantt.Options{Width: 72, ShowBus: true, ShowTimes: true})
			if err == nil {
				fmt.Print(chart)
			}
		}
	}
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dls-sim: %v\n", err)
	os.Exit(1)
}
