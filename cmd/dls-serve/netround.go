package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

// netRoundOpts collects the -net-* flags for the one-shot multi-process
// mode.
type netRoundOpts struct {
	config  string
	node    string
	network string
	w       string
	z       float64
	seed    int64
	// trace, when non-empty, is the path the merged cross-process Chrome
	// trace is written to: the driver records its own obs stream, pulls
	// each worker node's telemetry buffer after the round (FtTelemetry
	// drains; the nodes must run with -telemetry), aligns the per-process
	// clocks and stitches one trace with a track group per OS process.
	trace string
}

// netRoundReport is the JSON document net-round prints on stdout.
type netRoundReport struct {
	Network   string    `json:"network"`
	Seed      int64     `json:"seed"`
	W         []float64 `json:"w"`
	Payments  []float64 `json:"payments"`
	Fines     []float64 `json:"fines"`
	Utilities []float64 `json:"utilities"`
	Makespan  float64   `json:"makespan"`
	Dropped   int       `json:"dropped"`
	Parity    string    `json:"parity"`
	Diverged  []string  `json:"diverged,omitempty"`

	// Trace telemetry (-net-trace only): where the merged Chrome trace
	// landed, how many OS processes contributed tracks, and how many
	// records each contributed (driver first, then nodes sorted by name).
	TraceFile     string         `json:"trace_file,omitempty"`
	TraceRecords  map[string]int `json:"trace_records,omitempty"`
	TraceStitched int            `json:"trace_stitched,omitempty"`
}

// runNetRound executes one full protocol round twice — over the real
// UDP netbus described by the peer table, with this process as the
// driver node, and over the in-process simulated bus with the same seed
// and keyring — then prints a JSON report carrying the net run's
// payments and a parity verdict. The exit code is 0 when payments,
// fines, utilities, verdicts and the referee transcript are
// bit-identical across the two media, 1 otherwise.
func runNetRound(o netRoundOpts) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "dls-serve: net-round: %v\n", err)
		return 1
	}
	var network dlt.Network
	switch strings.ToLower(o.network) {
	case "ncp-fe", "ncpfe", "fe":
		network = dlt.NCPFE
	case "ncp-nfe", "ncpnfe", "nfe":
		network = dlt.NCPNFE
	default:
		return fail(fmt.Errorf("unknown network %q (DLS-BL-NCP runs on ncp-fe or ncp-nfe)", o.network))
	}
	w, err := parseW(o.w)
	if err != nil {
		return fail(err)
	}
	if o.config == "" {
		return fail(fmt.Errorf("-net-config is required"))
	}
	cfg, err := netbus.LoadConfig(o.config)
	if err != nil {
		return fail(err)
	}

	medium, err := netbus.Dial(cfg, o.node, netbus.Options{})
	if err != nil {
		return fail(err)
	}
	defer medium.Close()
	if err := awaitPeers(medium, cfg, o.node, 10*time.Second); err != nil {
		return fail(err)
	}

	// One keyring for both runs: the acceptance criterion is parity with
	// identical seed AND keyring, so signatures (and therefore the
	// hash-chained referee transcript) match byte for byte.
	keys := sig.NewKeyring()
	base := protocol.Config{
		Network: network,
		Z:       o.z,
		TrueW:   w,
		Seed:    o.seed,
		Keys:    keys,
	}

	// Both runs share one round identity so the netbus stamps it into
	// every frame (workers attribute datagrams to it in their telemetry)
	// and the two referee transcripts stay comparable byte for byte.
	roundID := fmt.Sprintf("net%d:r1", o.seed)
	simCfg := base
	simOut, err := protocol.RunRound(simCfg, roundID)
	if err != nil {
		return fail(fmt.Errorf("simulated-bus run: %w", err))
	}
	netCfg := base
	netCfg.Medium = medium
	// The simulated reference run stays untraced: the acceptance bar for
	// tracing is the nil-parity contract — attaching a recorder to the
	// socket run must leave its payments bit-identical to the untraced
	// simulated run.
	var rec *obs.Recorder
	if o.trace != "" {
		rec = obs.NewRecorder()
		netCfg.Tracer = rec
	}
	netOut, err := protocol.RunRound(netCfg, roundID)
	if err != nil {
		return fail(fmt.Errorf("netbus run: %w", err))
	}

	var procs []obs.ProcessTrace
	traceRecords := map[string]int{}
	if rec != nil {
		// Driver first: its recorder holds both sides' stitching brackets
		// and serves as the merged trace's reference clock.
		procs = append(procs, obs.ProcessTrace{Process: o.node, Records: rec.Records()})
		var names []string
		for name := range cfg.Nodes {
			if name != o.node {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			recs, err := medium.CollectTelemetry(name)
			if err != nil {
				return fail(fmt.Errorf("collecting telemetry from %q: %w", name, err))
			}
			if len(recs) == 0 {
				// An unarmed node answers telemetry requests with an empty
				// stream; a worker that just served a round has records.
				return fail(fmt.Errorf("node %q returned no telemetry (is it running with -telemetry?)", name))
			}
			procs = append(procs, obs.ProcessTrace{Process: name, Records: recs})
		}
		for _, p := range procs {
			traceRecords[p.Process] = len(p.Records)
		}
		merged, err := obs.MergeChromeTrace(procs)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(o.trace, merged, 0o644); err != nil {
			return fail(err)
		}
	}

	var diverged []string
	check := func(field string, sim, net any) {
		if !reflect.DeepEqual(sim, net) {
			diverged = append(diverged, field)
		}
	}
	check("payments", simOut.Payments, netOut.Payments)
	check("fines", simOut.Fines, netOut.Fines)
	check("utilities", simOut.Utilities, netOut.Utilities)
	check("verdicts", simOut.Verdicts, netOut.Verdicts)
	check("transcript", simOut.Transcript, netOut.Transcript)

	report := netRoundReport{
		Network:   o.network,
		Seed:      o.seed,
		W:         w,
		Payments:  netOut.Payments,
		Fines:     netOut.Fines,
		Utilities: netOut.Utilities,
		Makespan:  netOut.Makespan,
		Dropped:   medium.Stats().Dropped,
		Parity:    "ok",
	}
	if rec != nil {
		report.TraceFile = o.trace
		report.TraceRecords = traceRecords
		report.TraceStitched = len(procs)
	}
	if len(diverged) > 0 {
		report.Parity = "FAIL"
		report.Diverged = diverged
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(report); err != nil {
		return fail(err)
	}
	if report.Parity != "ok" {
		fmt.Fprintf(os.Stderr, "dls-serve: net-round: parity FAIL (%s)\n", strings.Join(diverged, ", "))
		return 1
	}
	return 0
}

// awaitPeers pings every remote node of the peer table until all answer
// or the deadline passes — worker processes may still be binding their
// sockets when the driver starts. A node that answers in an older wire
// version fails at once: it would drop every frame of the round.
func awaitPeers(m *netbus.Medium, cfg *netbus.Config, local string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for name := range cfg.Nodes {
		if name == local {
			continue
		}
		for {
			err := m.Ping(name)
			if err == nil {
				break
			}
			if errors.Is(err, netbus.ErrNodeTooOld) {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %q not answering pings: %w", name, err)
			}
		}
	}
	return nil
}

// parseW parses a comma-separated list of w_i work parameters.
func parseW(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing w %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
