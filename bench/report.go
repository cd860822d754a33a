package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"dlsbl/internal/obs"
	"dlsbl/internal/stats"
)

// host fingerprints the machine a report was measured on.
type host struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	CPUModel    string `json:"cpu_model"`
	OSArch      string `json:"os_arch"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

func fingerprint() host {
	b := obs.Build()
	return host{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		OSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		GoVersion:   b.GoVersion,
		VCSRevision: b.VCSRevision,
		VCSModified: b.VCSModified,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// workloadReport is one workload's section of the JSON report.
type workloadReport struct {
	Name          string            `json:"name"`
	Why           string            `json:"why"`
	Clients       int               `json:"clients"`
	OpsPerRequest int               `json:"ops_per_request"`
	SetupWallS    []float64         `json:"setup_wall_s_samples"`
	SetupVT       []float64         `json:"setup_vt_samples"`
	RefUS         []float64         `json:"host_ref_us_samples"`
	StealPct      float64           `json:"host_steal_pct"`
	WallOpsS      float64           `json:"wall_throughput_ops_s"`
	WallP50MS     float64           `json:"wall_latency_p50_ms"`
	WallP90MS     float64           `json:"wall_latency_p90_ms"`
	SegmentOpsKVT []float64         `json:"segment_throughput_ops_kvt"`
	SegmentSpread float64           `json:"segment_throughput_spread"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	ErrorRate     float64           `json:"error_rate"`
	Failures      []string          `json:"failures,omitempty"`
	Samples       int               `json:"latency_samples"`
	LatencyP99MS  float64           `json:"latency_p99_ms"`
	EndToEnd      map[string]metric `json:"end_to_end"`
	PerLayer      map[string]metric `json:"per_layer,omitempty"`
	Breakdown     *breakdown        `json:"breakdown,omitempty"`
	ChromeTrace   string            `json:"chrome_trace,omitempty"`
}

type report struct {
	Seed      int64              `json:"seed"`
	Host      host               `json:"host"`
	Schedule  map[string]any     `json:"schedule"`
	Workloads []workloadReport   `json:"workloads"`
	Probes    map[string]float64 `json:"probes,omitempty"`
}

// writeReport writes report.json and one Chrome trace per traced
// workload to dir.
func writeReport(dir string, cfg runConfig, res []*result, probes map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep := report{
		Seed: cfg.seed,
		Host: fingerprint(),
		Schedule: map[string]any{
			"setups": cfg.setups, "warmup_s": cfg.warmup.Seconds(), "measured_s": cfg.seconds.Seconds(),
			"segments": cfg.segments, "traced_s": cfg.traceSeconds.Seconds(), "probe_min_s": cfg.probeMin.Seconds(),
		},
		Probes: probes,
	}
	for _, r := range res {
		tput, spread := r.segmentSpread()
		wallOps, p50, p90, p99 := r.wallClock()
		wr := workloadReport{
			Name: r.w.name, Why: r.w.why, Clients: r.w.clients, OpsPerRequest: r.w.batch,
			SetupWallS: r.setupWallS, SetupVT: r.setupVT, RefUS: r.refUS, StealPct: r.stealPct(), WallOpsS: wallOps, WallP50MS: p50, WallP90MS: p90,
			SegmentOpsKVT: tput, SegmentSpread: spread,
			Attempted: r.attempted, Failed: r.failed, ErrorRate: r.errorRate(), Failures: r.failures,
			Samples: len(r.pooled().latMS), LatencyP99MS: p99,
			EndToEnd: r.endToEnd(),
		}
		if r.traced != nil {
			b := r.traced.layers.breakdown()
			wr.Breakdown = &b
			wr.PerLayer = r.perLayer(probes)
			wr.ChromeTrace = "trace-" + r.w.name + ".json"
			data, err := obs.ChromeTrace(r.traced.layers.recs)
			if err != nil {
				return fmt.Errorf("%s: chrome trace: %w", r.w.name, err)
			}
			if err := os.WriteFile(filepath.Join(dir, wr.ChromeTrace), data, 0o644); err != nil {
				return err
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "report.json"), append(data, '\n'), 0o644)
}

func (r *result) errorRate() float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

// printSummary prints one workload's numbers for a human reader.
func printSummary(w io.Writer, r *result) {
	tput, spread := r.segmentSpread()
	wallOps, p50, p90, _ := r.wallClock()
	e := r.endToEnd()
	fmt.Fprintf(w, "== %s (%d client(s), %d op(s) per request)\n", r.w.name, r.w.clients, r.w.batch)
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "  %-22s %12.4f %s\n", m.name, e[m.name].Value, m.unit)
	}
	fmt.Fprintf(w, "  %-22s %12.4f (%d failed of %d attempted)\n", "error_rate", r.errorRate(), r.failed, r.attempted)
	fmt.Fprintf(w, "  wall clock             %.2f ops/s, p50 %.3f ms, p90 %.3f ms, p99 %s; set-up %.4f s; not gated\n",
		wallOps, p50, p90, tail(r.pooled().latMS, 0.99), stats.Summarize(r.setupWallS).Median)
	fmt.Fprintf(w, "  host.ref_us            %.3f (median of %d reference timings)\n", stats.Summarize(r.refUS).Median, len(r.refUS))
	fmt.Fprintf(w, "  host.steal_pct         %.2f (CPU time stolen, taken off the vt clock)\n", r.stealPct())
	fmt.Fprintf(w, "  segment throughput     %v ops/kvt, spread %.1f%%\n", round2(tput), 100*spread)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.traced == nil {
		return
	}
	b := r.traced.layers.breakdown()
	fmt.Fprintf(w, "  traced mean latency %.3f ms = http %.3f + queue %.3f", b.LatencyMS, b.HTTPMS, b.QueueWaitMS)
	for _, p := range phases {
		fmt.Fprintf(w, " + %s %.3f", p, b.PhaseMS[p])
	}
	fmt.Fprintf(w, " + unattributed %.3f (sum %.3f)\n", b.UnattributedMS, b.SumMS)
}

func printProbes(w io.Writer, probes map[string]float64) {
	names := make([]string, 0, len(probes))
	for k := range probes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  probe %-30s %12.3f\n", k, probes[k])
	}
}

func round2(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*100+0.5)) / 100
	}
	return out
}
