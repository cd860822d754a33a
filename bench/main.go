// Command bench is the layered benchmark of the DLS-BL-NCP reproduction.
// It drives the program only through its public entry points — the
// service's HTTP handler on loopback, protocol.Run/RunRound, and
// in-process netbus nodes on loopback UDP — times five workloads end to
// end with tracing off, splits each workload's time across the service
// queue, HTTP and the five protocol phases in a separate traced run, and
// probes the sig, dlt, core, referee and netbus layers directly.
//
// Two modes:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1
//	    one workload: S seconds measured; -trace 1 splits them into an
//	    untraced and a traced half and adds the layer probes. The last
//	    line of stdout is one JSON object with the end-to-end metrics
//	    (-trace 0) or the per-layer metrics (-trace 1).
//	bench -seed N
//	    the whole suite: every workload, its measured seconds cut into
//	    three segments run round-robin across the workloads, then one
//	    traced run per workload and the probes once. A JSON report and
//	    one Chrome trace per workload go to -out (default out/).
//
// Every op is checked; the exit code is 1 when any check failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload (default: the whole suite)")
	seed := fs.Int64("seed", 42, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload")
	trace := fs.Int("trace", 0, "one-workload mode: 1 adds a traced run and the probes and prints the per-layer metrics")
	out := fs.String("out", "", "directory for the JSON report and Chrome traces (suite default: out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := defaultConfig(*seed, time.Duration(*seconds*float64(time.Second)))
	if *name == "" {
		if *out == "" {
			*out = "out"
		}
		return runSuite(cfg, *out)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	// Alone, a workload has no round-robin to spread host drift over; ten
	// segments let the median over them drop a burst that slows a few.
	cfg.segments = 10
	if *trace == 0 {
		cfg.traceSeconds, cfg.probeMin = 0, 0
	} else {
		// The traced half runs right after the untraced half, so the
		// tracing overhead compares like with like.
		cfg.seconds /= 2
		cfg.traceSeconds = cfg.seconds
	}
	return runSingle(cfg, w, *trace == 1, *out)
}

// runConfig fixes the schedule of one benchmark invocation.
type runConfig struct {
	seed         int64
	setups       int           // fresh set-ups per workload; their median is setup_s
	warmup       time.Duration // untimed closed-loop warm-up per workload
	seconds      time.Duration // measured time per workload, over all segments
	segments     int           // measured segments per workload
	traceSeconds time.Duration // traced run per workload; 0 skips it
	probeMin     time.Duration // minimum time per layer probe; 0 skips the probes
}

func defaultConfig(seed int64, seconds time.Duration) runConfig {
	return runConfig{
		seed: seed,
		// Fifteen, not five: the median of five set-ups moved by up to
		// 28% between two sets of same-commit runs.
		setups:       15,
		warmup:       2 * time.Second,
		seconds:      seconds,
		segments:     3,
		traceSeconds: 5 * time.Second,
		probeMin:     200 * time.Millisecond,
	}
}

// resultLine is the last line of stdout.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runSingle(cfg runConfig, w *workload, traced bool, outDir string) int {
	res, err := runWorkloads(cfg, []*workload{w})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	r := res[0]
	var probes map[string]float64
	if cfg.probeMin > 0 {
		if probes, err = runProbes(newInstance(cfg.seed), cfg.probeMin); err != nil {
			fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
			return 1
		}
	}
	printSummary(os.Stdout, r)
	if outDir != "" {
		if err := writeReport(outDir, cfg, res, probes); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed}
	if traced {
		line.Metrics = r.perLayer(probes)
	} else {
		line.Metrics = r.endToEnd()
	}
	return emit(line)
}

func runSuite(cfg runConfig, outDir string) int {
	res, err := runWorkloads(cfg, workloads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	probes, err := runProbes(newInstance(cfg.seed), cfg.probeMin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
		return 1
	}
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range res {
		printSummary(os.Stdout, r)
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failed
		for k, v := range r.endToEnd() {
			line.Metrics[r.w.name+"/"+k] = v
		}
	}
	printProbes(os.Stdout, probes)
	if err := writeReport(outDir, cfg, res, probes); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("report and Chrome traces written to %s\n", outDir)
	return emit(line)
}

// emit prints the result line and maps correctness to the exit code.
func emit(line resultLine) int {
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !line.Correct {
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		return 1
	}
	return 0
}

// runWorkloads sets every workload up, warms it, measures its segments
// round-robin across the workloads (so host drift lands on all of them
// alike), then runs each one's traced window. Every live target is
// closed — and its health checked — before returning.
func runWorkloads(cfg runConfig, ws []*workload) (res []*result, err error) {
	lives := make([]*live, 0, len(ws))
	defer func() {
		for i := len(lives) - 1; i >= 0; i-- {
			if cerr := lives[i].t.close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("%s: closing: %w", lives[i].w.name, cerr))
			}
		}
		if err != nil {
			res = nil
		}
	}()
	in := newInstance(cfg.seed)
	for _, w := range ws {
		l, r, err := start(w, in, cfg.setups)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lives = append(lives, l)
		res = append(res, r)
	}
	for i, l := range lives {
		res[i].add(l.measure(cfg.warmup, false), false)
	}
	for s := 0; s < cfg.segments; s++ {
		for i, l := range lives {
			res[i].add(l.measure(cfg.seconds/time.Duration(cfg.segments), false), true)
		}
	}
	if cfg.traceSeconds > 0 {
		for i, l := range lives {
			c0, err := l.t.counters()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.w.name, err)
			}
			win := l.measure(cfg.traceSeconds, true)
			c1, err := l.t.counters()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.w.name, err)
			}
			win.counters = c1.sub(c0)
			res[i].traced = win
			res[i].add(win, false)
		}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
