// Command dls-serve runs the DLS-BL-NCP scheduling service: a
// long-running HTTP daemon that keeps named processor pools (and their
// reputation state and warm Ed25519 keyrings) alive between requests,
// runs submitted jobs through a bounded worker pool with per-pool
// serialization, and streams results back as NDJSON.
//
// Usage:
//
//	dls-serve -addr :8080
//	dls-serve -addr :8080 -workers 8 -queue 512 -pools pools.json
//	dls-serve -addr :8080 -debug-addr 127.0.0.1:6060 -log-format json
//
// With no -pools file a single demo pool named "default" (ncp-fe,
// w = 1,1.5,2,2.5) is created. pools.json is a JSON array of pool specs:
//
//	[{"name":"alpha","network":"ncp-fe","w":[1,2,3],"policy":"ban-deviants"}]
//
// -debug-addr opens a SECOND listener serving net/http/pprof and expvar
// — kept off the API mux so profiling endpoints are never exposed on
// the service port; bind it to loopback. Logs are structured (log/slog);
// -log-format selects text (default) or json.
//
// See the README's "Service mode" section for a curl walkthrough.
// SIGINT/SIGTERM drain gracefully: in-flight and queued jobs finish,
// new submissions get 503, then the process exits.
//
// # Multi-process mode (-net-round)
//
// With -net-round the daemon is bypassed entirely: the process becomes
// the one-shot driver of a multi-process deployment. It dials the
// netbus as the -net-node entry of the -net-config peer table, waits
// for every dls-node worker to answer pings, then runs one full
// bid→allocate→compute→pay round whose control plane crosses real UDP
// sockets — and, as a built-in check, the same round on the in-process
// simulated bus with the same seed and keyring. It prints a JSON report
// with the payments and a parity verdict and exits non-zero if the two
// runs differ anywhere. See docs/DEPLOY.md for a loopback walkthrough.
//
// -net-trace FILE additionally records the driver's obs stream during
// the socket round, pulls each worker node's telemetry buffer over the
// wire afterwards (the nodes must run with -telemetry), and writes one
// clock-aligned Chrome trace with a track group per OS process to FILE
// — while the parity check against the untraced simulated run still
// holds, pinning the nil-parity contract across process boundaries.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dlsbl/internal/obs"
	"dlsbl/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for pprof and expvar (empty = disabled; bind to loopback)")
	workers := flag.Int("workers", 0, "max concurrent protocol runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 256, "job queue depth before submissions get 429")
	poolsPath := flag.String("pools", "", "JSON file with an array of pool specs (empty = one demo pool)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	drainTimeout := flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
	netRound := flag.Bool("net-round", false, "one-shot mode: drive one round over the UDP netbus, check parity against the simulated bus, print JSON, exit")
	netConfig := flag.String("net-config", "", "net-round: peer-table JSON file (see docs/DEPLOY.md)")
	netNode := flag.String("net-node", "serve", "net-round: this process's node name in the peer table")
	netNetwork := flag.String("net-network", "ncp-fe", "net-round: network class: ncp-fe or ncp-nfe")
	netW := flag.String("net-w", "1,1.5,2,2.5", "net-round: comma-separated true w_i work parameters")
	netZ := flag.Float64("net-z", 0.2, "net-round: per-unit bus transfer time z")
	netSeed := flag.Int64("net-seed", 7, "net-round: deterministic RNG seed")
	netTrace := flag.String("net-trace", "", "net-round: write a merged cross-process Chrome trace to this file (nodes must run with -telemetry)")
	flag.Parse()

	if *netRound {
		os.Exit(runNetRound(netRoundOpts{
			config:  *netConfig,
			node:    *netNode,
			network: *netNetwork,
			w:       *netW,
			z:       *netZ,
			seed:    *netSeed,
			trace:   *netTrace,
		}))
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dls-serve: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	specs, err := loadPools(*poolsPath)
	if err != nil {
		fatal("loading pools", "error", err)
	}

	srv := service.New(service.Config{Workers: *workers, QueueDepth: *queue, Logger: logger})
	for _, spec := range specs {
		if _, err := srv.CreatePool(spec); err != nil {
			fatal("creating pool", "pool", spec.Name, "error", err)
		}
	}

	// Header and idle timeouts bound what a slow or idle client can hold
	// open. There is deliberately no WriteTimeout: a job submission's
	// NDJSON stream stays open until its last round settles.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server", "error", err)
			}
		}()
		logger.Info("debug endpoints up", "addr", *debugAddr,
			"paths", "/debug/pprof/, /debug/vars")
	}

	build := obs.Build()
	logger.Info("dls-serve listening",
		"addr", *addr, "pools", len(specs), "queue_depth", *queue,
		"go", build.GoVersion, "version", build.Version,
		"vcs_revision", build.VCSRevision, "vcs_modified", build.VCSModified)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal("http server", "error", err)
	case <-ctx.Done():
	}
	logger.Info("draining", "detail", "refusing new submissions, finishing queued jobs")

	// Drain order matters: service.Close refuses new submissions and
	// finishes every admitted job, which unblocks the streaming handlers;
	// http.Shutdown then waits for those handlers to write their tails.
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(shutdownCtx)
	}
	<-done
	logger.Info("drained; bye")
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text or json)", format)
	}
}

// debugMux serves the opt-in diagnostics: net/http/pprof profiles and
// the expvar JSON dump. Registered by hand on a private mux (not
// http.DefaultServeMux) so importing pprof does not leak profiling
// endpoints onto the API listener.
func debugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func loadPools(path string) ([]service.PoolSpec, error) {
	if path == "" {
		return []service.PoolSpec{{
			Name:  "default",
			TrueW: []float64{1, 1.5, 2, 2.5},
		}}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pools file: %w", err)
	}
	var specs []service.PoolSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: no pools", path)
	}
	return specs, nil
}
