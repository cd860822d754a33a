// Command dls-node runs one mailbox node of the netbus: a stateless
// relay process that hosts the inboxes of the protocol endpoints
// assigned to it in the peer table and answers message, drain, ping and
// telemetry datagrams over UDP (FtMsgBatch, FtDrainNode, FtPing,
// FtTelemetry), one frame per node for a whole batch of messages rather
// than per endpoint or per message. It speaks wire v4 alone, answering
// the driver's version probe of any version with a v4 pong, so build it
// and dls-serve from the same tree. Each mailbox holds at most
// netbus.MailboxBytes; frames past that bound are refused and counted
// (node_refused_total). It never dials out and never originates
// traffic — all protocol logic (agents, referee, retry/backoff) lives in
// the driver process (dls-serve -net-round); a dls-node only stores and
// forwards sealed envelopes.
//
// Usage:
//
//	dls-node -config peers.json -node w1
//
// peers.json is the shared static peer table (see docs/DEPLOY.md):
//
//	{"nodes": {
//	  "serve": {"addr": "127.0.0.1:9000", "endpoints": ["referee"]},
//	  "w1":    {"addr": "127.0.0.1:9001", "endpoints": ["P1", "P2"]},
//	  "w2":    {"addr": "127.0.0.1:9002", "endpoints": ["P3", "P4"]}
//	}}
//
// Observability (all optional, see docs/DEPLOY.md):
//
//	-trace FILE     stream datagram-plane obs events as NDJSON to FILE
//	                ("-" for stderr) as they happen
//	-telemetry N    buffer up to N trace records in memory and serve them
//	                to the driver's FtTelemetry drains; the driver
//	                stitches them into one cross-process trace
//	-metrics-addr A serve GET /metrics on A in Prometheus text format
//	                (node_* counters: datagrams, resends, decode
//	                failures, mailbox depth)
//
// Once the socket is bound the process prints a single "ready" line on
// stdout (machine-readable, used by the smoke test and deploy scripts):
//
//	ready node=w1 addr=127.0.0.1:9001 endpoints=P1,P2
//
// SIGINT/SIGTERM close the socket and exit 0, printing the node's
// traffic counters on stderr. The wire format is documented in
// docs/WIRE.md.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
)

func main() {
	configPath := flag.String("config", "", "peer-table JSON file (required)")
	nodeName := flag.String("node", "", "this process's node name in the peer table (required)")
	tracePath := flag.String("trace", "", "stream obs events as NDJSON to this file (\"-\" for stderr)")
	telemetryCap := flag.Int("telemetry", 0, "buffer up to N trace records for driver-pulled telemetry drains (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text format) on this address")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "dls-node: %v\n", err)
		os.Exit(1)
	}
	if *configPath == "" || *nodeName == "" {
		fail(fmt.Errorf("both -config and -node are required"))
	}

	cfg, err := netbus.LoadConfig(*configPath)
	if err != nil {
		fail(err)
	}
	node, err := netbus.ListenNode(cfg, *nodeName)
	if err != nil {
		fail(err)
	}

	if *telemetryCap > 0 {
		node.EnableTelemetry(*telemetryCap)
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile = os.Stderr
		if *tracePath != "-" {
			traceFile, err = os.Create(*tracePath)
			if err != nil {
				fail(err)
			}
		}
		node.SetTracer(obs.NewStream(traceFile))
	}
	var metricsLn net.Listener
	if *metricsAddr != "" {
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_ = node.WriteNodePrometheus(w)
		})
		go func() { _ = http.Serve(metricsLn, mux) }()
	}

	// The ready line is the startup contract: once printed, the socket
	// is bound and every hosted mailbox answers.
	fmt.Printf("ready node=%s addr=%s endpoints=%s\n",
		*nodeName, node.LocalAddr(), strings.Join(cfg.Nodes[*nodeName].Endpoints, ","))

	errc := make(chan error, 1)
	go func() { errc <- node.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fail(err)
		}
	case <-sigc:
		node.Close()
		<-errc
	}
	if metricsLn != nil {
		metricsLn.Close()
	}
	if traceFile != nil && traceFile != os.Stderr {
		traceFile.Close()
	}
	st := node.Stats()
	fmt.Fprintf(os.Stderr, "dls-node %s: enqueued=%d dedup_hits=%d drains=%d bad_frames=%d refused=%d datagrams_in=%d datagrams_out=%d\n",
		*nodeName, st.Enqueued, st.DedupHits, st.Drains, st.BadFrames, st.Refused, st.DatagramsIn, st.DatagramsOut)
}
