# Development targets for the DLS-BL reproduction. Everything is plain
# `go` — the Makefile only names the invocations CI and humans repeat.

GO ?= go

.PHONY: all build test race race-service race-fanout vet doccheck examples net-smoke net-trace ci serve bench-smoke bench-cold bench-layered-smoke bench-obs faults-soak fuzz-smoke fuzz-short cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Focused race gate over the concurrent subsystems: the service daemon
# (per-pool runners, queue backpressure, graceful drain, the 200-job
# load test) and the protocol's reliable transport. `race` subsumes it;
# this target exists for fast iteration on concurrency changes.
race-service:
	$(GO) test -race ./internal/service/... ./internal/protocol/...

# The per-party crypto fan-out (internal/sig's worker loop behind the
# batch sealer, the parallel key generation and its pooled seed sources,
# and VerifyEach) under the race detector at GOMAXPROCS 1, the inline
# path, and 4, the worker loop, ten times over, with the transcript
# golden that pins every signed byte; then the bid-receive oracle's race
# subset once at both settings, its rounds drawing keys from the shared
# source pool; then the hot-path and netbus parity properties once at
# both settings.
race-fanout:
	$(GO) test -race -count=10 -cpu 1,4 \
		-run 'TestSealBinaryEach|TestGenerateKeyPairs|TestParallelKeygen|TestVerifyEachWorkers|TestTranscriptGolden' \
		./internal/sig ./internal/protocol
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestBidReceiveOracle' ./internal/protocol
	$(GO) test -count=1 -cpu 1,4 -run 'TestHotPathParityProperty|TestNetBusParity' ./internal/protocol ./internal/netbus

# Doc-comment lint over every package under internal/: every exported
# top-level symbol must carry a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck ./internal/protocol ./internal/sig ./internal/netbus ./internal/bus \
		./internal/service ./internal/pipeline ./internal/referee ./internal/session \
		./internal/core ./internal/dlt ./internal/payment ./internal/agent ./internal/workload \
		./internal/adversarytest ./internal/obs ./internal/sim ./internal/stats ./internal/gantt \
		./internal/dynamics ./internal/experiments

# Every example, run end to end: each is a standalone main that exits
# non-zero when it fails. examples/service (one pool at two bus rates)
# and examples/repeatedjobs (a ban over six jobs) are the only
# end-to-end callers of a pool's job stream outside the tests.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d > /dev/null || { echo "example $$d failed"; exit 1; }; \
	done

# The 3-process loopback deployment check: build dls-serve and dls-node,
# boot 1 driver + 2 workers over real UDP sockets, run a full round and
# assert bit-identical payments/transcript against the simulated bus
# (dls-serve -net-round's built-in parity verdict). Skips gracefully
# where loopback sockets are unavailable.
net-smoke:
	$(GO) test -run=TestNetSmokeMultiProcess -v -count=1 ./internal/netbus/

# The distributed-telemetry deployment check: the same 3-process
# loopback round, run with per-node telemetry enabled and dls-serve
# -net-trace, must produce one merged Chrome trace spanning all three
# OS processes (clock-aligned tracks, round-attributed datagram events)
# while the traced socket run's payments stay bit-identical to the
# untraced simulated-bus run.
net-trace:
	$(GO) test -run=TestNetTraceMultiProcess -v -count=1 ./internal/netbus/

# The full gate a change must pass before merging: build, vet, the
# doc-comment lint, the race-enabled test suite (which includes the
# service load test and FIFO streaming, the protocol transport, the
# hot-path parity and zero-alloc guards, the installment sub-rounds, the
# virtual-time packing model's 1.3x target and the Byzantine adversary
# tiers), the crypto fan-out at GOMAXPROCS 1 and 4, the coverage floor,
# a short run of every fuzz target, every example run end to end, the
# layered benchmark's correctness smoke, one cold round at each pool size
# up to service.MaxPoolSize, the multi-process loopback
# smoke, and the distributed-telemetry trace smoke (merged 3-process
# Chrome trace with payment parity intact).
ci: build vet doccheck race race-fanout cover fuzz-short examples bench-layered-smoke bench-cold net-smoke net-trace

# Statement-coverage gate. The floor is set just under the measured
# suite-wide figure so a change that lands untested code fails loudly;
# raise it when coverage rises, never lower it to make a change fit.
# The profile lands under the git-ignored .cover/ so a coverage run
# never dirties the working tree.
COVER_FLOOR ?= 81.4
COVER_PROFILE ?= .cover/coverage.out
cover:
	@mkdir -p $(dir $(COVER_PROFILE))
	$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Ten seconds of every fuzz target: the mechanism engine against the
# naive baseline, envelope tampering, the DLT closed forms, the
# bid-session membership model, the binary payload codec differentially
# against JSON, the witness-report payload (binary/JSON differential on
# the accusation wire format), the netbus datagram receive path (decode
# totality + canonical re-encode fixpoint, batch frames included), the
# netbus node's handling of datagram sequences (all-or-nothing multi and
# batch frames, resends, the mailbox byte bound), the installment
# round-ID grammar (parse/print fixed point), and the service's admission
# path (arbitrary job submissions and pool specs over HTTP: no panic,
# every rejection a 4xx with a JSON error, every pool bounded).
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzEngineParity -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzEnvelopeTampering -fuzztime=10s ./internal/sig/
	$(GO) test -run=NONE -fuzz=FuzzOptimal -fuzztime=10s ./internal/dlt/
	$(GO) test -run=NONE -fuzz=FuzzLinear -fuzztime=10s ./internal/dlt/
	$(GO) test -run=NONE -fuzz=FuzzBidSessionMembership -fuzztime=10s ./internal/protocol/
	$(GO) test -run=NONE -fuzz=FuzzRoundRef -fuzztime=10s ./internal/protocol/
	$(GO) test -run=NONE -fuzz=FuzzPayloadCodec -fuzztime=10s ./internal/referee/
	$(GO) test -run=NONE -fuzz=FuzzWitnessReport -fuzztime=10s ./internal/referee/
	$(GO) test -run=NONE -fuzz=FuzzWireFrame -fuzztime=10s ./internal/netbus/
	$(GO) test -run=NONE -fuzz=FuzzNodeHandle -fuzztime=10s ./internal/netbus/
	$(GO) test -run=NONE -fuzz=FuzzSubmission -fuzztime=10s ./internal/service/
	$(GO) test -run=NONE -fuzz=FuzzPoolSpec -fuzztime=10s ./internal/service/

# Run the scheduling daemon with its demo pool on :8080. See the
# README's "Service mode" section for the client conversation.
serve:
	$(GO) run ./cmd/dls-serve

# Extended mixed-fault soak: the protocol under a combined drop/dup/
# delay/corrupt/reorder plan across many seeds, asserting fault-free
# payments every time. DLSBL_SOAK_ROUNDS picks the seed count.
faults-soak:
	DLSBL_SOAK_ROUNDS=250 $(GO) test -run=TestMixedFaultSoak -v ./internal/protocol/

# One iteration of every benchmark — catches bit-rot in the bench
# harness without paying for real measurements.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# One cold protocol.Run at each pool size up to service.MaxPoolSize
# (m = 16, 64, 128, 256), so the largest pool a spec may declare stays
# exercised; under a second in all.
bench-cold:
	$(GO) test -run NONE -bench BenchmarkColdRound -benchtime 1x ./internal/protocol

# The layered benchmark's own tests (bench/, a separate module): every
# op's correctness check across the service, library and netbus paths,
# on short runs. No timing is asserted.
bench-layered-smoke:
	cd bench && GOPROXY=off GOFLAGS= $(GO) test -count=1 ./...

# Tracer overhead guard: the nil-tracer path (every run without -trace)
# against a streaming NDJSON tracer, over a full protocol run. The nil
# path must stay within noise of the pre-tracer baseline.
bench-obs:
	$(GO) test -run=NONE -bench=BenchmarkTracerOverhead -benchmem ./internal/protocol/

# Short differential-fuzz pass of the engine against the naive path.
fuzz-smoke:
	$(GO) test -run=FuzzEngineParity -fuzz=FuzzEngineParity -fuzztime=10s ./internal/core/

clean:
	$(GO) clean ./...
