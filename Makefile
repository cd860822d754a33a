# Development targets for the DLS-BL reproduction. Everything is plain
# `go` — the Makefile only names the invocations CI and humans repeat.

GO ?= go

.PHONY: all build test race race-service race-fanout vet fmt doccheck fma-guard examples net-smoke net-trace ci serve bench-smoke bench-cold bench-layered-smoke bench-obs faults-soak fuzz-smoke fuzz-short cover clean

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
# fused seal-and-verify pass, sealing into reused envelopes, and the
# pooled payload and signing buffers its workers share, the parallel key
# generation and its pooled seed sources, and VerifyEach) and the
# transport's receive table under the race detector at GOMAXPROCS 1, the
# inline path, and 4, the worker loop, ten times over, with the
# transcript golden that pins every signed byte and the lifetime of a
# session's recycled payment envelopes; then the bid-receive oracle's
# race subset once at both settings, its rounds drawing keys from the
# shared source pool, the mixed-fault soak's session arm (faulty and
# fault-free jobs on one session bus, its records rewound between them)
# and the simulated bus's record sharing; then the
# hot-path and netbus parity properties, the delivery loop against the
# reliable sends it replaced, the netbus drain decode's sharing and
# aliasing checks and its allocation guard once at both settings.
race-fanout:
	$(GO) test -race -count=10 -cpu 1,4 \
		-run 'TestSealEach|TestGenerateKeyPairs|TestParallelKeygen|TestVerifyEachWorkers|TestTransportVerifiesEachMessageOnce|TestTranscriptGolden|TestRecycledEnvelopeLifetime' \
		./internal/sig ./internal/protocol
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestBidReceiveOracle' ./internal/protocol
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestMixedFaultSoak/session' ./internal/protocol
	$(GO) test -race -count=1 -cpu 1,4 -run 'TestDeliveriesShareOneRecord' ./internal/bus
	$(GO) test -count=1 -cpu 1,4 -run 'TestHotPathParityProperty|TestNetBusParity|TestReliableSendsMatchReference|TestDrainSharesOnlyIdenticalCopies|TestDrainedRunsDoNotAlias|TestNetRoundAllocs' ./internal/protocol ./internal/netbus

# Formatting gate: every tracked .go file, in the root module and in
# bench/, must be gofmt-clean; the target lists any that are not and
# fails.
fmt:
	@files=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$files" ]; then echo "not gofmt-clean:"; echo "$$files"; exit 1; fi

# Doc-comment lint over every package under internal/: every exported
# top-level symbol must carry a doc comment.
doccheck:
	$(GO) run ./cmd/doccheck ./internal/protocol ./internal/sig ./internal/netbus ./internal/bus \
		./internal/service ./internal/pipeline ./internal/referee ./internal/session \
		./internal/core ./internal/dlt ./internal/payment ./internal/agent ./internal/workload \
		./internal/adversarytest ./internal/obs ./internal/sim ./internal/stats ./internal/gantt \
		./internal/dynamics ./internal/experiments

# Fused multiply-add guard. Go may fuse x*y+z into one instruction on
# arm64, ppc64le or riscv64 (amd64 never does), so an honest processor
# there could compute a payment vector that differs in the last bit from
# the referee's, which compares them bit for bit. The period rule rounds
# every product that feeds a sum through an explicit float64 conversion,
# which forbids the fusion; this target cross-compiles ./internal/core's
# test binary for each architecture and fails if `go tool objdump` shows
# a fused multiply-add (FMADD, FMSUB, FNMADD, FNMSUB) in the rule's
# symbol, or no symbol to check. Cross-compiling works offline.
fma-guard:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for arch in arm64 ppc64le riscv64; do \
		GOARCH=$$arch CGO_ENABLED=0 $(GO) test -c -o $$dir/core.test ./internal/core || exit 1; \
		$(GO) tool objdump -s 'core\.\(\*PaymentEngine\)\.RunPeriodInto$$' $$dir/core.test > $$dir/dump || exit 1; \
		grep -q '^TEXT ' $$dir/dump || { echo "fma-guard: no RunPeriodInto symbol on $$arch"; exit 1; }; \
		if grep -E '\bFN?M(ADD|SUB)' $$dir/dump; then echo "fma-guard: fused multiply-add on $$arch"; exit 1; fi; \
		echo "fma-guard: $$arch: no fused multiply-add"; \
	done

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
# gofmt check, the doc-comment lint, the fused multiply-add guard on the
# installment payment rule, the race-enabled test suite (which includes the
# service load test and FIFO streaming, the protocol transport, the
# hot-path parity and zero-alloc guards, the installment sub-rounds, the
# virtual-time packing model's 1.3x target and the Byzantine adversary
# tiers), the crypto fan-out at GOMAXPROCS 1 and 4, the coverage floor,
# a short run of every fuzz target, every example run end to end, the
# layered benchmark's correctness smoke, one cold round at each pool size
# up to service.MaxPoolSize, the 250-seed mixed-fault soak, the
# multi-process loopback smoke, and the distributed-telemetry trace smoke
# (merged 3-process Chrome trace with payment parity intact).
ci: build vet fmt doccheck fma-guard race race-fanout cover fuzz-short examples bench-layered-smoke bench-cold faults-soak net-smoke net-trace

# Statement-coverage gate. The floor is set just under the measured
# suite-wide figure so a change that lands untested code fails loudly;
# raise it when coverage rises, never lower it to make a change fit.
# The profile lands under the git-ignored .cover/ so a coverage run
# never dirties the working tree.
COVER_FLOOR ?= 83.0
COVER_PROFILE ?= .cover/coverage.out
cover:
	@mkdir -p $(dir $(COVER_PROFILE))
	$(GO) test -count=1 -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total statement coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Ten seconds of every fuzz target: the mechanism engine against the
# naive baseline, its installment period rule against the period's
# definition, the four centralized variants (star, chain, affine costs,
# two-parameter bids: no panic, no non-finite output without an error,
# Q = C + B and U = B in the last bit), envelope tampering, the DLT closed forms, the
# bid-session model of who bids what (abstentions, returns, bid-factor
# changes), the binary payload codec differentially
# against JSON, the witness-report payload (binary/JSON differential on
# the accusation wire format), the netbus datagram receive path (decode
# totality + canonical re-encode fixpoint, and no frame but a ping or pong
# accepted outside wire v4), the netbus node's handling of datagram
# sequences (all-or-nothing batch frames, retired v1–v3 frames filing
# nothing, resends, the mailbox byte bound), the installment
# round-ID grammar (parse/print fixed point), and the service's admission
# path (arbitrary job submissions and pool specs over HTTP: no panic,
# every rejection a 4xx with a JSON error, every pool bounded).
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzEngineParity -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzRoundsEngineParity -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzVariants -fuzztime=10s ./internal/core/
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
# delay/corrupt/reorder plan across many seeds, in one-shot runs and
# through one bid session, asserting fault-free payments every time.
# DLSBL_SOAK_ROUNDS picks the seed count.
faults-soak:
	DLSBL_SOAK_ROUNDS=250 $(GO) test -run=TestMixedFaultSoak -v ./internal/protocol/

# One iteration of every benchmark — catches bit-rot in the bench
# harness without paying for real measurements.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# One cold protocol.Run at each pool size up to service.MaxPoolSize
# (m = 16, 64, 128, 256), so the largest pool a spec may declare stays
# exercised, one warm m = 16 reuse round, the service's steady state,
# one netbus round over two loopback nodes at m = 16, 64 and 128, one
# installment payment computation at m = 16 and 256 (the engine's period
# rule at its steady state, 0 B/op) and one warm 4-installment m = 16
# load through pipeline.RunLoad; about a second in all.
bench-cold:
	$(GO) test -run NONE -bench 'BenchmarkColdRound|BenchmarkReuseRound' -benchtime 1x ./internal/protocol
	$(GO) test -run NONE -bench BenchmarkNetRound -benchtime 1x ./internal/netbus
	$(GO) test -run NONE -bench '^BenchmarkRunPeriod$$' -benchtime 1x ./internal/core
	$(GO) test -run NONE -bench BenchmarkInstallmentLoad -benchtime 1x ./internal/pipeline

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
