package service

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"dlsbl/internal/obs"
	"dlsbl/internal/session"
)

// promSample matches a text-exposition sample line:
// name{labels} value — the grammar a Prometheus scraper accepts.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE.+-]+$`)

// TestPrometheusExposition runs jobs against a multiload pool, scrapes
// GET /metrics?format=prometheus and verifies the body is structurally
// parseable exposition: every non-comment line matches the sample
// grammar, every family carries HELP and TYPE headers, and the phase
// duration and event-counter families the pool tracer feeds are
// present once a round has played.
func TestPrometheusExposition(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2, 2.5}, Multiload: true}); err != nil {
		t.Fatal(err)
	}
	tasks, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1}, {Z: 0.2, Seed: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if res := task.Wait(); res.Error != "" {
			t.Fatalf("job failed: %s", res.Error)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q, want text/plain exposition", ct)
	}

	helped := map[string]bool{}
	typed := map[string]bool{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("unparseable sample line: %q", line)
		}
		seen[line[:strings.IndexAny(line, "{ ")]] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range seen {
		if !helped[name] || !typed[name] {
			t.Errorf("family %s missing HELP or TYPE header", name)
		}
	}
	for _, want := range []string{
		"dlsbl_jobs_total", "dlsbl_protocol_rounds_total",
		"dlsbl_pool_phase_ms", "dlsbl_pool_events_total",
		"dlsbl_multiload_saved_total", "dlsbl_build_info",
	} {
		if !seen[want] {
			t.Errorf("family %s absent from exposition", want)
		}
	}
}

// TestPrometheusGolden pins WritePrometheus byte for byte on a fixed
// snapshot, so a change to the shared obs.Exposition writer or to a
// family's name, help text, label rendering or order shows up here.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != prometheusGolden {
		t.Errorf("exposition drifted from the golden body:\n%s", got)
	}
}

// goldenSnapshot is a fixed MetricsSnapshot touching every family the
// exposition writes: two pools (one with a ban, a latched sentinel
// violation, phase quantiles and event counters), labelled and
// unlabelled samples, and values whose %g rendering takes each form.
func goldenSnapshot() MetricsSnapshot {
	var snap MetricsSnapshot
	snap.Jobs.Submitted, snap.Jobs.Completed, snap.Jobs.Failed, snap.Jobs.Rejected = 12, 9, 2, 1
	snap.Jobs.Queued, snap.Jobs.Running, snap.Jobs.PeakRun = 1, 1, 2
	snap.Protocol.Rounds, snap.Protocol.Evictions = 11, 1
	snap.Protocol.FinedProcessors, snap.Protocol.Retransmits = 3, 40
	snap.Multiload.Rebids, snap.Multiload.MessagesSaved = 2, 64
	snap.Multiload.DeliveriesSaved, snap.Multiload.UnitsSaved = 192, 1280
	snap.LatencyMS.QueueWait = LatencySummary{P50: 0.25, P90: 1.5, P99: 3.125}
	snap.LatencyMS.Run = LatencySummary{P50: 12.5, P90: 20, P99: 1234567.5}
	snap.Build = obs.BuildInfo{GoVersion: "go1.24.0", Module: "dlsbl", Version: "(devel)", VCSRevision: "abc123", VCSModified: true}
	snap.Pools = []PoolSnapshot{
		{
			Name: "hot", Rounds: 7, Queued: 1, Banned: []string{"P3"},
			Traffic:            session.TrafficStats{Deliveries: 336},
			SentinelViolations: []string{"conservation"},
			PhaseMS: map[string]LatencySummary{
				"bidding":    {P50: 0.5, P90: 0.75, P99: 1},
				"allocating": {P50: 0.0625, P90: 0.1, P99: 0.2},
			},
			BusEvents: map[string]int64{"deliver": 336, "bid_reused": 6},
		},
		{Name: "cold", Rounds: 4, Traffic: session.TrafficStats{Deliveries: 1000000}},
	}
	return snap
}

const prometheusGolden = `# HELP dlsbl_jobs_total Jobs by terminal disposition since server start.
# TYPE dlsbl_jobs_total counter
dlsbl_jobs_total{state="submitted"} 12
dlsbl_jobs_total{state="completed"} 9
dlsbl_jobs_total{state="failed"} 2
dlsbl_jobs_total{state="rejected"} 1
# HELP dlsbl_jobs_queued Jobs admitted and not yet picked up by a pool runner.
# TYPE dlsbl_jobs_queued gauge
dlsbl_jobs_queued 1
# HELP dlsbl_jobs_running Protocol runs executing right now.
# TYPE dlsbl_jobs_running gauge
dlsbl_jobs_running 1
# HELP dlsbl_jobs_running_peak High-water mark of concurrent protocol runs.
# TYPE dlsbl_jobs_running_peak gauge
dlsbl_jobs_running_peak 2
# HELP dlsbl_protocol_rounds_total Protocol rounds played (completed or terminated).
# TYPE dlsbl_protocol_rounds_total counter
dlsbl_protocol_rounds_total 11
# HELP dlsbl_protocol_evictions_total Processors evicted for unreachability.
# TYPE dlsbl_protocol_evictions_total counter
dlsbl_protocol_evictions_total 1
# HELP dlsbl_protocol_fined_total Processor fines levied by the referee.
# TYPE dlsbl_protocol_fined_total counter
dlsbl_protocol_fined_total 3
# HELP dlsbl_protocol_retransmits_total Transport retransmissions across all rounds.
# TYPE dlsbl_protocol_retransmits_total counter
dlsbl_protocol_retransmits_total 40
# HELP dlsbl_multiload_rebids_total Re-bids forced by bid-profile changes, across Multiload pools.
# TYPE dlsbl_multiload_rebids_total counter
dlsbl_multiload_rebids_total 2
# HELP dlsbl_multiload_saved_total Bus traffic the reused bids avoided, across Multiload pools.
# TYPE dlsbl_multiload_saved_total counter
dlsbl_multiload_saved_total{unit="messages"} 64
dlsbl_multiload_saved_total{unit="deliveries"} 192
dlsbl_multiload_saved_total{unit="units"} 1280
# HELP dlsbl_latency_ms Job latency quantiles over the most recent jobs, in milliseconds.
# TYPE dlsbl_latency_ms gauge
dlsbl_latency_ms{stage="queue_wait",quantile="0.5"} 0.25
dlsbl_latency_ms{stage="queue_wait",quantile="0.9"} 1.5
dlsbl_latency_ms{stage="queue_wait",quantile="0.99"} 3.125
dlsbl_latency_ms{stage="run",quantile="0.5"} 12.5
dlsbl_latency_ms{stage="run",quantile="0.9"} 20
dlsbl_latency_ms{stage="run",quantile="0.99"} 1.2345675e+06
# HELP dlsbl_pool_rounds Rounds a pool has played.
# TYPE dlsbl_pool_rounds gauge
dlsbl_pool_rounds{pool="hot"} 7
dlsbl_pool_rounds{pool="cold"} 4
# HELP dlsbl_pool_queued Jobs waiting in a pool's FIFO.
# TYPE dlsbl_pool_queued gauge
dlsbl_pool_queued{pool="hot"} 1
dlsbl_pool_queued{pool="cold"} 0
# HELP dlsbl_pool_banned Processors a pool has banned.
# TYPE dlsbl_pool_banned gauge
dlsbl_pool_banned{pool="hot"} 1
dlsbl_pool_banned{pool="cold"} 0
# HELP dlsbl_pool_bus_deliveries_total Receiver-side bus deliveries a pool's rounds cost (the Θ(m²) term).
# TYPE dlsbl_pool_bus_deliveries_total counter
dlsbl_pool_bus_deliveries_total{pool="hot"} 336
dlsbl_pool_bus_deliveries_total{pool="cold"} 1e+06
# HELP dlsbl_pool_sentinel_violations Economic-invariant violations the pool's sentinel has latched; any nonzero value is an incident, not adversary noise.
# TYPE dlsbl_pool_sentinel_violations gauge
dlsbl_pool_sentinel_violations{pool="hot"} 1
dlsbl_pool_sentinel_violations{pool="cold"} 0
# HELP dlsbl_pool_phase_ms Per-phase wall-clock duration quantiles over a pool's recent rounds.
# TYPE dlsbl_pool_phase_ms gauge
dlsbl_pool_phase_ms{pool="hot",phase="allocating",quantile="0.5"} 0.0625
dlsbl_pool_phase_ms{pool="hot",phase="allocating",quantile="0.9"} 0.1
dlsbl_pool_phase_ms{pool="hot",phase="allocating",quantile="0.99"} 0.2
dlsbl_pool_phase_ms{pool="hot",phase="bidding",quantile="0.5"} 0.5
dlsbl_pool_phase_ms{pool="hot",phase="bidding",quantile="0.9"} 0.75
dlsbl_pool_phase_ms{pool="hot",phase="bidding",quantile="0.99"} 1
# HELP dlsbl_pool_events_total Bus, transport and protocol events by kind (obs event kinds).
# TYPE dlsbl_pool_events_total counter
dlsbl_pool_events_total{pool="hot",kind="bid_reused"} 6
dlsbl_pool_events_total{pool="hot",kind="deliver"} 336
# HELP dlsbl_build_info Build metadata; the value is always 1.
# TYPE dlsbl_build_info gauge
dlsbl_build_info{go_version="go1.24.0",module="dlsbl",version="(devel)",vcs_revision="abc123",vcs_modified="true"} 1
`

// TestMultiloadServerAggregate pins the server-wide multiload rollup:
// the snapshot's Multiload block must equal the sum over every
// multiload pool of its saved-traffic counters, and count only
// multiload pools.
func TestMultiloadServerAggregate(t *testing.T) {
	srv := New(Config{Workers: 4, QueueDepth: 64})
	defer srv.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := srv.CreatePool(PoolSpec{Name: name, TrueW: []float64{1, 2, 3}, Multiload: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.CreatePool(PoolSpec{Name: "plain", TrueW: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "plain"} {
		tasks, err := srv.Submit(name, []JobSpec{{Z: 0.2, Seed: 1}, {Z: 0.2, Seed: 2}, {Z: 0.2, Seed: 3}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			if res := task.Wait(); res.Error != "" {
				t.Fatalf("pool %s: job failed: %s", name, res.Error)
			}
		}
	}

	snap := srv.Metrics()
	if snap.Multiload.Pools != 2 {
		t.Fatalf("Multiload.Pools = %d, want 2", snap.Multiload.Pools)
	}
	var msgs, dels, units, rebids int
	for _, p := range snap.Pools {
		if !p.Multiload {
			if p.MessagesSaved != 0 || p.DeliveriesSaved != 0 {
				t.Fatalf("non-multiload pool %s reports savings", p.Name)
			}
			continue
		}
		msgs += p.MessagesSaved
		dels += p.DeliveriesSaved
		units += p.UnitsSaved
		rebids += p.Rebids
	}
	if dels == 0 {
		t.Fatal("multiload pools played reuse rounds but saved no deliveries")
	}
	if snap.Multiload.MessagesSaved != msgs || snap.Multiload.DeliveriesSaved != dels ||
		snap.Multiload.UnitsSaved != units || snap.Multiload.Rebids != rebids {
		t.Fatalf("aggregate %+v does not sum the pools (want %d/%d/%d msgs/dels/units, %d rebids)",
			snap.Multiload, msgs, dels, units, rebids)
	}
}

// TestTraceArtifact submits with the "trace" artifact and checks each
// result carries the round's record stream — spans properly nested,
// all five phases present — while a submission without the artifact
// carries none.
func TestTraceArtifact(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 16})
	defer srv.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 1.5, 2}}); err != nil {
		t.Fatal(err)
	}
	tasks, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 1}}, []string{"trace"})
	if err != nil {
		t.Fatal(err)
	}
	res := tasks[0].Wait()
	if res.Error != "" {
		t.Fatalf("job failed: %s", res.Error)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace artifact requested but result carries no records")
	}
	phases := map[string]bool{}
	depth := 0
	for i, r := range res.Trace {
		switch r.Type {
		case "begin":
			depth++
			phases[r.Name] = true
		case "end":
			depth--
			if depth < 0 {
				t.Fatalf("record %d: end without begin", i)
			}
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced spans in trace artifact (depth %d at end)", depth)
	}
	for _, want := range []string{"initialization", "bidding", "allocating", "processing", "payments"} {
		if !phases[want] {
			t.Errorf("phase %q missing from trace artifact", want)
		}
	}

	plain, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := plain[0].Wait(); len(res.Trace) != 0 {
		t.Fatal("trace records present without the trace artifact")
	}
}

// TestRingWraparound pins the latency reservoir at its capacity edge:
// past ringCap observations the ring holds exactly the most recent
// ringCap values, and samples() hands back a defensive copy the caller
// can mutate without corrupting the reservoir.
func TestRingWraparound(t *testing.T) {
	var r ring
	n := ringCap + 10
	for i := 0; i < n; i++ {
		r.add(float64(i))
	}
	got := r.samples()
	if len(got) != ringCap {
		t.Fatalf("samples() length %d, want %d", len(got), ringCap)
	}
	want := map[float64]bool{}
	for i := n - ringCap; i < n; i++ {
		want[float64(i)] = true
	}
	for _, x := range got {
		if !want[x] {
			t.Fatalf("sample %v is older than the last %d observations", x, ringCap)
		}
		delete(want, x)
	}
	if len(want) != 0 {
		t.Fatalf("%d recent observations missing from the reservoir", len(want))
	}

	got[0] = -1
	again := r.samples()
	for _, x := range again {
		if x == -1 {
			t.Fatal("mutating samples() result corrupted the reservoir — not a defensive copy")
		}
	}
}
