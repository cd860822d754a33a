package netbus_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// startTelemetryPair boots one worker node hosting P1 with its
// telemetry buffer armed, and dials the driver medium against it. It
// returns both handles — unlike startCluster, the node itself is under
// test here.
func startTelemetryPair(t *testing.T, cap int) (*netbus.Medium, *netbus.Node) {
	t.Helper()
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"w1":    {Addr: "127.0.0.1:0", Endpoints: []string{"P1"}},
	}}
	n, err := netbus.ListenNode(cfg, "w1")
	if err != nil {
		t.Fatalf("ListenNode(w1): %v", err)
	}
	n.EnableTelemetry(cap)
	spec := cfg.Nodes["w1"]
	spec.Addr = n.LocalAddr().String()
	cfg.Nodes["w1"] = spec
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	m, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	for _, ep := range []string{"referee", "P1"} {
		if err := m.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	return m, n
}

// TestCollectTelemetryRoundTrip pins the pull path end to end in one
// process: the worker's datagram events carry the round context the
// driver stamped into the frames, a second collection is incremental
// (acked records are pruned, never re-served), and a large backlog
// pages across multiple FlagMore frames without loss or duplication,
// its first record included.
func TestCollectTelemetryRoundTrip(t *testing.T) {
	requireUDP(t)
	m, _ := startTelemetryPair(t, 0)
	m.SetRoundContext("s9:r1", "e1")

	const sends = 200
	for i := 0; i < sends; i++ {
		if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Every delivery is observed twice on the worker (message rx, ack
	// tx), both before the node writes the ack that SendTagged waits
	// for; a resend after a late ack adds a dedup_hit. A backlog this
	// size cannot fit one datagram, so a complete harvest proves the
	// FlagMore paging works.
	if len(recs) < 2*sends {
		t.Fatalf("collected %d records from %d sends, want at least %d", len(recs), sends, 2*sends)
	}
	seen := map[int]bool{}
	attributed := false
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("record seq %d served twice", r.Seq)
		}
		seen[r.Seq] = true
		if r.Name == obs.EvNetRx && r.Round == "s9:r1" && r.Origin != 0 {
			attributed = true
		}
	}
	if !attributed {
		t.Fatal("no collected net_rx record carries the driver's round context and frame origin")
	}

	// Incremental: the first harvest acked (and pruned) everything.
	again, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range again {
		if seen[r.Seq] {
			t.Fatalf("second collection re-served seq %d", r.Seq)
		}
	}
}

// TestCollectTelemetryOversizedRecord pins that collection ends when a
// record no telemetry page can carry is buffered: a round ID of 11,000
// '<', which JSON escapes to six bytes each, makes both events of a
// delivery larger than a page. They arrive as truncated markers, and the
// next collection goes on from there.
func TestCollectTelemetryOversizedRecord(t *testing.T) {
	requireUDP(t)
	m, _ := startTelemetryPair(t, 0)
	m.SetRoundContext(strings.Repeat("<", 11_000), "e1")
	if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, 1); err != nil {
		t.Fatal(err)
	}
	type result struct {
		recs []obs.Record
		err  error
	}
	done := make(chan result, 1)
	go func() {
		recs, err := m.CollectTelemetry("w1")
		done <- result{recs, err}
	}()
	var got result
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("CollectTelemetry did not return with an oversized record buffered")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	if len(got.recs) < 2 || got.recs[0].Type != "truncated" || got.recs[1].Type != "truncated" {
		t.Fatalf("collected %+v, want the delivery's two events as truncated markers", got.recs)
	}
	m.SetRoundContext("", "")
	if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, 2); err != nil {
		t.Fatal(err)
	}
	recs, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 || recs[0].Name != obs.EvNetRx || recs[0].Seq <= got.recs[len(got.recs)-1].Seq {
		t.Fatalf("the next collection read %+v, want the next delivery's events", recs)
	}
}

// TestCollectTelemetryMarksEvictedRecords pins that records a capped
// node evicts before a collection are not lost without a trace: a node
// capped at 4 records that saw 5 message frames (10 records, 6 evicted)
// serves a truncated marker naming the 6 lost records, under seq 6, ahead
// of the survivors' seqs 7–10, and the next collection carries no marker.
func TestCollectTelemetryMarksEvictedRecords(t *testing.T) {
	requireUDP(t)
	m, n := startTelemetryPair(t, 4)
	for i := 0; i < 5; i++ {
		if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// A resend after a late ack adds a dedup_hit record, so the eviction
	// count is read from the node rather than assumed.
	dropped := n.TelemetryDropped()
	if dropped < 6 {
		t.Fatalf("node evicted %d records, want at least 6", dropped)
	}
	recs, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Type != "truncated" {
		t.Fatalf("collected %+v, want a truncated marker and the 4 surviving records", recs)
	}
	if recs[0].Seq != dropped || !strings.Contains(recs[0].Detail, fmt.Sprintf("%d records lost", dropped)) {
		t.Fatalf("marker %+v, want seq %d naming %d lost records", recs[0], dropped, dropped)
	}
	for i, r := range recs[1:] {
		if r.Type == "truncated" || r.Seq != dropped+1+i {
			t.Fatalf("record %d after the marker is %+v, want seq %d", i, r, dropped+1+i)
		}
	}
	if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, 6); err != nil {
		t.Fatal(err)
	}
	again, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) == 0 || again[0].Type == "truncated" || again[0].Seq != recs[len(recs)-1].Seq+1 {
		t.Fatalf("the next collection read %+v, want the next delivery's records and no marker", again)
	}
}

func TestCollectTelemetryUnarmedNode(t *testing.T) {
	requireUDP(t)
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"w1":    {Addr: "127.0.0.1:0", Endpoints: []string{"P1"}},
	}}
	n, err := netbus.ListenNode(cfg, "w1")
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Nodes["w1"]
	spec.Addr = n.LocalAddr().String()
	cfg.Nodes["w1"] = spec
	go n.Serve()
	t.Cleanup(func() { n.Close() })
	m, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	// An unarmed node answers with an empty stream, not an error — the
	// driver (dls-serve -net-trace) turns that into its own diagnostic.
	recs, err := m.CollectTelemetry("w1")
	if err != nil {
		t.Fatalf("collecting from an unarmed node errored: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("unarmed node served %d records, want none", len(recs))
	}
}

// TestWriteNodePrometheus exercises the per-node exposition a scraper
// sees behind dls-node -metrics-addr.
func TestWriteNodePrometheus(t *testing.T) {
	requireUDP(t)
	m, n := startTelemetryPair(t, 64)
	if _, err := m.SendTagged("referee", "P1", "dls/bid", sig.Envelope{}, 1, 1); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := n.WriteNodePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE node_datagrams_in_total counter",
		"# TYPE node_datagrams_out_total counter",
		"# TYPE node_enqueued_total counter",
		`node_mailbox_depth{endpoint="P1"} 1`,
		"# TYPE node_telemetry_records gauge",
		`node_info{node="w1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "node_datagrams_in_total 0") {
		t.Fatalf("no inbound datagrams counted after a delivery:\n%s", out)
	}
}
