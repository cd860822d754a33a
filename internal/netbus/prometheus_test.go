package netbus

import (
	"strings"
	"testing"

	"dlsbl/internal/obs"
)

// TestWriteNodePrometheusGolden pins the node exposition byte for byte
// on a fixed, socketless node.
func TestWriteNodePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenNode().WriteNodePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != nodePrometheusGolden {
		t.Errorf("node exposition drifted from the golden body:\n%s", got)
	}
}

// goldenNode is a socketless Node with fixed counters, two mailboxes
// (rendered in endpoint order) and a capped telemetry buffer that has
// evicted records.
func goldenNode() *Node {
	n := &Node{
		name: "w1",
		boxes: map[string]*mailbox{
			"P2": {queue: make([]SeqMsg, 2)},
			"P1": {queue: make([]SeqMsg, 1)},
		},
		stats: NodeStats{Enqueued: 5, DedupHits: 1, Drains: 3, BadFrames: 2, Refused: 4, DatagramsIn: 11, DatagramsOut: 9},
	}
	n.EnableTelemetry(2)
	for i := 0; i < 3; i++ {
		n.rec.Event(obs.Event{Kind: obs.EvNetRx})
	}
	return n
}

const nodePrometheusGolden = `# HELP node_datagrams_in_total Datagrams received by this node, malformed ones included.
# TYPE node_datagrams_in_total counter
node_datagrams_in_total 11
# HELP node_datagrams_out_total Reply datagrams written by this node.
# TYPE node_datagrams_out_total counter
node_datagrams_out_total 9
# HELP node_resends_total Resent message frames recognized by frame-nonce dedup (the driver's ack was lost).
# TYPE node_resends_total counter
node_resends_total 1
# HELP node_decode_failures_total Datagrams rejected as malformed (bad magic/version, truncation, oversize, unknown endpoint).
# TYPE node_decode_failures_total counter
node_decode_failures_total 2
# HELP node_enqueued_total Messages accepted into a mailbox.
# TYPE node_enqueued_total counter
node_enqueued_total 5
# HELP node_drains_total Drain requests answered.
# TYPE node_drains_total counter
node_drains_total 3
# HELP node_refused_total Message frames refused whole because a destination mailbox would pass its byte bound.
# TYPE node_refused_total counter
node_refused_total 4
# HELP node_mailbox_depth Undrained messages queued per hosted endpoint.
# TYPE node_mailbox_depth gauge
node_mailbox_depth{endpoint="P1"} 1
node_mailbox_depth{endpoint="P2"} 2
# HELP node_telemetry_records Trace records buffered awaiting a telemetry drain.
# TYPE node_telemetry_records gauge
node_telemetry_records 2
# HELP node_telemetry_dropped_total Trace records evicted by the telemetry buffer's cap.
# TYPE node_telemetry_dropped_total counter
node_telemetry_dropped_total 1
# HELP node_info Node identity; the value is always 1.
# TYPE node_info gauge
node_info{node="w1"} 1
`
