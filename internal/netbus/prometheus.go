package netbus

import (
	"fmt"
	"io"
	"sort"

	"dlsbl/internal/obs"
)

// WriteNodePrometheus renders a node's counters in Prometheus text
// exposition format 0.0.4 (see obs.Exposition) — the body of dls-node's
// -metrics-addr endpoint. The node_* namespace is deliberately separate from the
// service's dlsbl_* families: these are per-process datagram-plane
// counters, scraped per node, while dlsbl_* aggregates protocol-plane
// state at the driver.
func (n *Node) WriteNodePrometheus(w io.Writer) error {
	st := n.Stats()

	n.mu.Lock()
	type boxDepth struct {
		endpoint string
		depth    int
	}
	depths := make([]boxDepth, 0, len(n.boxes))
	for ep, box := range n.boxes {
		depths = append(depths, boxDepth{endpoint: ep, depth: len(box.queue)})
	}
	telemetryRecords, telemetryDropped := 0, 0
	if n.rec != nil {
		telemetryRecords = len(n.rec.RecordsSince(-1))
		telemetryDropped = n.rec.Dropped()
	}
	name := n.name
	n.mu.Unlock()
	sort.Slice(depths, func(i, j int) bool { return depths[i].endpoint < depths[j].endpoint })

	x := &obs.Exposition{}
	x.Family("node_datagrams_in_total", "Datagrams received by this node, malformed ones included.", "counter")
	x.Sample("node_datagrams_in_total", "", float64(st.DatagramsIn))
	x.Family("node_datagrams_out_total", "Reply datagrams written by this node.", "counter")
	x.Sample("node_datagrams_out_total", "", float64(st.DatagramsOut))
	x.Family("node_resends_total", "Resent message frames recognized by frame-nonce dedup (the driver's ack was lost).", "counter")
	x.Sample("node_resends_total", "", float64(st.DedupHits))
	x.Family("node_decode_failures_total", "Datagrams rejected as malformed (bad magic/version, truncation, oversize, unknown endpoint).", "counter")
	x.Sample("node_decode_failures_total", "", float64(st.BadFrames))
	x.Family("node_enqueued_total", "Messages accepted into a mailbox.", "counter")
	x.Sample("node_enqueued_total", "", float64(st.Enqueued))
	x.Family("node_drains_total", "Drain requests answered.", "counter")
	x.Sample("node_drains_total", "", float64(st.Drains))

	x.Family("node_refused_total", "Message frames refused whole because a destination mailbox would pass its byte bound.", "counter")
	x.Sample("node_refused_total", "", float64(st.Refused))
	x.Family("node_mailbox_depth", "Undrained messages queued per hosted endpoint.", "gauge")
	for _, d := range depths {
		x.Sample("node_mailbox_depth", fmt.Sprintf("endpoint=%q", d.endpoint), float64(d.depth))
	}

	x.Family("node_telemetry_records", "Trace records buffered awaiting a telemetry drain.", "gauge")
	x.Sample("node_telemetry_records", "", float64(telemetryRecords))
	x.Family("node_telemetry_dropped_total", "Trace records evicted by the telemetry buffer's cap.", "counter")
	x.Sample("node_telemetry_dropped_total", "", float64(telemetryDropped))

	x.Family("node_info", "Node identity; the value is always 1.", "gauge")
	x.Sample("node_info", fmt.Sprintf("node=%q", name), 1)

	_, err := x.WriteTo(w)
	return err
}
