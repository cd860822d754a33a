package main

import (
	"time"

	"dlsbl/internal/obs"
	"dlsbl/internal/stats"
)

// opSpan is the benchmark-owned span around a traced library call.
const opSpan = "bench.op"

// phases are the protocol's phase spans, in order.
var phases = []string{obs.PhaseInit, obs.PhaseBidding, obs.PhaseAllocating, obs.PhaseProcessing, obs.PhasePayments}

// faultKinds are the bus events a FaultPlan produces.
var faultKinds = []string{obs.EvDrop, obs.EvDuplicate, obs.EvDelay, obs.EvCorrupt, obs.EvReorder}

// maxTraceRecords bounds the records a traced window keeps for its
// Chrome trace; the aggregates below see every record.
const maxTraceRecords = 50000

// layerAgg sums what the traces of one traced window show.
type layerAgg struct {
	ops                   int
	latMS, queueMS, runMS float64
	phaseMS               map[string]float64
	events                map[string]int
	payDeliveries         int // deliver events inside the payments span
	rounds                int // protocol rounds, installment sub-rounds included
	installments          int
	speedup               float64
	recs                  []obs.Record
}

func newLayerAgg() *layerAgg {
	return &layerAgg{phaseMS: map[string]float64{}, events: map[string]int{}}
}

// add folds one op's trace into the sums and, while there is room, its
// records (shifted onto the window's clock) into the Chrome trace.
func (a *layerAgg) add(s sample, begin time.Time) {
	a.ops++
	a.latMS += float64(s.lat) / float64(time.Millisecond)
	a.queueMS += s.queueMS
	a.runMS += s.runMS
	a.installments += s.installments
	a.speedup += s.speedup
	open := map[string]float64{}
	for _, rec := range s.recs {
		switch rec.Type {
		case "begin":
			open[rec.Name] = rec.TS
			if rec.Name == obs.PhaseInit {
				a.rounds++
			}
		case "end":
			if t0, ok := open[rec.Name]; ok && rec.Name != opSpan {
				a.phaseMS[rec.Name] += (rec.TS - t0) / 1e3
			}
			delete(open, rec.Name)
		case "event":
			a.events[rec.Name]++
			if rec.Name == obs.EvDeliver && rec.Phase == obs.PhasePayments {
				a.payDeliveries++
			}
		}
	}
	if len(a.recs)+len(s.recs) <= maxTraceRecords {
		shift := float64(s.recsAt.Sub(begin)) / float64(time.Microsecond)
		for _, rec := range s.recs {
			rec.TS += shift
			a.recs = append(a.recs, rec)
		}
	}
}

// breakdown splits the traced window's mean client latency:
// latency = http + queue wait + Σ phases + unattributed, where
// unattributed is the run time no phase span covers.
type breakdown struct {
	LatencyMS      float64            `json:"latency_ms"`
	HTTPMS         float64            `json:"service.http_ms"`
	QueueWaitMS    float64            `json:"service.queue_wait_ms"`
	PhaseMS        map[string]float64 `json:"phase_ms"`
	UnattributedMS float64            `json:"protocol.unattributed_ms"`
	SumMS          float64            `json:"sum_ms"`
}

func (a *layerAgg) breakdown() breakdown {
	n := float64(max(a.ops, 1))
	b := breakdown{
		LatencyMS:   a.latMS / n,
		HTTPMS:      (a.latMS - a.queueMS - a.runMS) / n,
		QueueWaitMS: a.queueMS / n,
		PhaseMS:     map[string]float64{},
	}
	var phaseSum float64
	for _, p := range phases {
		b.PhaseMS[p] = a.phaseMS[p] / n
		phaseSum += a.phaseMS[p]
	}
	b.UnattributedMS = (a.runMS - phaseSum) / n
	b.SumMS = b.HTTPMS + b.QueueWaitMS + phaseSum/n + b.UnattributedMS
	return b
}

// perLayerMetrics names the per-layer metrics with their units;
// BENCHMARK.json lists the same set. The probe metrics come last.
var perLayerMetrics = []struct{ name, unit string }{
	{"service.http_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"protocol.initialization_ms", "ms"},
	{"protocol.bidding_ms", "ms"},
	{"protocol.allocating_ms", "ms"},
	{"protocol.processing_ms", "ms"},
	{"protocol.payments_ms", "ms"},
	{"protocol.unattributed_ms", "ms"},
	{"protocol.bid_reuse_ratio", "ratio"},
	{"protocol.splices_per_op", "count/op"},
	{"protocol.rebids_per_op", "count/op"},
	{"protocol.retransmits_per_op", "count/op"},
	{"protocol.dedup_hits_per_op", "count/op"},
	{"protocol.timeouts_per_op", "count/op"},
	{"protocol.payments_deliveries_per_op", "count/op"},
	{"bus.messages_per_op", "count/op"},
	{"bus.deliveries_per_op", "count/op"},
	{"bus.faults_per_op", "count/op"},
	{"sig.verify_batches_per_op", "count/op"},
	{"sig.memo_hits_per_op", "count/op"},
	{"pipeline.subrounds_per_op", "count/op"},
	{"pipeline.batch_speedup_model", "x"},
	{"referee.convictions_per_op", "count/op"},
	{"netbus.datagrams_per_op", "count/op"},
	{"netbus.resends_per_op", "count/op"},
	{"netbus.decode_failures_per_op", "count/op"},
	{"obs.trace_overhead_pct", "%"},
	{"host.ref_us", "us"},
	{"host.steal_pct", "%"},
	{"sig.keygen_us", "us"},
	{"sig.seal_us", "us"},
	{"sig.seal_json_us", "us"},
	{"sig.verify_us", "us"},
	{"sig.verify_memo_hit_us", "us"},
	{"sig.codec_encode_ns", "ns"},
	{"sig.codec_decode_ns", "ns"},
	{"dlt.optimal_us", "us"},
	{"dlt.pipelined_alloc_us", "us"},
	{"core.payment_engine_us", "us"},
	{"referee.verify_transcript_us", "us"},
	{"netbus.frame_codec_ns", "ns"},
}

// perLayer derives every per-layer metric from the traced window, the
// probes and the run's reference timings.
func (r *result) perLayer(probes map[string]float64) map[string]metric {
	vals := map[string]float64{"host.ref_us": stats.Summarize(r.refUS).Median, "host.steal_pct": r.stealPct()}
	for k, v := range probes {
		vals[k] = v
	}
	if w := r.traced; w != nil {
		a, c := w.layers, w.counters
		n := float64(max(a.ops, 1))
		b := a.breakdown()
		vals["service.http_ms"] = b.HTTPMS
		vals["service.queue_wait_ms"] = b.QueueWaitMS
		vals["service.run_ms"] = a.runMS / n
		for _, p := range phases {
			vals["protocol."+p+"_ms"] = b.PhaseMS[p]
		}
		vals["protocol.unattributed_ms"] = b.UnattributedMS
		reused, spliced := a.events[obs.EvBidReused], a.events[obs.EvBidSpliced]
		vals["protocol.bid_reuse_ratio"] = float64(reused) / float64(max(a.rounds, 1))
		vals["protocol.splices_per_op"] = float64(spliced) / n
		vals["protocol.rebids_per_op"] = float64(a.rounds-reused-spliced) / n
		vals["protocol.retransmits_per_op"] = float64(a.events[obs.EvRetransmit]) / n
		vals["protocol.dedup_hits_per_op"] = float64(a.events[obs.EvDedupHit]) / n
		vals["protocol.timeouts_per_op"] = float64(a.events[obs.EvTimeout]) / n
		vals["protocol.payments_deliveries_per_op"] = float64(a.payDeliveries) / n
		vals["bus.messages_per_op"] = float64(c.messages) / n
		vals["bus.deliveries_per_op"] = float64(c.deliveries) / n
		faults := 0
		for _, k := range faultKinds {
			faults += a.events[k]
		}
		vals["bus.faults_per_op"] = float64(faults) / n
		vals["sig.verify_batches_per_op"] = float64(a.events[obs.EvVerifyBatch]) / n
		vals["sig.memo_hits_per_op"] = float64(c.memoHits) / n
		vals["pipeline.subrounds_per_op"] = float64(a.installments) / n
		vals["pipeline.batch_speedup_model"] = a.speedup / n
		vals["referee.convictions_per_op"] = float64(a.events[obs.EvConviction]) / n
		vals["netbus.datagrams_per_op"] = float64(c.datagrams) / n
		vals["netbus.resends_per_op"] = float64(c.resends) / n
		vals["netbus.decode_failures_per_op"] = float64(c.decodeFailures) / n
		if base := stats.Quantile(r.pooled().latVT, 0.5); base > 0 {
			vals["obs.trace_overhead_pct"] = (stats.Quantile(w.latVT, 0.5)/base - 1) * 100
		}
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}
