package service

import (
	"fmt"
	"io"

	"dlsbl/internal/obs"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format 0.0.4 (see obs.Exposition), the `GET /metrics?format=prometheus`
// body. Counters are cumulative since server start; the latency
// quantiles are over the most recent ringCap jobs (pre-aggregated
// summaries, not histograms, because the service already keeps exact
// reservoirs).
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	x := &obs.Exposition{}

	x.Family("dlsbl_jobs_total", "Jobs by terminal disposition since server start.", "counter")
	x.Sample("dlsbl_jobs_total", `state="submitted"`, float64(snap.Jobs.Submitted))
	x.Sample("dlsbl_jobs_total", `state="completed"`, float64(snap.Jobs.Completed))
	x.Sample("dlsbl_jobs_total", `state="failed"`, float64(snap.Jobs.Failed))
	x.Sample("dlsbl_jobs_total", `state="rejected"`, float64(snap.Jobs.Rejected))
	x.Family("dlsbl_job_panics_total", "Jobs whose round panicked; each failed with an internal error and its pool dropped its bid cache.", "counter")
	x.Sample("dlsbl_job_panics_total", "", float64(snap.Jobs.Panics))

	x.Family("dlsbl_jobs_queued", "Jobs admitted and not yet picked up by a pool runner.", "gauge")
	x.Sample("dlsbl_jobs_queued", "", float64(snap.Jobs.Queued))
	x.Family("dlsbl_jobs_running", "Protocol runs executing right now.", "gauge")
	x.Sample("dlsbl_jobs_running", "", float64(snap.Jobs.Running))
	x.Family("dlsbl_jobs_running_peak", "High-water mark of concurrent protocol runs.", "gauge")
	x.Sample("dlsbl_jobs_running_peak", "", float64(snap.Jobs.PeakRun))

	x.Family("dlsbl_protocol_rounds_total", "Protocol rounds played (completed or terminated).", "counter")
	x.Sample("dlsbl_protocol_rounds_total", "", float64(snap.Protocol.Rounds))
	x.Family("dlsbl_protocol_evictions_total", "Processors evicted for unreachability.", "counter")
	x.Sample("dlsbl_protocol_evictions_total", "", float64(snap.Protocol.Evictions))
	x.Family("dlsbl_protocol_fined_total", "Processor fines levied by the referee.", "counter")
	x.Sample("dlsbl_protocol_fined_total", "", float64(snap.Protocol.FinedProcessors))
	x.Family("dlsbl_protocol_retransmits_total", "Transport retransmissions across all rounds.", "counter")
	x.Sample("dlsbl_protocol_retransmits_total", "", float64(snap.Protocol.Retransmits))

	x.Family("dlsbl_multiload_rebids_total", "Re-bids forced by bid-profile changes, across all pools.", "counter")
	x.Sample("dlsbl_multiload_rebids_total", "", float64(snap.Multiload.Rebids))
	x.Family("dlsbl_multiload_saved_total", "Bus traffic the reused bids avoided, across all pools.", "counter")
	x.Sample("dlsbl_multiload_saved_total", `unit="messages"`, float64(snap.Multiload.MessagesSaved))
	x.Sample("dlsbl_multiload_saved_total", `unit="deliveries"`, float64(snap.Multiload.DeliveriesSaved))
	x.Sample("dlsbl_multiload_saved_total", `unit="units"`, float64(snap.Multiload.UnitsSaved))

	// quantiles writes a summary's p50/p90/p99 under the given labels.
	quantiles := func(name, labels string, s LatencySummary) {
		x.Sample(name, labels+`,quantile="0.5"`, s.P50)
		x.Sample(name, labels+`,quantile="0.9"`, s.P90)
		x.Sample(name, labels+`,quantile="0.99"`, s.P99)
	}
	x.Family("dlsbl_latency_ms", "Job latency quantiles over the most recent jobs, in milliseconds.", "gauge")
	quantiles("dlsbl_latency_ms", `stage="queue_wait"`, snap.LatencyMS.QueueWait)
	quantiles("dlsbl_latency_ms", `stage="run"`, snap.LatencyMS.Run)

	// perPool writes a family with one sample per pool.
	perPool := func(name, help, typ string, v func(PoolSnapshot) float64) {
		x.Family(name, help, typ)
		for _, p := range snap.Pools {
			x.Sample(name, fmt.Sprintf("pool=%q", p.Name), v(p))
		}
	}
	perPool("dlsbl_pool_rounds", "Rounds a pool has played.", "gauge",
		func(p PoolSnapshot) float64 { return float64(p.Rounds) })
	perPool("dlsbl_pool_queued", "Jobs waiting in a pool's FIFO.", "gauge",
		func(p PoolSnapshot) float64 { return float64(p.Queued) })
	perPool("dlsbl_pool_banned", "Processors a pool has banned.", "gauge",
		func(p PoolSnapshot) float64 { return float64(len(p.Banned)) })
	perPool("dlsbl_pool_bus_deliveries_total", "Receiver-side bus deliveries a pool's rounds cost (the Θ(m²) term).", "counter",
		func(p PoolSnapshot) float64 { return float64(p.Traffic.Deliveries) })
	perPool("dlsbl_pool_sentinel_violations", "Economic-invariant violations the pool's sentinel has latched; any nonzero value is an incident, not adversary noise.", "gauge",
		func(p PoolSnapshot) float64 { return float64(len(p.SentinelViolations)) })

	x.Family("dlsbl_pool_phase_ms", "Per-phase wall-clock duration quantiles over a pool's recent rounds.", "gauge")
	for _, p := range snap.Pools {
		for _, phase := range sortedKeys(p.PhaseMS) {
			quantiles("dlsbl_pool_phase_ms", fmt.Sprintf(`pool=%q,phase=%q`, p.Name, phase), p.PhaseMS[phase])
		}
	}

	x.Family("dlsbl_pool_events_total", "Bus, transport and protocol events by kind (obs event kinds).", "counter")
	for _, p := range snap.Pools {
		for _, kind := range sortedKeys(p.BusEvents) {
			x.Sample("dlsbl_pool_events_total",
				fmt.Sprintf(`pool=%q,kind=%q`, p.Name, kind), float64(p.BusEvents[kind]))
		}
	}

	x.Family("dlsbl_build_info", "Build metadata; the value is always 1.", "gauge")
	x.Sample("dlsbl_build_info", fmt.Sprintf(
		`go_version=%q,module=%q,version=%q,vcs_revision=%q,vcs_modified="%t"`,
		snap.Build.GoVersion, snap.Build.Module, snap.Build.Version,
		snap.Build.VCSRevision, snap.Build.VCSModified), 1)

	_, err := x.WriteTo(w)
	return err
}
