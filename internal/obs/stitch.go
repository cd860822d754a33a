package obs

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Cross-process trace stitching. A multi-process netbus deployment
// produces one trace per OS process — the driver's recorder plus one
// telemetry buffer per dls-node — each timestamped by its own wall
// clock. The stitcher aligns them: every datagram exchange appears in
// two traces under the same Origin (the frame nonce), the driver
// bracketing it (net_tx before the socket write, net_rx after the
// reply) and the node observing it in between (its net_rx/net_tx
// pair). The node's events therefore happened, in driver time, inside
// the driver's bracket — the classic NTP argument — and the midpoint
// difference estimates the clock offset. Offsets feed one merged Chrome
// trace with a track group (pid) per process.

// ProcessTrace is one process's contribution to a merged trace: the
// process name (peer-table node name) and its records in emission
// order.
type ProcessTrace struct {
	Process string
	Records []Record
}

// originTimes collects, per Origin key, the wall-clock bracket a trace
// saw: first transmit and last receive (driver side), or first receive
// and last transmit (node side) — either way, the earliest and latest
// wall stamps the exchange produced in that process.
func originTimes(recs []Record) map[uint64][2]float64 {
	out := make(map[uint64][2]float64)
	for _, rec := range recs {
		if rec.Type != "event" || rec.Origin == 0 || rec.Wall == 0 {
			continue
		}
		if rec.Name != EvNetTx && rec.Name != EvNetRx {
			continue
		}
		t, ok := out[rec.Origin]
		if !ok {
			out[rec.Origin] = [2]float64{rec.Wall, rec.Wall}
			continue
		}
		if rec.Wall < t[0] {
			t[0] = rec.Wall
		}
		if rec.Wall > t[1] {
			t[1] = rec.Wall
		}
		out[rec.Origin] = t
	}
	return out
}

// EstimateOffset estimates the wall-clock offset, in microseconds, to
// add to proc's timestamps to express them on ref's clock. It matches
// datagram exchanges by Origin, takes the midpoint difference of each
// matched pair's bracket, and returns the median — robust against a
// few asymmetric-latency outliers. ok is false when the traces share no
// origin (no estimate is possible; treat the offset as zero).
func EstimateOffset(ref, proc []Record) (offset float64, ok bool) {
	rt, pt := originTimes(ref), originTimes(proc)
	var samples []float64
	for origin, r := range rt {
		p, shared := pt[origin]
		if !shared {
			continue
		}
		samples = append(samples, (r[0]+r[1])/2-(p[0]+p[1])/2)
	}
	if len(samples) == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], true
}

// MergeChromeTrace stitches per-process traces into one Chrome
// trace-event document: one pid per process (the first trace is the
// reference clock), clock offsets estimated per process and recorded in
// the process metadata, timestamps mapped onto the reference clock and
// clamped monotonic within each process (an offset estimate can never
// make a process's own record stream run backwards). Spans render on
// each process's "protocol" track; events render per endpoint. A single
// process has nothing to stitch: its records keep their own relative
// clock and its metadata only its name (ChromeTrace is that case).
func MergeChromeTrace(procs []ProcessTrace) ([]byte, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("obs: nothing to stitch")
	}
	tr := chromeTrace{DisplayTimeUnit: "ms"}

	// Offsets first: every mapped wall stamp is needed to pick the
	// merged time origin.
	offsets := make([]float64, len(procs))
	for i := 1; i < len(procs); i++ {
		offsets[i], _ = EstimateOffset(procs[0].Records, procs[i].Records)
	}
	base := 0.0
	haveBase := false
	for i, p := range procs {
		for _, rec := range p.Records {
			if rec.Wall == 0 {
				continue
			}
			w := rec.Wall + offsets[i]
			if !haveBase || w < base {
				base, haveBase = w, true
			}
		}
	}

	stitched := len(procs) > 1
	for i, p := range procs {
		pid := i + 1
		meta := map[string]any{"name": p.Process}
		clock := func(rec Record) float64 { return rec.TS }
		if stitched {
			meta["role"] = "node"
			if i == 0 {
				meta["role"] = "driver (reference clock)"
			}
			meta["clock_offset_us"] = offsets[i]
			clock = wallClock(offsets[i], base)
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid, Args: meta,
		})
		if err := appendProcessEvents(&tr, pid, p.Records, clock); err != nil {
			return nil, fmt.Errorf("obs: rendering process %q: %w", p.Process, err)
		}
	}
	return json.MarshalIndent(tr, "", " ")
}

// appendProcessEvents renders one process's records under the given
// pid, timing each record by clock. Track assignment: tid 0 is the
// protocol (phase slices and endpoint-less events, the capped recorder's
// truncated marker among them); each bus endpoint gets its own track in
// order of first appearance.
func appendProcessEvents(tr *chromeTrace, pid int, recs []Record, clock func(Record) float64) error {
	tids := map[string]int{"": 0}
	tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
		Name: "thread_name", Ph: "M", PID: pid, TID: 0,
		Args: map[string]any{"name": "protocol"},
	})
	tidFor := func(endpoint string) int {
		if id, ok := tids[endpoint]; ok {
			return id
		}
		id := len(tids)
		tids[endpoint] = id
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: id,
			Args: map[string]any{"name": endpoint},
		})
		return id
	}

	type open struct {
		rec Record
		ts  float64
	}
	var stack []open
	var lastTS float64
	closeSpan := func(o open, endTS float64) {
		dur := endTS - o.ts
		if dur < 0 {
			dur = 0
		}
		args := map[string]any{}
		if o.rec.Round != "" {
			args["round"] = o.rec.Round
		}
		if o.rec.Epoch != "" {
			args["epoch"] = o.rec.Epoch
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: o.rec.Name, Cat: "phase", Ph: "X",
			TS: o.ts, Dur: &dur, PID: pid, TID: 0, Args: args,
		})
	}
	for _, rec := range recs {
		ts := clock(rec)
		if ts > lastTS {
			lastTS = ts
		}
		switch rec.Type {
		case "begin":
			stack = append(stack, open{rec: rec, ts: ts})
		case "end":
			for j := len(stack) - 1; j >= 0; j-- {
				if stack[j].rec.Name == rec.Name {
					closeSpan(stack[j], ts)
					stack = append(stack[:j], stack[j+1:]...)
					break
				}
			}
		case "event", "truncated":
			endpoint := rec.To
			if endpoint == "" {
				endpoint = rec.From
			}
			args := map[string]any{}
			for k, v := range map[string]string{
				"from": rec.From, "to": rec.To, "msg": rec.Msg,
				"round": rec.Round, "phase": rec.Phase, "detail": rec.Detail,
			} {
				if v != "" {
					args[k] = v
				}
			}
			if rec.Origin != 0 {
				args["origin"] = rec.Origin
			}
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: rec.Name, Cat: "event", Ph: "i", S: "t",
				TS: ts, PID: pid, TID: tidFor(endpoint), Args: args,
			})
		case "clock":
			// Alignment metadata for the offset estimate; nothing to draw.
		default:
			return fmt.Errorf("unknown record type %q (seq %d)", rec.Type, rec.Seq)
		}
	}
	// Unclosed spans (a run that errored out mid-phase) close at the last
	// observed timestamp, innermost first.
	for j := len(stack) - 1; j >= 0; j-- {
		closeSpan(stack[j], lastTS)
	}
	return nil
}

// wallClock maps one stitched process's records onto the merged clock:
// the wall stamp plus the process's offset, less the merged origin,
// clamped monotonic (offsets never reorder a process against itself). A
// record without a wall stamp keeps its relative TS.
func wallClock(offset, base float64) func(Record) float64 {
	last := 0.0
	return func(rec Record) float64 {
		t := rec.TS
		if rec.Wall != 0 {
			t = rec.Wall + offset - base
		}
		if t < last {
			t = last
		}
		last = t
		return t
	}
}
