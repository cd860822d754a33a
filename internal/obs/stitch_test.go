package obs

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// syntheticExchange appends one datagram exchange under the given origin
// to a driver trace and a node trace: the driver brackets it (net_tx at
// send, net_rx at reply) on the true clock, the node observes it in
// between on a clock skewed by skew microseconds (node wall = true wall
// - skew). jitter shifts the node's observation point within the
// bracket, modeling asymmetric network latency.
func syntheticExchange(driver, node *[]Record, origin uint64, t0, rtt, skew, jitter float64) {
	*driver = append(*driver,
		Record{Type: "event", Name: EvNetTx, Origin: origin, Wall: t0, From: "serve", To: "w1"},
		Record{Type: "event", Name: EvNetRx, Origin: origin, Wall: t0 + rtt, From: "w1", To: "serve"},
	)
	mid := t0 + rtt/2 + jitter
	*node = append(*node,
		Record{Type: "event", Name: EvNetRx, Origin: origin, Wall: mid - skew, From: "serve", To: "P1"},
		Record{Type: "event", Name: EvNetTx, Origin: origin, Wall: mid + 20 - skew, From: "w1", To: "serve"},
	)
}

func TestEstimateOffsetRecoversSyntheticSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		skew := (rng.Float64() - 0.5) * 2e9 // up to ±1000 s of clock skew
		var driver, node []Record
		t0 := 1e12
		for i := 0; i < 20; i++ {
			rtt := 200 + 400*rng.Float64()
			jitter := (rng.Float64() - 0.5) * 0.2 * rtt
			syntheticExchange(&driver, &node, uint64(i+1), t0, rtt, skew, jitter)
			t0 += 1000 + 500*rng.Float64()
		}
		got, ok := EstimateOffset(driver, node)
		if !ok {
			t.Fatalf("trial %d: no shared origins", trial)
		}
		// The estimate can only be off by the latency asymmetry, which the
		// jitter bounds well below 100 µs here — vanishing next to the skew.
		if math.Abs(got-skew) > 100 {
			t.Fatalf("trial %d: estimated offset %.1f µs, true skew %.1f µs", trial, got, skew)
		}
	}
}

func TestEstimateOffsetNoSharedOrigins(t *testing.T) {
	ref := []Record{{Type: "event", Name: EvNetTx, Origin: 1, Wall: 100}}
	proc := []Record{{Type: "event", Name: EvNetRx, Origin: 2, Wall: 900}}
	if off, ok := EstimateOffset(ref, proc); ok || off != 0 {
		t.Fatalf("EstimateOffset = (%v, %v), want (0, false)", off, ok)
	}
}

// chromeDoc is the subset of the Chrome trace-event format the merge
// tests inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TS   float64        `json:"ts"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// seededThreeProcessTraces builds the deterministic driver + two-node
// record set the merge tests run on: two exchanges per node with fixed
// skews, plus a driver phase span and a round-attributed node event.
func seededThreeProcessTraces() []ProcessTrace {
	const skew1, skew2 = 5e6, -3e6
	var driver, node1, node2 []Record
	driver = append(driver, Record{Type: "begin", Name: PhaseBidding, Round: "s1:r1", Wall: 1e12 - 50})
	syntheticExchange(&driver, &node1, 101, 1e12, 400, skew1, 10)
	syntheticExchange(&driver, &node2, 201, 1e12+5000, 500, skew2, -15)
	syntheticExchange(&driver, &node1, 102, 1e12+10000, 300, skew1, 5)
	syntheticExchange(&driver, &node2, 202, 1e12+15000, 600, skew2, 0)
	driver = append(driver, Record{Type: "end", Name: PhaseBidding, Round: "s1:r1", Wall: 1e12 + 16000})
	node1 = append(node1, Record{
		Type: "event", Name: EvDedupHit, From: "serve", To: "P1", Msg: "dls/bid",
		Round: "s1:r1", Wall: 1e12 + 10400 - skew1,
	})
	return []ProcessTrace{
		{Process: "serve", Records: driver},
		{Process: "w1", Records: node1},
		{Process: "w2", Records: node2},
	}
}

func TestMergeChromeTraceThreeProcesses(t *testing.T) {
	out, err := MergeChromeTrace(seededThreeProcessTraces())
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	// One track group (pid) per process, named and offset-annotated.
	offsets := map[int]float64{}
	names := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Ph == "M" {
			names[ev.PID], _ = ev.Args["name"].(string)
			offsets[ev.PID], _ = ev.Args["clock_offset_us"].(float64)
		}
	}
	if len(names) != 3 || names[1] != "serve" || names[2] != "w1" || names[3] != "w2" {
		t.Fatalf("process tracks = %v, want pids 1..3 = serve, w1, w2", names)
	}
	if math.Abs(offsets[2]-5e6) > 100 || math.Abs(offsets[3]+3e6) > 100 {
		t.Fatalf("clock offsets = %v, want ≈ +5e6 (w1) and ≈ -3e6 (w2)", offsets)
	}

	// Timestamps live on one merged clock: non-negative everywhere, and
	// the node events land inside the driver's bracket despite the skew.
	minTS, maxTS := math.Inf(1), math.Inf(-1)
	rounds := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < 0 {
			t.Fatalf("event %q (pid %d) has negative merged timestamp %v", ev.Name, ev.PID, ev.TS)
		}
		if ev.TS < minTS {
			minTS = ev.TS
		}
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		if r, ok := ev.Args["round"].(string); ok && r == "s1:r1" {
			rounds++
		}
	}
	// All activity spans ~16 ms of true time; megasecond skews surviving
	// into the merge would blow this apart.
	if maxTS-minTS > 20000 {
		t.Fatalf("merged span is %.0f µs wide, want < 20000 (clock alignment failed)", maxTS-minTS)
	}
	if rounds == 0 {
		t.Fatal("no merged event carries the round attribution")
	}
}

func TestMergeChromeTraceMonotonicPerProcess(t *testing.T) {
	procs := seededThreeProcessTraces()
	out, err := MergeChromeTrace(procs)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	last := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "i" {
			continue
		}
		if ev.TS < last[ev.PID] {
			t.Fatalf("pid %d event %q at %v precedes an earlier event at %v", ev.PID, ev.Name, ev.TS, last[ev.PID])
		}
		last[ev.PID] = ev.TS
	}
}

func TestMergeChromeTraceEmpty(t *testing.T) {
	if _, err := MergeChromeTrace(nil); err == nil {
		t.Fatal("merging zero processes should fail")
	}
}

// TestChromeTraceIsTheOneProcessMerge: the single-process export is
// MergeChromeTrace over one process, byte for byte. It keeps the
// records' own relative clock, carries no stitching metadata, and keeps
// the netbus origin arg that a node's own trace needs to be matched
// against the driver's.
func TestChromeTraceIsTheOneProcessMerge(t *testing.T) {
	recs := seededThreeProcessTraces()[1].Records
	for i := range recs {
		recs[i].TS = float64(10 * i)
	}
	single, err := ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeChromeTrace([]ProcessTrace{{Process: "dls-bl-ncp", Records: recs}})
	if err != nil {
		t.Fatal(err)
	}
	if string(single) != string(merged) {
		t.Fatal("ChromeTrace differs from the one-process MergeChromeTrace")
	}
	var doc chromeDoc
	if err := json.Unmarshal(single, &doc); err != nil {
		t.Fatal(err)
	}
	origins := 0
	for _, ev := range doc.TraceEvents {
		if _, ok := ev.Args["clock_offset_us"]; ok {
			t.Fatalf("single-process trace carries stitching metadata: %v", ev.Args)
		}
		if ev.Ph != "i" {
			continue
		}
		if _, ok := ev.Args["origin"]; ok {
			origins++
		}
		if ev.TS >= float64(10*len(recs)) {
			t.Fatalf("event %q at %v is off the records' own clock", ev.Name, ev.TS)
		}
	}
	if origins != len(recs)-1 {
		t.Fatalf("%d events carry an origin arg, want %d", origins, len(recs)-1)
	}
}
