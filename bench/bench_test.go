package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"testing"
	"time"
)

// smokeConfig measures each workload for about a second, half untraced
// and half traced, with every op checked.
func smokeConfig() runConfig {
	return runConfig{
		seed:         42,
		setups:       2,
		warmup:       100 * time.Millisecond,
		seconds:      500 * time.Millisecond,
		segments:     1,
		traceSeconds: 500 * time.Millisecond,
	}
}

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// requireUDP skips where loopback UDP sockets are unavailable.
func requireUDP(t *testing.T) {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

func runOnce(t *testing.T, w *workload) *result {
	t.Helper()
	res, err := runWorkloads(smokeConfig(), []*workload{w})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	r := res[0]
	if !r.correct() {
		t.Fatalf("%s: %d of %d ops failed their checks: %v", w.name, r.failed, r.attempted, r.failures)
	}
	return r
}

// checkMetrics requires exactly the named metrics, each finite and with
// its unit.
func checkMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload for about a second with the correctness
// gate on, checks that every metric BENCHMARK.json names is emitted with
// its unit, that the latency breakdown sums to the mean latency, and
// that the exact counts repeat across two same-seed runs.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, ok := workloadByName(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the benchmark", sw.Name)
		}
	}
	probes, err := runProbes(newInstance(42), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]*result{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.name == "netbus-round" {
				requireUDP(t)
			}
			r := runOnce(t, w)
			first[w.name] = r
			checkMetrics(t, r.endToEnd(), spec.EndToEnd)
			layers := r.perLayer(probes)
			checkMetrics(t, layers, spec.PerLayer)

			b := r.traced.layers.breakdown()
			if b.LatencyMS <= 0 || math.Abs(b.SumMS-b.LatencyMS) > 1e-9*b.LatencyMS {
				t.Errorf("breakdown sums to %v ms, mean latency %v ms", b.SumMS, b.LatencyMS)
			}
			wantConvictions := 0.0
			if w.name == "churn-http" {
				wantConvictions = 0.125
			}
			if got := layers["referee.convictions_per_op"].Value; got != wantConvictions {
				t.Errorf("referee.convictions_per_op = %v, want %v", got, wantConvictions)
			}
		})
	}
	for name, metricName := range map[string]string{
		"cold-round": "bus.deliveries_per_op",
		"churn-http": "referee.convictions_per_op",
	} {
		w, _ := workloadByName(name)
		a := first[name]
		if a == nil {
			continue
		}
		b := runOnce(t, w)
		x, y := a.perLayer(nil)[metricName].Value, b.perLayer(nil)[metricName].Value
		if x != y || x == 0 {
			t.Errorf("%s %s = %v then %v across two same-seed runs", name, metricName, x, y)
		}
	}
}
