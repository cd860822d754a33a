package protocol

import (
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/obs"
)

// TestTracerNilParity is the tentpole's safety contract: the tracer
// only observes. Over a randomized sweep of deviant and faulty
// configurations, a run with a Recorder attached must produce an
// Outcome — payments, fines, transcript hash chain, eviction list,
// everything — bit-identical to the same run with Tracer nil, and a
// failing run must fail with the same error.
func TestTracerNilParity(t *testing.T) {
	catalog := agent.Catalog()
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(3)
		w := make([]float64, m)
		for i := range w {
			w[i] = 0.5 + 2.5*rng.Float64()
		}
		cfg := Config{
			Network: dlt.NCPFE,
			Z:       0.05 + 0.4*rng.Float64(),
			TrueW:   w,
			Seed:    int64(trial),
		}
		if rng.Intn(2) == 0 {
			cfg.Network = dlt.NCPNFE
		}
		// Roughly half the trials inject a deviant; P1 originates under
		// NCP-FE, so deviants land on later indices to keep most runs
		// adjudicable rather than erroring out at the source.
		if rng.Intn(2) == 0 {
			cfg = withBehavior(cfg, 1+rng.Intn(m-1), catalog[names[rng.Intn(len(names))]])
		}
		// A third of the trials run over a lossy bus.
		if rng.Intn(3) == 0 {
			cfg.Faults = &bus.FaultPlan{
				Seed:      int64(trial) + 1000,
				Drop:      0.2 * rng.Float64(),
				Duplicate: 0.2 * rng.Float64(),
				Corrupt:   0.1 * rng.Float64(),
			}
			cfg.Retry = RetryPolicy{MaxAttempts: 6}
		}

		plain, plainErr := Run(cfg)
		traced := cfg
		traced.Tracer = obs.NewRecorder()
		got, gotErr := Run(traced)

		if (plainErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: nil-tracer err=%v, traced err=%v", trial, plainErr, gotErr)
		}
		if plainErr != nil {
			if plainErr.Error() != gotErr.Error() {
				t.Fatalf("trial %d: error text diverged:\n  nil:    %v\n  traced: %v", trial, plainErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(plain, got) {
			t.Fatalf("trial %d: traced outcome diverged from nil-tracer outcome\nconfig: %+v", trial, cfg)
		}
	}
}

// TestChromeTraceFaultyMultiload drives a BidSession through an
// eviction, the evictee's return (a full exchange) and a reuse round
// under one Recorder, then checks the record stream and its Chrome
// rendering structurally: spans nest and their timestamps never run
// backwards, every eviction and bid-reuse event carries its round ID,
// and the exported JSON parses with only non-negative slice durations.
func TestChromeTraceFaultyMultiload(t *testing.T) {
	s := sessionBase(t, 3, 2, 4, 5)
	rec := obs.NewRecorder()
	out, err := s.Run(JobConfig{Seed: 5, NBlocks: 64, Tracer: rec,
		Faults: &bus.FaultPlan{Seed: 1, Unresponsive: []string{"P3"}},
		Retry:  RetryPolicy{MaxAttempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Evicted[2] {
		t.Fatalf("P3 not evicted: %v", out.Evicted)
	}
	back, err := s.Run(JobConfig{Seed: 6, NBlocks: 64, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if back.BidReused || !back.Participated[2] {
		t.Fatalf("second round: BidReused=%v P3 participated=%v, want a full exchange with P3 back",
			back.BidReused, back.Participated[2])
	}
	reused, err := s.Run(JobConfig{Seed: 7, NBlocks: 64, Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !reused.BidReused {
		t.Fatal("third round did not reuse the cached bids")
	}

	recs := rec.Records()
	if len(recs) == 0 {
		t.Fatal("recorder captured nothing")
	}
	var stack []string
	lastTS := 0.0
	evictions, reuses := 0, 0
	for i, r := range recs {
		if r.TS < lastTS {
			t.Fatalf("record %d: timestamp ran backwards (%v after %v)", i, r.TS, lastTS)
		}
		lastTS = r.TS
		switch r.Type {
		case "begin":
			stack = append(stack, r.Name)
		case "end":
			if len(stack) == 0 || stack[len(stack)-1] != r.Name {
				t.Fatalf("record %d: end %q does not close the innermost span (stack %v)", i, r.Name, stack)
			}
			stack = stack[:len(stack)-1]
		case "event":
			switch r.Name {
			case obs.EvEviction:
				evictions++
				if r.Round == "" {
					t.Fatalf("record %d: eviction event carries no round ID", i)
				}
			case obs.EvBidReused:
				reuses++
				if r.Round == "" {
					t.Fatalf("record %d: bid_reused event carries no round ID", i)
				}
			}
		default:
			t.Fatalf("record %d: unknown type %q", i, r.Type)
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed spans at end of stream: %v", stack)
	}
	if evictions == 0 || reuses == 0 {
		t.Fatalf("want both eviction and bid_reused events, got %d evictions, %d reuses", evictions, reuses)
	}

	raw, err := obs.ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			PID  int     `json:"pid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	slices, instants := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			slices++
			if e.Dur < 0 {
				t.Fatalf("slice %q has negative duration %v", e.Name, e.Dur)
			}
		case "i":
			instants++
		case "M":
		default:
			t.Fatalf("unexpected phase type %q", e.Ph)
		}
		if e.PID != 1 {
			t.Fatalf("event %q on pid %d, want 1", e.Name, e.PID)
		}
	}
	// Three rounds × five phases; the reuse round's Bidding span is present
	// (it wraps the cache installation) even though no bids crossed the bus.
	if slices != 15 {
		t.Fatalf("want 15 phase slices (3 rounds × 5 phases), got %d", slices)
	}
	if instants == 0 {
		t.Fatal("no instant events in the Chrome trace")
	}
}

// BenchmarkTracerOverhead pits the nil-tracer path (the default every
// production run without -trace takes) against a streaming NDJSON
// tracer, over a full honest protocol run. The nil path must stay
// within noise of the pre-tracer baseline: every emission site guards
// with a nil check, so the instrumented build adds one predictable
// branch per site and nothing else.
func BenchmarkTracerOverhead(b *testing.B) {
	base := honestConfig(dlt.NCPFE)
	b.Run("nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-discard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := base
			cfg.Tracer = obs.NewStream(io.Discard)
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
