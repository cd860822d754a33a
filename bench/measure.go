package main

import (
	"crypto/ed25519"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dlsbl/internal/stats"
)

// On the 2-vCPU KVM guest of BASELINE.md, wall-clock numbers of the
// same binary move 20–50% within minutes, and sub-second bursts come
// and go, while a co-tenant loads the machine. The drift follows
// the time of a standard-library Ed25519 verification (the program's
// dominant primitive) but not that of a SHA-256 loop. So the gated time
// metrics are read off a "vt clock" instead of the wall clock: a sampler
// goroutine times one crypto/ed25519.Verify every refEvery while a
// window runs, and between two samples the clock advances one vt per
// (running median of five) verification time. An op's vt latency is the
// vt clock's advance from its start to its end. Raw milliseconds and
// ops/s are reported beside the vt numbers.
//
// The median hides the rare sample a hypervisor deschedules mid-way, but
// the program loses that stolen time all the same: runs with 5–14% CPU
// steal read 5–17% slower in vt. So the clock also runs slower by the
// share of CPU time /proc/stat counts as stolen over the window.

const refEvery = 5 * time.Millisecond

// nominalVTSeconds converts vt to seconds for setup_s, the one gated
// time reported in seconds: 55 µs, the verification time of the
// BASELINE.md host when no co-tenant loads it.
const nominalVTSeconds = 55e-6

var refInput = sync.OnceValue(func() (in struct{ pub, msg, sig []byte }) {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	in.pub = priv.Public().(ed25519.PublicKey)
	in.msg = make([]byte, 64)
	in.sig = ed25519.Sign(priv, in.msg)
	return in
})

// refSampler times one stdlib Ed25519 verification every refEvery until
// stopped.
type refSampler struct {
	stop, done chan struct{}
	at         []time.Time // sample start times; owned by the sampler goroutine until done closes
	us         []float64   // verification times in µs, likewise
	cpu        cpuTimes    // at the start
}

func startRef() *refSampler {
	s := &refSampler{stop: make(chan struct{}), done: make(chan struct{}), cpu: readCPUTimes()}
	in := refInput()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			begin := time.Now()
			if !ed25519.Verify(in.pub, in.msg, in.sig) {
				panic("bench: reference signature does not verify")
			}
			s.at = append(s.at, begin)
			s.us = append(s.us, float64(time.Since(begin))/float64(time.Microsecond))
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its vt clock.
func (s *refSampler) finish() *vtClock {
	close(s.stop)
	<-s.done
	return newVTClock(s.at, s.us, readCPUTimes().sub(s.cpu))
}

// cpuTimes are the aggregate CPU times of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{c.total - o.total, c.steal - o.steal}
}

// stealShare is the share of CPU time stolen, 0 when nothing was counted.
func (c cpuTimes) stealShare() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.steal) / float64(c.total)
}

// readCPUTimes reads the "cpu" line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq and steal (guest time is already in user).
// Where the file is missing or unreadable it returns zeros, so the vt
// clock runs without a steal correction.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += v
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// vtClock maps wall time to vt.
type vtClock struct {
	at    []time.Time
	us    []float64 // raw reference timings
	cum   []float64 // vt from at[0] to at[k], before the steal correction
	rate  []float64 // vt per µs from at[k] on, likewise
	cpu   cpuTimes  // CPU times over the sampled span
	scale float64   // 1 − the share of CPU time stolen over the span
}

func newVTClock(at []time.Time, us []float64, cpu cpuTimes) *vtClock {
	c := &vtClock{at: at, us: us, cum: make([]float64, len(at)), rate: make([]float64, len(at)),
		cpu: cpu, scale: 1 - cpu.stealShare()}
	for k := range at {
		lo, hi := max(k-2, 0), min(k+3, len(us))
		c.rate[k] = 1 / stats.Summarize(us[lo:hi]).Median
		if k > 0 {
			c.cum[k] = c.cum[k-1] + float64(at[k].Sub(at[k-1]))/float64(time.Microsecond)*c.rate[k-1]
		}
	}
	return c
}

// v is the vt clock's reading at t, extrapolated at the nearest rate
// outside the sampled span.
func (c *vtClock) v(t time.Time) float64 {
	k := max(sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })-1, 0)
	return c.scale * (c.cum[k] + float64(t.Sub(c.at[k]))/float64(time.Microsecond)*c.rate[k])
}

// window is one closed-loop measurement of a live workload.
type window struct {
	begin     time.Time
	elapsed   time.Duration
	elapsedVT float64 // elapsed in vt
	attempted int
	failed    int
	latMS     []float64 // ops that passed their check
	latVT     []float64 // the same latencies in vt
	clock     *vtClock
	failures  []string  // the first few failure reasons
	allocB    uint64    // runtime.MemStats.TotalAlloc delta
	layers    *layerAgg // traced windows only
	counters  counters  // traced windows only: counter deltas
}

func (w *window) ok() int { return w.attempted - w.failed }

// maxFailures bounds the failure reasons a window keeps.
const maxFailures = 5

// measure runs the workload's closed loop for d: each client claims
// the next op indices, sends one request and waits for its results
// before claiming again. Once d has passed, clients stop claiming at the
// next whole period of the mix; in-flight requests finish and count.
func (l *live) measure(d time.Duration, traced bool) *window {
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	stopAt := -1
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopAt < 0 && !time.Now().Before(deadline) {
			stopAt = (l.next + l.w.period - 1) / l.w.period * l.w.period
		}
		if stopAt >= 0 && l.next >= stopAt {
			return 0, false
		}
		i := l.next
		l.next += l.w.batch
		return i, true
	}
	var samples []sample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref := startRef()
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				got := l.t.do(i, traced)
				mu.Lock()
				samples = append(samples, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	win := &window{begin: begin, elapsed: end.Sub(begin), clock: ref.finish()}
	win.elapsedVT = win.clock.v(end) - win.clock.v(begin)
	runtime.ReadMemStats(&after)
	win.allocB = after.TotalAlloc - before.TotalAlloc
	if traced {
		win.layers = newLayerAgg()
	}
	win.record(samples)
	return win
}

// record folds the window's samples in.
func (w *window) record(samples []sample) {
	for _, s := range samples {
		w.attempted++
		if s.err != nil {
			w.failed++
			if len(w.failures) < maxFailures {
				w.failures = append(w.failures, s.err.Error())
			}
			continue
		}
		w.latMS = append(w.latMS, float64(s.lat)/float64(time.Millisecond))
		w.latVT = append(w.latVT, w.clock.v(s.start.Add(s.lat))-w.clock.v(s.start))
		if w.layers != nil {
			w.layers.add(s, w.begin)
		}
	}
}

// result accumulates one workload's windows.
type result struct {
	w          *workload
	setupWallS []float64 // set-up times on the wall clock
	setupVT    []float64 // the same set-ups on the vt clock
	segments   []*window
	traced     *window
	attempted  int
	failed     int
	failures   []string
	refUS      []float64 // every reference timing of the run
	cpu        cpuTimes  // CPU times over the set-ups and every window
}

// stealPct is the share of CPU time stolen while the workload ran.
func (r *result) stealPct() float64 { return 100 * r.cpu.stealShare() }

// add counts a window's ops; measured windows also feed the end-to-end
// metrics.
func (r *result) add(win *window, measured bool) {
	r.attempted += win.attempted
	r.failed += win.failed
	r.addClock(win.clock)
	for _, f := range win.failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
	if measured {
		r.segments = append(r.segments, win)
	}
}

// addClock keeps a clock's reference timings and CPU times.
func (r *result) addClock(c *vtClock) {
	r.refUS = append(r.refUS, c.us...)
	r.cpu.total += c.cpu.total
	r.cpu.steal += c.cpu.steal
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// pooled merges the measured segments into one window.
func (r *result) pooled() *window {
	p := &window{}
	for _, s := range r.segments {
		p.attempted += s.attempted
		p.failed += s.failed
		p.elapsed += s.elapsed
		p.elapsedVT += s.elapsedVT
		p.latMS = append(p.latMS, s.latMS...)
		p.latVT = append(p.latVT, s.latVT...)
		p.allocB += s.allocB
	}
	return p
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics names the metrics a user of the system sees, with
// their units; BENCHMARK.json lists the same set.
var endToEndMetrics = []struct{ name, unit string }{
	{"throughput_ops_kvt", "ops/kvt"},
	{"latency_p50_vt", "vt"},
	{"latency_p90_vt", "vt"},
	{"alloc_kb_per_op", "KiB"},
	{"setup_s", "s"},
}

// endToEnd reports throughput and latency as medians over the quieter
// half of the measured segments, so a burst of host contention that
// slows a minority of them does not move the result.
func (r *result) endToEnd() map[string]metric {
	p := r.pooled()
	tput, p50, p90 := perSegment(r.quiet())
	vals := map[string]float64{
		"throughput_ops_kvt": stats.Summarize(tput).Median,
		"latency_p50_vt":     stats.Summarize(p50).Median,
		"latency_p90_vt":     stats.Summarize(p90).Median,
		"alloc_kb_per_op":    float64(p.allocB) / 1024 / float64(max(p.ok(), 1)),
		"setup_s":            stats.Summarize(r.setupVT).Median * nominalVTSeconds,
	}
	out := make(map[string]metric, len(vals))
	for _, m := range endToEndMetrics {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// wallClock reports the raw end-to-end numbers the vt metrics derive
// from: throughput in ops/s and latency quantiles in ms.
func (r *result) wallClock() (tput, p50, p90, p99 float64) {
	p := r.pooled()
	return float64(p.ok()) / p.elapsed.Seconds(),
		stats.Quantile(p.latMS, 0.50), stats.Quantile(p.latMS, 0.90), stats.Quantile(p.latMS, 0.99)
}

// quiet returns the measured segments that lost no more CPU time to
// steal than the median segment did: at least half of them. The vt clock
// takes the stolen share off on average, but a descheduled vCPU also
// stalls whichever ops are in flight, so heavy steal still stretches the
// latency tail.
func (r *result) quiet() []*window {
	shares := make([]float64, len(r.segments))
	for i, s := range r.segments {
		shares[i] = s.clock.cpu.stealShare()
	}
	med := stats.Summarize(shares).Median
	var out []*window
	for i, s := range r.segments {
		if shares[i] <= med {
			out = append(out, s)
		}
	}
	return out
}

// perSegment gives each segment's throughput in ops/kvt and its p50 and
// p90 latency in vt.
func perSegment(segments []*window) (tput, p50, p90 []float64) {
	for _, s := range segments {
		tput = append(tput, 1000*float64(s.ok())/s.elapsedVT)
		p50 = append(p50, stats.Quantile(s.latVT, 0.50))
		p90 = append(p90, stats.Quantile(s.latVT, 0.90))
	}
	return tput, p50, p90
}

// segmentSpread is (max − min)/mean of the per-segment throughputs in
// ops/kvt.
func (r *result) segmentSpread() (tput []float64, spread float64) {
	tput, _, _ = perSegment(r.segments)
	st := stats.Summarize(tput)
	if st.Mean > 0 {
		spread = (st.Max - st.Min) / st.Mean
	}
	return tput, spread
}

// tail reports a latency quantile with the number of samples beyond it.
func tail(lat []float64, q float64) string {
	return fmt.Sprintf("%.3f ms (%d of %d samples beyond)", stats.Quantile(lat, q), int(float64(len(lat))*(1-q)), len(lat))
}
