package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dlsbl/internal/dlt"
	"dlsbl/internal/protocol"
)

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPJobSpecCannotSizeMemory: no field of a job spec sizes a
// per-round buffer beyond a fixed cap. A "blocksize" field (no longer
// part of JobSpec, so the decoder ignores it) once sized a synthetic data
// set of nblocks × blocksize bytes that every round built and nothing
// read; this 60-byte spec asked for 512 MiB. nblocks now sizes only the
// O(m) block partition, so the job completes within a small allocation
// budget. "installments" sizes the pipelined scheduler's per-load
// fraction and outcome slices before the first sub-round runs, so a count
// of 1e9 asked for about 16 GB; admission rejects any count above
// MaxInstallments with a 400 and a reason, before a slice is made.
func TestHTTPJobSpecCannotSizeMemory(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"big","w":[1,1.5,2,2.5]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %s", resp.Status)
	}
	resp.Body.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp = postJSON(t, ts.URL+"/v1/jobs",
		`{"pool":"big","jobs":[{"z":0.2,"seed":1,"nblocks":1024,"blocksize":262144}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	var res JobResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"event":"result"`) {
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if !res.Completed || res.Error != "" {
		t.Fatalf("job did not complete: %+v", res)
	}
	const budget = 32 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= budget {
		t.Fatalf("one job allocated %d MiB, want < %d MiB", grew>>20, budget>>20)
	}

	runtime.ReadMemStats(&before)
	resp = postJSON(t, ts.URL+"/v1/jobs",
		`{"pool":"big","jobs":[{"z":0.2,"seed":1,"installments":1000000000}]}`)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "installments must be in") {
		t.Fatalf("installments 1e9: %s %q, want 400 with a reason", resp.Status, body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= budget {
		t.Fatalf("a rejected submission allocated %d MiB, want < %d MiB", grew>>20, budget>>20)
	}
}

// TestHTTPRoundTrip drives the full API surface over a real listener:
// pool creation, an NDJSON job stream with artifacts, pool snapshots and
// the metrics endpoint.
func TestHTTPRoundTrip(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"alpha","network":"ncp-fe","w":[1,1.5,2,2.5],"policy":"ban-deviants"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %s", resp.Status)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/v1/jobs",
		`{"pool":"alpha","artifacts":["timeline","transcript"],"jobs":[{"z":0.2,"seed":1},{"z":0.2,"seed":2,"behaviors":["","payment-cheat-2x"]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var events []string
	var results []JobResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var probe struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, probe.Event)
		if probe.Event == "result" {
			var res JobResult
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	resp.Body.Close()
	if want := []string{"accepted", "result", "result", "done"}; strings.Join(events, ",") != strings.Join(want, ",") {
		t.Fatalf("event stream = %v, want %v", events, want)
	}
	if results[0].Round != 0 || results[1].Round != 1 {
		t.Fatalf("rounds = %d,%d; stream must preserve submission order", results[0].Round, results[1].Round)
	}
	if results[0].Timeline == nil || len(results[0].Transcript) == 0 {
		t.Fatal("requested artifacts missing from result")
	}
	if results[1].Fines[1] == 0 || len(results[1].Banned) != 1 {
		t.Fatalf("cheat round: fines=%v banned=%v", results[1].Fines, results[1].Banned)
	}

	// Pool snapshot reflects both rounds and the warm keyring.
	resp, err := http.Get(ts.URL + "/v1/pools/alpha")
	if err != nil {
		t.Fatal(err)
	}
	var snap PoolSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Rounds != 2 || snap.WarmKeys != 5 {
		t.Fatalf("snapshot rounds=%d warm_keys=%d, want 2 and 5", snap.Rounds, snap.WarmKeys)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs.Completed != 2 || m.LatencyMS.Run.N != 2 || m.Protocol.FinedProcessors != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestHTTPStatusCodes maps the admission errors onto 404/429/400/503.
func TestHTTPStatusCodes(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookBeforeRun = func(p *Pool, task *Task) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.CreatePool(PoolSpec{Name: "p", TrueW: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}

	check := func(body string, want int) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/jobs", body)
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s → %s, want %d", body, resp.Status, want)
		}
	}
	check(`{"pool":"ghost","jobs":[{"z":0.2,"seed":1}]}`, http.StatusNotFound)
	check(`{"pool":"p","jobs":[{"z":0.2,"seed":1,"behaviors":["nope"]}]}`, http.StatusBadRequest)
	check(`{"pool":"p"`, http.StatusBadRequest)

	// Park the runner, fill the queue, then overflow → 429.
	go func() {
		resp := postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":1}]}`)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	<-started
	if _, err := srv.Submit("p", []JobSpec{{Z: 0.2, Seed: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":3}]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow → %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	close(release)
	srv.Close()

	resp = postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":4}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown → %s, want 503", resp.Status)
	}
	resp.Body.Close()
}

// TestHTTPCreatePoolRejectsUnservableSpecs: a pool whose rates no round
// can serve (a rate that is not a positive finite number) or that has
// more than MaxPoolSize members is refused at creation with a 400 and a
// reason, instead of being created and failing every job it is sent. A
// pool of exactly MaxPoolSize members is created.
func TestHTTPCreatePoolRejectsUnservableSpecs(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rates := func(m int) string {
		w := make([]string, m)
		for i := range w {
			w[i] = "1"
		}
		return "[" + strings.Join(w, ",") + "]"
	}
	for _, c := range []struct{ w, reason string }{
		{`[1,-1]`, "invalid processing time w[1]=-1"},
		{`[1,0]`, "invalid processing time w[1]=0"},
		{rates(MaxPoolSize + 1), fmt.Sprintf("at most %d processors, got %d", MaxPoolSize, MaxPoolSize+1)},
	} {
		resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"bad","w":`+c.w+`}`)
		var body struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, c.reason) {
			t.Errorf("w=%.40s: %s %q, want 400 naming %q", c.w, resp.Status, body.Error, c.reason)
		}
	}
	if _, ok := srv.Pool("bad"); ok {
		t.Fatal("a refused pool was registered")
	}
	// +Inf has no JSON spelling; the library entry point refuses it too.
	if _, err := srv.CreatePool(PoolSpec{Name: "inf", TrueW: []float64{1, math.Inf(1)}}); err == nil {
		t.Error("CreatePool accepted an infinite rate")
	}

	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"widest","w":`+rates(MaxPoolSize)+`}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("pool of %d members: %s, want 201", MaxPoolSize, resp.Status)
	}
}

// TestHTTPBodyLimit: a body over maxBodyBytes gets 413 with a reason on
// both POST routes and admits nothing, while a normal pool spec and
// submission on the same server are served exactly as before.
func TestHTTPBodyLimit(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	w := []float64{1, 1.5, 2, 2.5}
	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"p","w":[1,1.5,2,2.5]}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %s", resp.Status)
	}

	tooLarge := func(path, body string) {
		t.Helper()
		resp := postJSON(t, ts.URL+path, body)
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "body limit") {
			t.Fatalf("POST %s with %d bytes → %s %q, want 413 with a reason", path, len(body), resp.Status, e.Error)
		}
	}
	tooLarge("/v1/pools", `{"name":"big","w":[`+strings.Repeat("1.5,", maxBodyBytes/4)+`2]}`)
	job := `{"z":0.2,"seed":1},`
	tooLarge("/v1/jobs", `{"pool":"p","jobs":[`+strings.Repeat(job, maxBodyBytes/len(job))+`{"z":0.2,"seed":1}]}`)
	if _, ok := srv.Pool("big"); ok {
		t.Fatal("oversized pool spec created a pool")
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", `{"pool":"p","jobs":[{"z":0.2,"seed":1}]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("normal submission: %s", resp.Status)
	}
	var results []JobResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var res JobResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if res.Event == "result" {
			results = append(results, res)
		}
	}
	want, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: 0.2, TrueW: w, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Error != "" || !equalF64(results[0].Payments, want.Payments) {
		t.Fatalf("normal submission results = %+v, want one job paying %v", results, want.Payments)
	}
	if n := srv.Metrics().Jobs.Submitted; n != 1 {
		t.Fatalf("%d jobs admitted, want only the normal one", n)
	}
}

// TestHTTPFaultyJob exercises the per-job fault plan and retry policy
// through the JSON surface.
func TestHTTPFaultyJob(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/pools", `{"name":"p","w":[1,1.5,2,2.5]}`)
	resp.Body.Close()

	body := `{"pool":"p","jobs":[{"z":0.2,"seed":7,
		"faults":{"seed":42,"drop":0.2,"duplicate":0.1},
		"retry":{"max_attempts":8}}]}`
	resp = postJSON(t, ts.URL+"/v1/jobs", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", resp.Status)
	}
	var res JobResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Event string `json:"event"`
		}
		_ = json.Unmarshal(sc.Bytes(), &probe)
		if probe.Event == "result" {
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if res.Error != "" {
		t.Fatalf("faulty job failed: %s", res.Error)
	}
	if res.Fault == nil {
		t.Fatal("fault stats absent; JSON fault plan did not reach the bus")
	}
	direct, err := protocol.Run(protocol.Config{
		Network: dlt.NCPFE, Z: 0.2, TrueW: []float64{1, 1.5, 2, 2.5}, Seed: 7,
		Faults: faultPlan(0.2), Retry: protocol.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", res.Fault.Retransmits) != fmt.Sprintf("%v", direct.Fault.Retransmits) {
		t.Fatalf("retransmits %d, direct run got %d", res.Fault.Retransmits, direct.Fault.Retransmits)
	}
	if !equalF64(res.Payments, direct.Payments) {
		t.Fatalf("payments %v, direct run got %v", res.Payments, direct.Payments)
	}
}

// TestHTTPClientDisconnectsMidStream pins what a client that hangs up
// mid-NDJSON leaves behind: nothing. It submits a 4-job batch over a raw
// connection, reads only the "accepted" line and closes the connection
// while the pool's runner is held before the first job. Released, the
// pool must still finish the batch; a later submission on a new
// connection must complete; the queue must drain to 0 and /healthz
// answer 200; and the handler goroutines must exit, bringing the
// goroutine count back to its baseline.
func TestHTTPClientDisconnectsMidStream(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 16})
	defer srv.Close()
	gate := make(chan struct{}, 8) // one token lets the runner take one job
	srv.testHookBeforeRun = func(p *Pool, task *Task) { <-gate }
	defer close(gate) // runs before srv.Close: a failed test must not leave the runner held
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	post := func(path, body string) (int, []string) {
		t.Helper()
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var lines []string
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			lines = append(lines, sc.Text())
		}
		return resp.StatusCode, lines
	}
	if code, _ := post("/v1/pools", `{"name":"hot","w":[1,1.5,2,2.5]}`); code != http.StatusCreated {
		t.Fatalf("create pool: %d", code)
	}
	// A first job warms the pool, so the baseline counts every goroutine
	// that outlives a request.
	gate <- struct{}{}
	if code, lines := post("/v1/jobs", `{"pool":"hot","jobs":[{"z":0.1,"seed":1}]}`); code != http.StatusOK || len(lines) != 3 {
		t.Fatalf("warm-up job: %d %q", code, lines)
	}
	settle := func(want int) int {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > want && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	body := `{"pool":"hot","jobs":[{"z":0.1,"seed":1},{"z":0.2,"seed":1},{"z":0.3,"seed":1},{"z":0.4,"seed":1}]}`
	fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: dls\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(first, `"event":"accepted"`) || !strings.Contains(first, `"jobs":4`) {
		t.Fatalf("first NDJSON line %q (%v), want the accepted record for 4 jobs", first, err)
	}
	conn.Close()
	for i := 0; i < 4; i++ {
		gate <- struct{}{}
	}
	p, _ := srv.Pool("hot")
	deadline := time.Now().Add(10 * time.Second)
	for p.Snapshot().Rounds < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("the pool played %d rounds, want the warm-up and the abandoned batch's 4", p.Snapshot().Rounds)
		}
		time.Sleep(5 * time.Millisecond)
	}

	gate <- struct{}{}
	code, lines := post("/v1/jobs", `{"pool":"hot","jobs":[{"z":0.2,"seed":2}]}`)
	if code != http.StatusOK || len(lines) != 3 || !strings.Contains(lines[2], `"event":"done"`) {
		t.Fatalf("submission after the disconnect: %d %q", code, lines)
	}
	var res JobResult
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil || !res.Completed || res.Error != "" {
		t.Fatalf("job after the disconnect: %+v (%v)", res, err)
	}
	if q := srv.Queued(); q != 0 {
		t.Errorf("Queued() = %d after every job ran, want 0", q)
	}
	hr, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", hr.StatusCode)
	}
	if n := settle(baseline); n > baseline {
		t.Errorf("%d goroutines remain, baseline %d: a handler outlived its disconnected client", n, baseline)
	}
}
