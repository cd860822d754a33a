package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

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
	if snap.Rounds != 2 || snap.WarmKeys != 6 {
		t.Fatalf("snapshot rounds=%d warm_keys=%d, want 2 and 6", snap.Rounds, snap.WarmKeys)
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
