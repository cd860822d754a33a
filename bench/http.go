package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"dlsbl/internal/service"
)

const poolName = "bench"

// httpTarget is a service.Server behind httptest on loopback with one
// pool, driven by a keep-alive client of at most two connections.
type httpTarget struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	jobs   func(i int) []service.JobSpec
	check  func(i int, res *service.JobResult) error
}

// setupHTTP starts a fresh server, creates the pool and plays the first
// request up to its first result: the service's set-up cost.
func setupHTTP(in instance, spec service.PoolSpec, jobs func(int) []service.JobSpec, check func(int, *service.JobResult) error) (target, error) {
	srv := service.New(service.Config{})
	t := &httpTarget{
		srv: srv,
		ts:  httptest.NewServer(srv.Handler()),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		},
		jobs:  jobs,
		check: check,
	}
	spec.Name, spec.TrueW = poolName, in.W
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, errors.Join(err, t.close())
	}
	if err := t.exchange(http.MethodPost, "/v1/pools", body, http.StatusCreated, nil); err != nil {
		return nil, errors.Join(fmt.Errorf("creating pool: %w", err), t.close())
	}
	for _, s := range t.do(0, false) {
		if s.err != nil {
			return nil, errors.Join(fmt.Errorf("first request: %w", s.err), t.close())
		}
	}
	return t, nil
}

// exchange sends one request and decodes a JSON reply into v (when
// non-nil), requiring the given status.
func (t *httpTarget) exchange(method, path string, body []byte, status int, v any) error {
	req, err := http.NewRequest(method, t.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, status, bytes.TrimSpace(data))
	}
	if v != nil {
		return json.Unmarshal(data, v)
	}
	return nil
}

// do POSTs one submission and times each job from the POST's start to
// its own NDJSON result line.
func (t *httpTarget) do(i int, traced bool) []sample {
	specs := t.jobs(i)
	out := make([]sample, len(specs))
	fail := func(err error) []sample {
		for k := range out {
			if out[k].err == nil && out[k].lat == 0 {
				out[k].err = err
			}
		}
		return out
	}
	sub := service.Submission{Pool: poolName, Jobs: specs}
	if traced {
		sub.Artifacts = []string{service.ArtifactTrace}
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return fail(err)
	}
	begin := time.Now()
	resp, err := t.client.Post(t.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fail(fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		at := time.Now()
		var res service.JobResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return fail(fmt.Errorf("decoding NDJSON line: %w", err))
		}
		if res.Event != "result" {
			continue
		}
		if res.Job < 0 || res.Job >= len(out) || out[res.Job].lat != 0 {
			return fail(fmt.Errorf("unexpected result for job %d", res.Job))
		}
		out[res.Job] = sample{
			start:        begin,
			lat:          at.Sub(begin),
			err:          t.check(i+res.Job, &res),
			queueMS:      res.QueueMS,
			runMS:        res.RunMS,
			recs:         res.Trace,
			recsAt:       at.Add(-time.Duration(res.RunMS * float64(time.Millisecond))),
			installments: res.Installments,
			speedup:      res.BatchSpeedup,
		}
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	return fail(errors.New("no result line"))
}

func (t *httpTarget) counters() (counters, error) {
	var snap service.PoolSnapshot
	if err := t.exchange(http.MethodGet, "/v1/pools/"+poolName, nil, http.StatusOK, &snap); err != nil {
		return counters{}, err
	}
	return counters{
		messages:   snap.Traffic.Messages,
		deliveries: snap.Traffic.Deliveries,
		memoHits:   snap.VerifyMemoHits,
	}, nil
}

func (t *httpTarget) close() error {
	err := t.exchange(http.MethodGet, "/healthz", nil, http.StatusOK, nil)
	t.client.CloseIdleConnections()
	t.ts.Close()
	t.srv.Close()
	return err
}
