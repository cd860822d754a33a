package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Submission is the JSON body of POST /v1/jobs: a batch of jobs against
// one pool, optionally requesting per-job artifacts. The jobs run in
// order on the pool's runner; the response streams one NDJSON record per
// job as it completes.
type Submission struct {
	Pool      string    `json:"pool"`
	Artifacts []string  `json:"artifacts,omitempty"`
	Jobs      []JobSpec `json:"jobs"`
}

// Handler returns the service's HTTP API:
//
//	POST /v1/pools        create a pool (PoolSpec body) → PoolSnapshot
//	GET  /v1/pools        list pool snapshots
//	GET  /v1/pools/{name} one pool snapshot
//	POST /v1/jobs         submit a batch (Submission body) → NDJSON stream
//	GET  /metrics         counters + latency quantiles (MetricsSnapshot);
//	                      ?format=prometheus selects text exposition 0.0.4
//	GET  /healthz         liveness + invariant probe: 200 while every
//	                      pool's economic-invariant sentinel is clear,
//	                      503 with the latched violations otherwise
//
// Error statuses: 400 malformed body or unknown behavior/artifact name,
// 404 unknown pool, 413 body over maxBodyBytes, 429 queue full
// (backpressure — retry later), 503 shutting down or sentinel violation
// latched.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if bad := s.sentinelViolations(); len(bad) > 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "sentinel_violation", "violations": bad,
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_ = WritePrometheus(w, s.Metrics())
			return
		}
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("POST /v1/pools", s.handleCreatePool)
	mux.HandleFunc("GET /v1/pools", s.handleListPools)
	mux.HandleFunc("GET /v1/pools/{name}", s.handleGetPool)
	mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps a POST body. A full queue of 256 jobs at m=16 is
// about 150 KiB of JSON, so 1 MiB admits every submission the queue
// could hold while bounding what a client can make the decoder read.
const maxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes. On failure it has already answered 413 (body too large)
// or 400 (malformed) and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "%s exceeds the %d-byte body limit", what, tooBig.Limit)
		return false
	case err != nil:
		httpError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

func (s *Server) handleCreatePool(w http.ResponseWriter, r *http.Request) {
	var spec PoolSpec
	if !decodeBody(w, r, "pool spec", &spec) {
		return
	}
	p, err := s.CreatePool(spec)
	switch {
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, p.Snapshot())
}

func (s *Server) handleListPools(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics().Pools)
}

func (s *Server) handleGetPool(w http.ResponseWriter, r *http.Request) {
	p, ok := s.Pool(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown pool %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, p.Snapshot())
}

// handleJobs admits a batch and streams NDJSON: an "accepted" record,
// one "result" record per job as its round completes (in submission
// order), and a closing "done" record with the batch totals.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var sub Submission
	if !decodeBody(w, r, "submission", &sub) {
		return
	}
	tasks, err := s.Submit(sub.Pool, sub.Jobs, sub.Artifacts)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownPool):
			httpError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}

	start := time.Now()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"event": "accepted", "pool": sub.Pool, "jobs": len(tasks)})
	flush()
	failed := 0
	for _, t := range tasks {
		res := t.Wait()
		if res.Error != "" {
			failed++
		}
		_ = enc.Encode(res)
		flush()
	}
	_ = enc.Encode(map[string]any{
		"event":      "done",
		"pool":       sub.Pool,
		"jobs":       len(tasks),
		"failed":     failed,
		"elapsed_ms": float64(time.Since(start)) / float64(time.Millisecond),
	})
	flush()
}
