package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends one POST through the server's handler, in process.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// checkRejection fails unless the response is a 4xx whose body is a JSON
// object with a non-empty "error".
func checkRejection(t *testing.T, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	if rec.Code < 400 || rec.Code > 499 {
		t.Fatalf("body %q answered %d, want a 4xx rejection", body, rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("body %q: rejection %d carries no JSON error: %q (%v)", body, rec.Code, rec.Body.String(), err)
	}
}

// residentPool names the one pool FuzzSubmission's server holds.
// Inputs that name it are skipped, so every decoder on the admission
// path runs but no round does.
const residentPool = "resident"

// FuzzSubmission posts arbitrary bodies to POST /v1/jobs. The server's
// only pool has another name, so each body runs through decodeBody,
// parseArtifacts and every job's JobSpec.toJob, then stops at the pool
// lookup. Nothing may panic, and every answer must be a 4xx with a JSON
// error.
func FuzzSubmission(f *testing.F) {
	for _, seed := range []string{
		`{"pool":"other","jobs":[{"z":0.2,"seed":1}]}`,
		`{"pool":"other","artifacts":["timeline","transcript","verdicts","trace"],"jobs":[{"z":0.1,"seed":2,"nblocks":64}]}`,
		`{"pool":"other","artifacts":["gantt"],"jobs":[{"z":0.1}]}`,
		`{"pool":"other","jobs":[{"z":0.2,"behaviors":["","payment-cheat-2x","no-such-behavior"]}]}`,
		`{"pool":"other","jobs":[{"z":0.2,"installments":1000000000,"installment_policy":"geometric"}]}`,
		`{"pool":"other","jobs":[{"z":0.2,"installments":4,"installment_policy":"zigzag"}]}`,
		`{"pool":"other","jobs":[{"z":0.2,"faults":{"seed":3,"drop":0.1,"unresponsive":["P9"]},"retry":{"max_attempts":3}}]}`,
		`{"pool":"other","jobs":[]}`,
		`{"pool":"other","jobs":[{"z":-1e308,"seed":-9223372036854775808}]}`,
		`{"jobs":[{"z":0.2}]}`,
		`{"pool":"other","jobs":{"z":0.2}}`,
		`[1,2,3]`,
		`{"pool":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1, QueueDepth: 4})
	f.Cleanup(srv.Close)
	if _, err := srv.CreatePool(PoolSpec{Name: residentPool, TrueW: []float64{1, 1.5, 2, 2.5}}); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var sub Submission
		if json.NewDecoder(bytes.NewReader(body)).Decode(&sub) == nil && sub.Pool == residentPool {
			return // admissible bodies would play a round
		}
		checkRejection(t, post(h, "/v1/jobs", body), body)
		if q := srv.Queued(); q != 0 {
			t.Fatalf("body %q left %d jobs queued", body, q)
		}
	})
}

// FuzzPoolSpec posts arbitrary bodies to POST /v1/pools on a fresh
// server. Nothing may panic, every rejection must be a 4xx with a JSON
// error, and every pool that is created must have at most MaxPoolSize
// members, each with a positive finite rate.
func FuzzPoolSpec(f *testing.F) {
	for _, seed := range []string{
		`{"name":"hot","w":[1,1.5,2,2.5]}`,
		`{"name":"nfe","network":"ncp-nfe","w":[2,1],"fine":10,"policy":"ban-deviants","multiload":true,"pipeline_depth":4}`,
		`{"name":"bad","network":"ring","w":[1]}`,
		`{"name":"bad","policy":"shun","w":[1]}`,
		`{"name":"neg","w":[1,-1]}`,
		`{"name":"zero","w":[0,1]}`,
		`{"name":"huge","w":[1e308,1e308]}`,
		`{"name":"overflow","w":[1e999]}`,
		`{"name":"empty","w":[]}`,
		`{"w":[1,2]}`,
		`{"name":"` + strings.Repeat("x", 300) + `","w":[1]}`,
		`{"name":"wide","w":[` + strings.TrimSuffix(strings.Repeat("1,", MaxPoolSize+1), ",") + `]}`,
		`{"name":1}`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Workers: 1, QueueDepth: 4})
		defer srv.Close()
		rec := post(srv.Handler(), "/v1/pools", body)
		if rec.Code != http.StatusCreated {
			checkRejection(t, rec, body)
			return
		}
		var snap PoolSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("body %q: created pool answers %q: %v", body, rec.Body.String(), err)
		}
		p, ok := srv.Pool(snap.Name)
		if !ok {
			t.Fatalf("body %q: created pool %q is not registered", body, snap.Name)
		}
		w := p.sess.TrueW
		if len(w) > MaxPoolSize {
			t.Fatalf("body %q: created a pool of %d members, over %d", body, len(w), MaxPoolSize)
		}
		for i, x := range w {
			if !(x > 0) || math.IsInf(x, 0) {
				t.Fatalf("body %q: member %d has rate %v", body, i, x)
			}
		}
	})
}
