package netbus_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/sig"
)

// TestLoadConfig exercises the peer-table loader: a valid table round-
// trips, and every rejection class names its problem.
func TestLoadConfig(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	good := write("good.json", `{"nodes": {
		"serve": {"addr": "127.0.0.1:9000", "endpoints": ["referee"]},
		"w1":    {"addr": "127.0.0.1:9001", "endpoints": ["P1", "P2"]}
	}}`)
	cfg, err := netbus.LoadConfig(good)
	if err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	if owner, ok := cfg.Owner("P2"); !ok || owner != "w1" {
		t.Errorf("Owner(P2) = %q, %v; want w1, true", owner, ok)
	}
	if _, ok := cfg.Owner("P9"); ok {
		t.Error("Owner invented a node for an unknown endpoint")
	}
	if eps := cfg.Endpoints(); !reflect.DeepEqual(eps, []string{"P1", "P2", "referee"}) {
		t.Errorf("Endpoints() = %v, want sorted [P1 P2 referee]", eps)
	}

	cases := []struct {
		name, body, wantErr string
	}{
		{"not json", `{"nodes": `, "parsing"},
		{"empty table", `{"nodes": {}}`, "empty peer table"},
		{"empty node name", `{"nodes": {"": {"addr": "127.0.0.1:1", "endpoints": ["P1"]}}}`, "empty name"},
		{"bad addr", `{"nodes": {"w1": {"addr": "no-port", "endpoints": ["P1"]}}}`, "address"},
		{"empty endpoint", `{"nodes": {"w1": {"addr": "127.0.0.1:1", "endpoints": [""]}}}`, "empty endpoint"},
		{"duplicate endpoint", `{"nodes": {
			"w1": {"addr": "127.0.0.1:1", "endpoints": ["P1"]},
			"w2": {"addr": "127.0.0.1:2", "endpoints": ["P1"]}
		}}`, "owned by both"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := netbus.LoadConfig(write(strings.ReplaceAll(tc.name, " ", "_")+".json", tc.body))
			if err == nil {
				t.Fatal("bad table accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	if _, err := netbus.LoadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestMediumIntrospection covers the driver-side accessors and the
// liveness probe: bound address, sorted endpoint listing, tracer
// events on the delivery path, and pings against live, local and
// unknown nodes.
func TestMediumIntrospection(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"}, map[string][]string{"w1": {"P1"}})
	if m.LocalAddr() == nil {
		t.Error("LocalAddr() = nil after Dial")
	}
	for _, ep := range []string{"referee", "P1"} {
		if err := m.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	for _, ep := range []string{"referee", "P1"} {
		if _, err := m.Drain(ep); err != nil {
			t.Errorf("Drain(%s) of an attached endpoint: %v", ep, err)
		}
	}

	if err := m.Ping("w1"); err != nil {
		t.Errorf("ping of a live node: %v", err)
	}
	if err := m.Ping("serve"); err != nil {
		t.Errorf("ping of the local node must be a no-op, got %v", err)
	}
	if err := m.Ping("nope"); err == nil {
		t.Error("ping of an unknown node succeeded")
	}

	rec := obs.NewRecorder()
	m.SetTracer(rec)
	k, err := sig.GenerateKeyPair("referee", sig.DeterministicSource(1))
	if err != nil {
		t.Fatal(err)
	}
	env, err := sig.Seal(k, "k", map[string]any{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SendTagged("referee", "P1", "k", env, 1, 0); err != nil {
		t.Fatal(err)
	}
	m.SetTracer(nil)
	records := rec.Records()
	if len(records) == 0 || records[len(records)-1].Name != obs.EvDeliver {
		t.Errorf("tracer saw %+v, want a trailing deliver record", records)
	}
}

// TestNodeName covers the trivial accessor alongside a real listen.
func TestNodeName(t *testing.T) {
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"n": {Addr: "127.0.0.1:0", Endpoints: []string{"P1"}},
	}}
	n, err := netbus.ListenNode(cfg, "n")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer n.Close()
	if n.Name() != "n" {
		t.Errorf("Name() = %q, want n", n.Name())
	}
}
