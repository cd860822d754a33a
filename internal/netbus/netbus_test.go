package netbus_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dlsbl/internal/agent"
	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/protocol"
	"dlsbl/internal/service"
	"dlsbl/internal/sig"
)

// requireUDP skips the test where loopback UDP sockets are unavailable
// (some sandboxes forbid them) — the graceful-skip contract of the
// net-smoke CI gate.
func requireUDP(t *testing.T) {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	c.Close()
}

// startCluster boots one mailbox node per entry of workers on ephemeral
// loopback ports, then dials the driver medium as node "serve" hosting
// the serveEndpoints. Everything is torn down with the test.
func startCluster(t testing.TB, serveEndpoints []string, workers map[string][]string) *netbus.Medium {
	t.Helper()
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: serveEndpoints},
	}}
	for name, eps := range workers {
		cfg.Nodes[name] = netbus.NodeSpec{Addr: "127.0.0.1:0", Endpoints: eps}
	}
	for name := range workers {
		n, err := netbus.ListenNode(cfg, name)
		if err != nil {
			t.Fatalf("ListenNode(%s): %v", name, err)
		}
		// Re-enter the bound port into the table so the driver can
		// route to it.
		spec := cfg.Nodes[name]
		spec.Addr = n.LocalAddr().String()
		cfg.Nodes[name] = spec
		go n.Serve()
		t.Cleanup(func() { n.Close() })
	}
	m, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestNetBusParity is the tentpole acceptance check: a full protocol
// round whose control plane crosses real UDP sockets (the referee local
// to the driver, the processors split across two mailbox nodes) must
// produce payments, verdicts and a referee transcript bit-identical to
// the same round on the simulated in-process bus with the same seed and
// keyring. Each arm also pins the driver's datagram budget: one
// exchange (a request and its reply) per node for the whole bid batch
// and one for the meters broadcast, plus one per drain sweep and node.
// The m16 arm is the benchmark's shape, two 8-endpoint nodes, where one
// batch frame carries every bid to a node and one node-drain reply
// carries a whole node's bids back.
func TestNetBusParity(t *testing.T) {
	requireUDP(t)
	endpoints := func(lo, hi int) []string {
		var eps []string
		for i := lo; i <= hi; i++ {
			eps = append(eps, fmt.Sprintf("P%d", i))
		}
		return eps
	}
	four := []float64{1, 1.5, 2, 2.5}
	sixteen := make([]float64, 16)
	for i := range sixteen {
		sixteen[i] = 1 + float64(i)/8
	}
	cases := []struct {
		name      string
		w         []float64
		workers   map[string][]string
		behaviors []agent.Behavior
		datagrams int // driver socket datagrams, both directions
	}{
		// 1 bid batch × 2 nodes + 1 meters × 2 + 2 sweeps × 2 = 8 exchanges.
		{name: "honest", w: four, workers: map[string][]string{"w1": endpoints(1, 2), "w2": endpoints(3, 4)},
			datagrams: 16},
		// 1 bid batch (5 bids) × 2 nodes + 1 sweep × 2: the round ends in Bidding.
		{name: "equivocator", w: four, workers: map[string][]string{"w1": endpoints(1, 2), "w2": endpoints(3, 4)},
			behaviors: []agent.Behavior{{}, agent.Equivocator}, datagrams: 8},
		// 1 bid batch × 2 nodes + 1 meters × 2 + 2 sweeps × 2 = 8 exchanges.
		{name: "m16", w: sixteen, workers: map[string][]string{"w1": endpoints(1, 8), "w2": endpoints(9, 16)},
			datagrams: 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := protocol.Config{
				Network:   dlt.NCPFE,
				Z:         0.2,
				TrueW:     tc.w,
				Seed:      7,
				Behaviors: tc.behaviors,
				Keys:      sig.NewKeyring(), // one keyring for both media, per the acceptance criteria
			}
			simOut, err := protocol.Run(base)
			if err != nil {
				t.Fatalf("simulated run: %v", err)
			}

			m := startCluster(t, []string{"referee"}, tc.workers)
			netCfg := base
			netCfg.Medium = m
			netOut, err := protocol.Run(netCfg)
			if err != nil {
				t.Fatalf("netbus run: %v", err)
			}

			if !reflect.DeepEqual(simOut.Payments, netOut.Payments) {
				t.Errorf("payments diverge:\n sim %v\n net %v", simOut.Payments, netOut.Payments)
			}
			if !reflect.DeepEqual(simOut.Fines, netOut.Fines) {
				t.Errorf("fines diverge:\n sim %v\n net %v", simOut.Fines, netOut.Fines)
			}
			if !reflect.DeepEqual(simOut.Utilities, netOut.Utilities) {
				t.Errorf("utilities diverge:\n sim %v\n net %v", simOut.Utilities, netOut.Utilities)
			}
			if !reflect.DeepEqual(simOut.Verdicts, netOut.Verdicts) {
				t.Errorf("verdicts diverge:\n sim %+v\n net %+v", simOut.Verdicts, netOut.Verdicts)
			}
			if !reflect.DeepEqual(simOut.Transcript, netOut.Transcript) {
				t.Errorf("transcripts diverge:\n sim %+v\n net %+v", simOut.Transcript, netOut.Transcript)
			}
			st := m.Stats()
			if st.Dropped != 0 || st.Deliveries == 0 {
				t.Errorf("loopback stats: %+v (want zero drops, nonzero deliveries)", st)
			}
			if sim := simOut.BusStats; st.Messages != sim.Messages || st.Deliveries != sim.Deliveries {
				t.Errorf("bus counts diverge: net %d messages / %d deliveries, sim %d / %d",
					st.Messages, st.Deliveries, sim.Messages, sim.Deliveries)
			}
			// A resend (an ack later than AckTimeout on a loaded host)
			// adds datagrams but no exchange, so count exchanges.
			ns := m.NetStats()
			if got := 2 * (ns.DatagramsOut - ns.Resends); got != tc.datagrams {
				t.Errorf("driver made %d exchanges (%+v), want %d datagrams' worth", got/2, ns, tc.datagrams)
			}
			if ns.Resends == 0 && ns.DatagramsOut+ns.DatagramsIn != tc.datagrams {
				t.Errorf("driver moved %d datagrams (%+v), want %d", ns.DatagramsOut+ns.DatagramsIn, ns, tc.datagrams)
			}
		})
	}
}

// TestNetBusMediumReuse runs two rounds over one long-lived medium —
// Attach must be idempotent and the logical nonce space must keep
// advancing so rounds never collide.
func TestNetBusMediumReuse(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"},
		map[string][]string{"w1": {"P1", "P2"}, "w2": {"P3", "P4"}})
	cfg := protocol.Config{
		Network: dlt.NCPFE,
		Z:       0.2,
		TrueW:   []float64{1, 1.5, 2, 2.5},
		Seed:    7,
		Medium:  m,
		Keys:    sig.NewKeyring(),
	}
	first, err := protocol.Run(cfg)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	second, err := protocol.Run(cfg)
	if err != nil {
		t.Fatalf("round 2 over the same medium: %v", err)
	}
	if !reflect.DeepEqual(first.Payments, second.Payments) {
		t.Errorf("same config, same medium, diverging payments: %v vs %v", first.Payments, second.Payments)
	}
}

// TestNetBusReleasesEndpoints pins that a run detaches what it
// attached. One long-lived medium plays a round with P1–P4, then rounds
// in which P3 abstains: each of those must count exactly the simulated
// bus's deliveries for the same configuration (no broadcast reaches the
// absent P3), and the driver must hold nothing for P3. Were P3 left
// attached, every later round would count 19 deliveries where the
// simulated bus counts 15, and each round's node drains would stash 4
// more messages for P3 that nothing frees.
func TestNetBusReleasesEndpoints(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"},
		map[string][]string{"w1": {"P1", "P2"}, "w2": {"P3", "P4"}})
	cfg := protocol.Config{
		Network: dlt.NCPFE,
		Z:       0.2,
		TrueW:   []float64{1, 1.5, 2, 2.5},
		Seed:    7,
		Medium:  m,
		Keys:    sig.NewKeyring(),
	}
	if _, err := protocol.Run(cfg); err != nil {
		t.Fatalf("round with P3: %v", err)
	}
	for _, ep := range []string{"referee", "P1", "P2", "P3", "P4"} {
		if _, err := m.Drain(ep); err == nil {
			t.Fatalf("after the round the medium still serves %s", ep)
		}
	}
	cfg.Behaviors = []agent.Behavior{{}, {}, {Abstain: true}, {}}
	simCfg := cfg
	simCfg.Medium = nil
	sim, err := protocol.Run(simCfg)
	if err != nil {
		t.Fatalf("simulated round without P3: %v", err)
	}
	for round := 1; round <= 10; round++ {
		before := m.Stats()
		out, err := protocol.Run(cfg)
		if err != nil {
			t.Fatalf("round %d without P3: %v", round, err)
		}
		if !reflect.DeepEqual(out.Payments, sim.Payments) {
			t.Fatalf("round %d: payments %v, simulated %v", round, out.Payments, sim.Payments)
		}
		after := m.Stats()
		if got, want := after.Deliveries-before.Deliveries, sim.BusStats.Deliveries; got != want {
			t.Fatalf("round %d counted %d deliveries, the simulated bus %d", round, got, want)
		}
		if n := m.StashedFor("P3"); n != 0 {
			t.Fatalf("round %d: the driver holds %d messages for the absent P3", round, n)
		}
	}
}

// TestBroadcastEachAtMaxPoolSize pins batch splitting at the largest
// pool the service admits: m = 256 bids broadcast in one BroadcastEach
// over two 128-endpoint nodes. Each node's batch (about 200 KB) must go
// out in as few frames as MaxFrame allows, each at most MaxFrame bytes
// and filed whole — nothing dropped, refused or rejected — and every
// inbox must drain the simulated bus's order.
func TestBroadcastEachAtMaxPoolSize(t *testing.T) {
	requireUDP(t)
	const m = service.MaxPoolSize
	names := func(lo, hi int) []string {
		var eps []string
		for i := lo; i <= hi; i++ {
			eps = append(eps, fmt.Sprintf("P%d", i))
		}
		return eps
	}
	all := names(1, m)
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"w1":    {Addr: "127.0.0.1:0", Endpoints: names(1, m/2)},
		"w2":    {Addr: "127.0.0.1:0", Endpoints: names(m/2+1, m)},
	}}
	var nodes []*netbus.Node
	for _, name := range []string{"w1", "w2"} {
		n, err := netbus.ListenNode(cfg, name)
		if err != nil {
			t.Fatal(err)
		}
		spec := cfg.Nodes[name]
		spec.Addr = n.LocalAddr().String()
		cfg.Nodes[name] = spec
		go n.Serve()
		t.Cleanup(func() { n.Close() })
		nodes = append(nodes, n)
	}
	nb, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })
	simBus, err := bus.New(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range append([]string{"referee"}, all...) {
		if err := nb.Attach(ep); err != nil {
			t.Fatal(err)
		}
		if err := simBus.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	// Bid-sized envelopes: the netbus never opens them.
	batch := make([]bus.Broadcast, m)
	for i, id := range all {
		batch[i] = bus.Broadcast{From: id, Kind: "dls/bid", Size: 1, Env: sig.Envelope{
			Sender: id, Kind: "dls/bid", Payload: make([]byte, 48), Signature: make([]byte, 64)}}
	}
	netBatch, simBatch := slices.Clone(batch), slices.Clone(batch)
	if err := nb.BroadcastEach(netBatch); err != nil {
		t.Fatal(err)
	}
	if err := simBus.BroadcastEach(simBatch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(netBatch, simBatch) || netBatch[0].Nonce == 0 {
		t.Fatalf("nonces diverge: net %v…, sim %v…", netBatch[0].Nonce, simBatch[0].Nonce)
	}

	// Each node's batch has one entry per bid, listing every endpoint
	// of the node but the sender. A greedy cut at MaxFrame needs at least
	// ⌈bytes/MaxFrame⌉ frames and at most ⌈bytes/(MaxFrame − widest
	// entry)⌉.
	ns := nb.NetStats()
	frames := ns.DatagramsOut - ns.Resends
	minFrames, maxFrames := 0, 0
	for _, node := range []string{"w1", "w2"} {
		eps := cfg.Nodes[node].Endpoints
		bytes, widest := 0, 0
		for i, b := range batch {
			var dests []string
			for _, ep := range eps {
				if ep != b.From {
					dests = append(dests, ep)
				}
			}
			msg := bus.Message{From: b.From, To: bus.BroadcastAddr, Kind: b.Kind, Size: 1, Nonce: netBatch[i].Nonce, Env: b.Env}
			n := netbus.BatchEntryLen(dests, msg)
			bytes += n
			widest = max(widest, n)
		}
		minFrames += (bytes + netbus.MaxFrame - 1) / netbus.MaxFrame
		maxFrames += (bytes + netbus.MaxFrame - widest - 1) / (netbus.MaxFrame - widest)
	}
	if frames < minFrames || frames > maxFrames || minFrames < 4 {
		t.Errorf("the driver sent %d frames, want %d to %d", frames, minFrames, maxFrames)
	}
	if st := nb.Stats(); st.Dropped != 0 || st.Deliveries != m*(m-1)+m {
		t.Errorf("driver stats %+v, want every one of %d copies delivered", st, m*(m-1)+m)
	}
	for _, n := range nodes {
		st := n.Stats()
		if st.BadFrames != 0 || st.Refused != 0 || st.Enqueued != uint64(m/2*(m-1)) {
			t.Errorf("node %s: %+v, want every frame filed whole (%d copies)", n.Name(), st, m/2*(m-1))
		}
	}
	for _, ep := range append([]string{"referee"}, all...) {
		got, err := nb.Drain(ep)
		if err != nil {
			t.Fatal(err)
		}
		want, err := simBus.Drain(ep)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s drained %d messages out of the simulated bus's order (%d)", ep, len(got), len(want))
		}
	}
}

// TestMediumRejectsStrangers pins the addressing errors: traffic naming
// endpoints outside the peer table (or not yet attached) must fail
// loudly instead of silently routing nowhere.
func TestMediumRejectsStrangers(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"}, map[string][]string{"w1": {"P1"}})
	if err := m.Attach("P9"); err == nil {
		t.Error("attached an endpoint the peer table does not know")
	}
	if err := m.Attach("P1"); err != nil {
		t.Fatalf("attach P1: %v", err)
	}
	if err := m.Attach("P1"); err != nil {
		t.Errorf("re-attach must be idempotent, got %v", err)
	}
	if _, err := m.SendTagged("ghost", "P1", "k", sig.Envelope{}, 1, 0); err == nil {
		t.Error("send from unattached sender succeeded")
	}
	if _, err := m.Drain("ghost"); err == nil {
		t.Error("drain of unknown endpoint succeeded")
	}
	if _, err := m.SendTagged("P1", "P1", "k", sig.Envelope{}, -1, 0); err == nil {
		t.Error("negative size accepted")
	}
}

// TestFaultVocabularyOnSockets pins the drop accounting: a message to
// an endpoint whose node is down is recorded as a drop (the simulated
// bus's vocabulary), not surfaced as an error — recovery belongs to the
// protocol's retry layer. A broadcast spanning a live and a dark node
// still counts per copy: each live copy is a delivery and each dark
// copy one drop.
func TestFaultVocabularyOnSockets(t *testing.T) {
	requireUDP(t)
	// Reserve a port for "w1", then close it so the node is dark.
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	darkAddr := c.LocalAddr().String()
	c.Close()
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"w1":    {Addr: darkAddr, Endpoints: []string{"P1", "P4"}},
		"w2":    {Addr: "127.0.0.1:0", Endpoints: []string{"P2", "P3"}},
	}}
	live, err := netbus.ListenNode(cfg, "w2")
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.Nodes["w2"]
	spec.Addr = live.LocalAddr().String()
	cfg.Nodes["w2"] = spec
	go live.Serve()
	defer live.Close()
	m, err := netbus.Dial(cfg, "serve", netbus.Options{AckTimeout: 10_000_000, MaxAttempts: 2}) // 10ms
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, ep := range []string{"referee", "P1", "P2", "P3", "P4"} {
		if err := m.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.SendTagged("referee", "P1", "k", sig.Envelope{}, 1, 0); err != nil {
		t.Fatalf("send to dark node must not error, got %v", err)
	}
	if st := m.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1 (st %+v)", st.Dropped, st)
	}
	if msgs, err := m.Drain("P1"); err != nil || len(msgs) != 0 {
		t.Errorf("drain of dark endpoint: msgs=%d err=%v, want silence", len(msgs), err)
	}

	if err := m.BroadcastEach([]bus.Broadcast{{From: "referee", Kind: "k", Size: 1}}); err != nil {
		t.Fatalf("broadcast across a dark node must not error, got %v", err)
	}
	if st := m.Stats(); st.Deliveries != 2 || st.Dropped != 3 {
		t.Errorf("after the broadcast Deliveries=%d Dropped=%d, want 2 (P2, P3) and 3 (P1 earlier; P1, P4 now)",
			st.Deliveries, st.Dropped)
	}
	for _, ep := range []string{"P2", "P3"} {
		if msgs, err := m.Drain(ep); err != nil || len(msgs) != 1 {
			t.Errorf("drain of live %s: msgs=%d err=%v, want the broadcast copy", ep, len(msgs), err)
		}
	}
}

// TestDrainStashRefetchesAfterSend pins the stash rule: draining one
// endpoint fetches its whole node, later drains of that node are served
// from the stash, but a message frame sent to the node since makes the
// next drain ask the node again — so a message that arrived after the
// fetch is not lost, and arrival order holds.
func TestDrainStashRefetchesAfterSend(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"}, map[string][]string{"w1": {"P1", "P2"}})
	for _, ep := range []string{"referee", "P1", "P2"} {
		if err := m.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	send := func(to string, nonce uint64) {
		t.Helper()
		if _, err := m.SendTagged("referee", to, "k", sig.Envelope{}, 1, nonce); err != nil {
			t.Fatal(err)
		}
	}
	nonces := func(id string) []uint64 {
		t.Helper()
		msgs, err := m.Drain(id)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, msg := range msgs {
			out = append(out, msg.Nonce)
		}
		return out
	}
	send("P1", 1)
	send("P2", 2)
	if got := nonces("P1"); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("Drain(P1) = %v, want [1]", got)
	}
	send("P2", 3)
	if got := nonces("P2"); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Fatalf("Drain(P2) = %v, want [2 3]: the message sent after P1's fetch was lost or reordered", got)
	}
	before := m.NetStats()
	if got := nonces("P1"); len(got) != 0 {
		t.Fatalf("Drain(P1) = %v, want nothing", got)
	}
	if after := m.NetStats(); after != before {
		t.Errorf("a drain with nothing sent since the last fetch crossed the socket: %+v → %+v", before, after)
	}
}

// TestPingNamesTooOldNode pins the startup version check: a node whose
// pong carries wire version 2 fails Ping with ErrNodeTooOld naming the
// node and its version, instead of every later frame timing out.
func TestPingNamesTooOldNode(t *testing.T) {
	requireUDP(t)
	m := startOldNode(t)
	err := m.Ping("old")
	if !errors.Is(err, netbus.ErrNodeTooOld) {
		t.Fatalf("Ping = %v, want ErrNodeTooOld", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"old"`) || !strings.Contains(msg, "version 2") {
		t.Errorf("error %q does not name the node and its version", msg)
	}
}

// startOldNode runs a fake v2 node named "old" that answers every v1
// ping with a v2 pong, and dials a driver against it.
func startOldNode(t *testing.T) *netbus.Medium {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	go func() {
		buf := make([]byte, netbus.MaxFrame+1)
		for {
			sz, src, err := c.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := netbus.DecodeFrame(buf[:sz])
			if err != nil || f.Type != netbus.FtPing || f.Version != netbus.VersionLegacy {
				continue // a v2 node would drop v3 frames; only the v1 probe gets through
			}
			pong := netbus.AppendControlFrame(nil, netbus.FtPong, f.Nonce, "old")
			pong[4] = 2
			c.WriteToUDP(pong, src)
		}
	}()
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"old":   {Addr: c.LocalAddr().String(), Endpoints: []string{"P1"}},
	}}
	m, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestDrainedRunsDoNotAlias pins the capacity cap on drained slices. One
// node-drain reply fills P1's and P2's stash from one array; appending to
// P1's drained slice, as the transport appends to its pending buffer,
// must leave P2's messages as they were.
func TestDrainedRunsDoNotAlias(t *testing.T) {
	requireUDP(t)
	m := startCluster(t, []string{"referee"},
		map[string][]string{"w1": {"P1", "P2"}, "w2": {"P3", "P4"}})
	for _, ep := range []string{"referee", "P1", "P2", "P3", "P4"} {
		if err := m.Attach(ep); err != nil {
			t.Fatal(err)
		}
	}
	var batch []bus.Broadcast
	for i := byte(1); i <= 3; i++ {
		batch = append(batch, bus.Broadcast{From: "referee", Kind: "k", Size: 1,
			Env: sig.Envelope{Sender: "referee", Kind: "k", Payload: []byte{i}, Signature: []byte{i, i}}})
	}
	if err := m.BroadcastEach(batch); err != nil {
		t.Fatal(err)
	}
	p1, err := m.Drain("P1")
	if err != nil || len(p1) != len(batch) {
		t.Fatalf("Drain(P1) = %d messages, %v; want %d", len(p1), err, len(batch))
	}
	_ = append(p1, &bus.Message{From: "intruder", Nonce: 99})
	before := m.NetStats()
	p2, err := m.Drain("P2")
	if err != nil {
		t.Fatal(err)
	}
	if after := m.NetStats(); after != before {
		t.Fatalf("Drain(P2) crossed the socket (%+v → %+v); it should come from P1's reply", before, after)
	}
	for i, msg := range p2 {
		if msg.From != "referee" || msg.Nonce != batch[i].Nonce || !msg.Env.Equal(batch[i].Env) {
			t.Fatalf("P2's message %d is %+v after an append to P1's drained slice", i, msg)
		}
	}
	if len(p2) != len(batch) {
		t.Fatalf("Drain(P2) = %d messages, want %d", len(p2), len(batch))
	}
}
