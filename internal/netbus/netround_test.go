package netbus_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"dlsbl/internal/bus"
	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/protocol"
	"dlsbl/internal/sig"
)

// netRound returns a function that plays one m-member round over two
// loopback mailbox nodes, each hosting half the processors, with the
// referee at the driver: the layered benchmark's netbus-round shape,
// under a fixed round ID and a keyring its first call warms.
func netRound(tb testing.TB, m int) func() {
	tb.Helper()
	names := func(lo, hi int) []string {
		var eps []string
		for i := lo; i <= hi; i++ {
			eps = append(eps, fmt.Sprintf("P%d", i))
		}
		return eps
	}
	medium := startCluster(tb, []string{"referee"},
		map[string][]string{"w1": names(1, m/2), "w2": names(m/2+1, m)})
	in := dlt.DefaultRandomInstance(rand.New(rand.NewSource(int64(m))), dlt.NCPFE, m)
	cfg := protocol.Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: int64(m),
		Keys: sig.NewKeyring(), Medium: medium}
	round := fmt.Sprintf("net%d:r1", m)
	return func() {
		out, err := protocol.RunRound(cfg, round)
		if err != nil {
			tb.Fatal(err)
		}
		if !out.Completed {
			tb.Fatalf("m=%d: netbus round terminated in %s", m, out.TerminatedIn)
		}
		if st := medium.Stats(); st.Dropped != 0 {
			tb.Fatalf("m=%d: %d copies dropped on loopback", m, st.Dropped)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race,
// whose runtime skews allocation counts.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// allocBytesPerRun returns the heap bytes one call of f allocates,
// averaged over runs calls after one warm-up call. The mailbox nodes
// serve from this process, so their side of every exchange counts too.
func allocBytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNetRoundAllocs pins what a netbus round allocates at GOMAXPROCS 1,
// driver and both nodes together. A node-drain reply decodes each
// distinct message once, into one record its byte-identical copies point
// to, every endpoint's copies are sub-slices of one pointer array sized
// from the reply, and nodes name batch destinations by their mailboxes'
// keys in a buffer they reuse. A round here allocates about 113 KiB at
// m = 16 and 3.2 MiB at m = 128. Giving every copy a decoded message of
// its own, sharing only the decoded strings and bytes, costs about
// 178 KiB and 7.4 MiB, past both bounds; decoding every copy afresh,
// about 234 KiB and 9.6 MiB; regrowing each endpoint's stash one append
// at a time as well, about 375 KiB and 17.9 MiB.
func TestNetRoundAllocs(t *testing.T) {
	requireUDP(t)
	if raceEnabled() {
		t.Skip("allocation counts are skewed under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		m, runs int
		max     uint64
	}{
		{m: 16, runs: 5, max: 124 << 10},
		{m: 128, runs: 2, max: 3584 << 10},
	} {
		got := allocBytesPerRun(c.runs, netRound(t, c.m))
		if got > c.max {
			t.Errorf("netbus m=%d round: %d KiB allocated, want <= %d KiB", c.m, got>>10, c.max>>10)
		}
		t.Logf("netbus m=%d round: %d KiB allocated", c.m, got>>10)
	}
}

// TestLocalBroadcastGrowsEachInboxOnce pins local delivery: a batch of
// m broadcasts on a medium whose endpoints are all hosted by the driver
// grows each endpoint's inbox once, as the simulated bus does, and files
// one record per broadcast that every recipient points to, so the batch
// allocates one array per inbox and the record array; the nonces go
// into the batch itself.
// Appending copy by copy regrows every inbox through each doubling: 81
// allocations at m = 16. Filing a copy of each message per recipient, as
// the driver did before it shared records, takes about 36 KiB a batch.
func TestLocalBroadcastGrowsEachInboxOnce(t *testing.T) {
	requireUDP(t)
	if raceEnabled() {
		t.Skip("allocation counts are skewed under -race")
	}
	const m = 16
	var eps []string
	for i := 1; i <= m; i++ {
		eps = append(eps, fmt.Sprintf("P%d", i))
	}
	nb, err := netbus.Dial(&netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: eps},
	}}, "serve", netbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })
	batch := make([]bus.Broadcast, m)
	for i, id := range eps {
		if err := nb.Attach(id); err != nil {
			t.Fatal(err)
		}
		batch[i] = bus.Broadcast{From: id, Kind: "dls/bid", Size: 1}
	}
	// held[id] is what the last batch delivered to id.
	held := make(map[string][]*bus.Message, m)
	broadcast := func() {
		for i := range batch {
			batch[i].Nonce = 0 // fresh nonces, as for a new batch
		}
		if err := nb.BroadcastEach(batch); err != nil {
			t.Fatal(err)
		}
		for _, id := range eps {
			msgs, err := nb.Drain(id)
			if err != nil || len(msgs) != m-1 {
				t.Fatalf("Drain(%s) = %d messages, %v; want %d", id, len(msgs), err, m-1)
			}
			held[id] = msgs
		}
	}
	broadcast()
	record := map[uint64]*bus.Message{} // nonce → the record its first recipient holds
	for _, id := range eps {
		for _, msg := range held[id] {
			if rec, ok := record[msg.Nonce]; !ok {
				record[msg.Nonce] = msg
			} else if rec != msg {
				t.Fatalf("%s holds its own copy of %s's broadcast, not the shared record", id, msg.From)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, broadcast); allocs > m+1 {
		t.Errorf("a %d-broadcast local batch allocated %.0f times, want at most %d", m, allocs, m+1)
	}
	got := allocBytesPerRun(10, broadcast)
	if got > 8<<10 {
		t.Errorf("a %d-broadcast local batch allocated %d bytes, want at most 8 KiB", m, got)
	}
	t.Logf("a %d-broadcast local batch allocated %d bytes", m, got)
}

// BenchmarkNetRound times a netbus round over two loopback nodes at
// m = 16, 64 and 128.
func BenchmarkNetRound(b *testing.B) {
	for _, m := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			round := netRound(b, m)
			round() // warm the keyring
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
