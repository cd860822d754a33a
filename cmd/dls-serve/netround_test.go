package main

import (
	"errors"
	"net"
	"testing"
	"time"

	"dlsbl/internal/netbus"
)

// TestAwaitPeersStopsAtTooOldNode pins the startup rule: a node that
// answers the driver's version probe with a v2 pong is reported at
// once, by name, instead of being retried until the patience runs out
// and then blamed for not answering.
func TestAwaitPeersStopsAtTooOldNode(t *testing.T) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer c.Close()
	go func() {
		buf := make([]byte, netbus.MaxFrame+1)
		for {
			sz, src, err := c.ReadFromUDP(buf)
			if err != nil {
				return
			}
			f, err := netbus.DecodeFrame(buf[:sz])
			if err != nil || f.Type != netbus.FtPing {
				continue
			}
			pong := netbus.AppendControlFrame(nil, netbus.FtPong, f.Nonce, "w1")
			pong[4] = 2 // a v2 node answers in its own version
			c.WriteToUDP(pong, src)
		}
	}()
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{"referee"}},
		"w1":    {Addr: c.LocalAddr().String(), Endpoints: []string{"P1"}},
	}}
	m, err := netbus.Dial(cfg, "serve", netbus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	err = awaitPeers(m, cfg, "serve", 10*time.Second)
	if !errors.Is(err, netbus.ErrNodeTooOld) {
		t.Fatalf("awaitPeers = %v, want ErrNodeTooOld", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("awaitPeers took %v: it retried a node that can never answer in v3", took)
	}
}
