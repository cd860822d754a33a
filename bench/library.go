package main

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/obs"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// reference is what a workload's checks compare against.
type reference struct {
	out *protocol.Outcome
	// keys is the keyring the netbus reference warmed; the netbus rounds
	// sign with it, so parity holds with the same seed and keyring.
	keys *sig.Keyring
}

// plainReference is a default protocol.Run on the instance. Honest
// payments depend only on the rates, never on the job seed.
func plainReference(in instance) (*reference, error) {
	out, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: in.seed})
	if err != nil {
		return nil, err
	}
	return &reference{out: out}, nil
}

// netRound is the round identity every netbus round and its simulated
// reference share, as dls-serve -net-round names it.
func netRound(in instance) string { return fmt.Sprintf("net%d:r1", in.seed) }

// netConfig is the dls-serve -net-round configuration: warm keyring,
// default codec, no memo.
func netConfig(in instance, keys *sig.Keyring) protocol.Config {
	return protocol.Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: in.seed, Keys: keys}
}

// netReference runs the round on the simulated bus, warming the keyring
// the socket rounds then use.
func netReference(in instance) (*reference, error) {
	keys := sig.NewKeyring()
	out, err := protocol.RunRound(netConfig(in, keys), netRound(in))
	if err != nil {
		return nil, err
	}
	return &reference{out: out, keys: keys}, nil
}

// traceCall runs one library op, bracketing it with a benchmark-owned
// span when traced so the op's pre-round and post-round time are
// measured from the same clock as its phases.
func traceCall(traced bool, call func(obs.Tracer) (*protocol.Outcome, error)) (*protocol.Outcome, sample, error) {
	s := sample{start: time.Now()}
	if !traced {
		out, err := call(nil)
		s.lat = time.Since(s.start)
		return out, s, err
	}
	rec := obs.NewRecorder()
	rec.BeginPhase(opSpan, "", "")
	out, err := call(rec)
	rec.EndPhase(opSpan)
	s.lat = time.Since(s.start)
	s.recs, s.recsAt = rec.Records(), s.start
	if n := len(s.recs); n >= 4 {
		first, last := s.recs[1].TS, s.recs[n-2].TS
		s.queueMS = (first - s.recs[0].TS) / 1e3
		s.runMS = (last - first) / 1e3
	}
	return out, s, err
}

// coldTarget calls protocol.Run with the zero-value defaults.
type coldTarget struct {
	in  instance
	ref *reference

	mu      sync.Mutex
	traffic counters
}

func setupCold(in instance, ref *reference) (target, error) {
	t := &coldTarget{in: in, ref: ref}
	if err := t.do(0, false)[0].err; err != nil {
		return nil, err
	}
	return t, nil
}

func (t *coldTarget) do(i int, traced bool) []sample {
	out, s, err := traceCall(traced, func(tr obs.Tracer) (*protocol.Outcome, error) {
		return protocol.Run(protocol.Config{
			Network: dlt.NCPFE, Z: t.in.Z, TrueW: t.in.W, Seed: t.in.seed + int64(i), Tracer: tr,
		})
	})
	if err != nil {
		s.err = err
		return []sample{s}
	}
	t.mu.Lock()
	t.traffic.messages += out.BusStats.Messages
	t.traffic.deliveries += out.BusStats.Deliveries
	t.mu.Unlock()
	s.err = checkRound(out, t.ref.out)
	if s.err == nil {
		s.err = referee.VerifyEntries(out.Transcript)
	}
	return []sample{s}
}

func (t *coldTarget) counters() (counters, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traffic, nil
}

func (t *coldTarget) close() error { return nil }

// checkRound requires a completed round whose payments, fines and
// verdicts equal the reference's.
func checkRound(out, ref *protocol.Outcome) error {
	if !out.Completed {
		return fmt.Errorf("round terminated in %s", out.TerminatedIn)
	}
	if err := samePayments(out.Payments, ref.Payments); err != nil {
		return err
	}
	if !reflect.DeepEqual(out.Fines, ref.Fines) {
		return fmt.Errorf("fines %v, reference %v", out.Fines, ref.Fines)
	}
	if !reflect.DeepEqual(out.Verdicts, ref.Verdicts) {
		return errors.New("verdicts differ from the reference")
	}
	return nil
}

// netTarget is two netbus mailbox nodes (P1–P8, P9–P16) and a driver
// medium hosting the referee, all in this process on loopback UDP.
type netTarget struct {
	in     instance
	ref    *reference
	medium *netbus.Medium
	nodes  []*netbus.Node
	wg     sync.WaitGroup
	errs   []error // Serve results, under mu
	mu     sync.Mutex
}

// setupNet boots the cluster, pings both nodes and plays the first round.
func setupNet(in instance, ref *reference) (target, error) {
	names := func(lo, hi int) []string {
		var eps []string
		for i := lo; i <= hi; i++ {
			eps = append(eps, fmt.Sprintf("P%d", i))
		}
		return eps
	}
	cfg := &netbus.Config{Nodes: map[string]netbus.NodeSpec{
		"serve": {Addr: "127.0.0.1:0", Endpoints: []string{referee.Account}},
		"w1":    {Addr: "127.0.0.1:0", Endpoints: names(1, m/2)},
		"w2":    {Addr: "127.0.0.1:0", Endpoints: names(m/2+1, m)},
	}}
	t := &netTarget{in: in, ref: ref}
	for _, name := range []string{"w1", "w2"} {
		n, err := netbus.ListenNode(cfg, name)
		if err != nil {
			return nil, errors.Join(err, t.close())
		}
		spec := cfg.Nodes[name]
		spec.Addr = n.LocalAddr().String()
		cfg.Nodes[name] = spec
		t.nodes = append(t.nodes, n)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := n.Serve(); err != nil {
				t.mu.Lock()
				t.errs = append(t.errs, err)
				t.mu.Unlock()
			}
		}()
	}
	var err error
	if t.medium, err = netbus.Dial(cfg, "serve", netbus.Options{}); err != nil {
		return nil, errors.Join(err, t.close())
	}
	for _, name := range []string{"w1", "w2"} {
		if err := t.medium.Ping(name); err != nil {
			return nil, errors.Join(err, t.close())
		}
	}
	if err := t.do(0, false)[0].err; err != nil {
		return nil, errors.Join(err, t.close())
	}
	return t, nil
}

func (t *netTarget) do(i int, traced bool) []sample {
	cfg := netConfig(t.in, t.ref.keys)
	cfg.Medium = t.medium
	out, s, err := traceCall(traced, func(tr obs.Tracer) (*protocol.Outcome, error) {
		cfg.Tracer = tr
		return protocol.RunRound(cfg, netRound(t.in))
	})
	if traced {
		// The protocol installs a run's tracer on the medium and never
		// removes it; later untraced rounds must not feed this recorder.
		t.medium.SetTracer(nil)
	}
	if err != nil {
		s.err = err
		return []sample{s}
	}
	s.err = checkRound(out, t.ref.out)
	return []sample{s}
}

func (t *netTarget) counters() (counters, error) {
	bs, ns := t.medium.Stats(), t.medium.NetStats()
	return counters{
		messages:       bs.Messages,
		deliveries:     bs.Deliveries,
		datagrams:      ns.DatagramsOut + ns.DatagramsIn,
		resends:        ns.Resends,
		decodeFailures: ns.DecodeFailures,
	}, nil
}

func (t *netTarget) close() error {
	var err error
	if t.medium != nil {
		err = t.medium.Close()
	}
	for _, n := range t.nodes {
		err = errors.Join(err, n.Close())
	}
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	return errors.Join(append([]error{err}, t.errs...)...)
}
