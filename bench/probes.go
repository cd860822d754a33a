package main

import (
	"fmt"
	"time"

	"dlsbl/internal/bus"
	"dlsbl/internal/core"
	"dlsbl/internal/dlt"
	"dlsbl/internal/netbus"
	"dlsbl/internal/protocol"
	"dlsbl/internal/referee"
	"dlsbl/internal/sig"
)

// probe times one direct call into a layer's public API.
type probe struct {
	name string
	unit time.Duration // time.Microsecond or time.Nanosecond
	call func() error
}

// runProbes times each layer probe on m=16 inputs built from the seed.
// Every loop runs at least minDur.
func runProbes(in instance, minDur time.Duration) (map[string]float64, error) {
	ps, err := buildProbes(in)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(ps))
	for _, p := range ps {
		per, err := timeLoop(minDur, p.call)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = per / float64(p.unit)
	}
	return out, nil
}

// timeLoop calls f in growing batches until one batch takes at least
// minDur and returns that batch's time per call.
func timeLoop(minDur time.Duration, f func() error) (float64, error) {
	for n := 1; ; {
		begin := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		el := time.Since(begin)
		if el >= minDur {
			return float64(el) / float64(n), nil
		}
		// Aim 20% past minDur, growing at least 2× and at most 100× a step.
		next := 100 * n
		if el > 0 {
			next = int(float64(n) * 1.2 * float64(minDur) / float64(el))
		}
		n = max(2*n, min(next, 100*n))
	}
}

func buildProbes(in instance) ([]probe, error) {
	key, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(in.seed))
	if err != nil {
		return nil, err
	}
	reg := sig.NewRegistry()
	if err := reg.Register(key.ID, key.Public); err != nil {
		return nil, err
	}
	bid := referee.BidPayload{Proc: key.ID, Bid: in.W[0], Round: "s0:r1"}
	payload := bid.AppendBinary(nil)
	var env sig.Envelope
	if err := sig.SealInto(key, referee.KindBid, payload, &env); err != nil {
		return nil, err
	}
	memoVer := sig.NewBatchVerifier(reg, sig.NewVerifyMemo())
	if err := memoVer.Verify(&env); err != nil {
		return nil, err
	}
	engine := core.NewPaymentEngine(dlt.NCPFE, in.Z)
	var payOut core.Outcome
	round, err := protocol.Run(protocol.Config{Network: dlt.NCPFE, Z: in.Z, TrueW: in.W, Seed: in.seed})
	if err != nil {
		return nil, err
	}
	msg := bus.Message{From: key.ID, To: "P2", Kind: referee.KindBid, Size: 1, Nonce: 1, Env: env}
	var frame []byte
	var dec referee.BidPayload
	var sealed sig.Envelope
	return []probe{
		{"sig.keygen_us", time.Microsecond, func() error {
			_, err := sig.GenerateKeyPair("P1", sig.DeterministicSource(in.seed))
			return err
		}},
		{"sig.seal_us", time.Microsecond, func() error {
			return sig.SealInto(key, referee.KindBid, payload, &sealed)
		}},
		{"sig.seal_json_us", time.Microsecond, func() error {
			_, err := sig.Seal(key, referee.KindBid, bid)
			return err
		}},
		{"sig.verify_us", time.Microsecond, func() error { return env.Verify(reg) }},
		{"sig.verify_memo_hit_us", time.Microsecond, func() error { return memoVer.Verify(&env) }},
		{"sig.codec_encode_ns", time.Nanosecond, func() error {
			payload = bid.AppendBinary(payload[:0])
			return nil
		}},
		{"sig.codec_decode_ns", time.Nanosecond, func() error { return dec.DecodeBinary(payload) }},
		{"dlt.optimal_us", time.Microsecond, func() error {
			_, err := dlt.Optimal(in.Instance)
			return err
		}},
		{"dlt.pipelined_alloc_us", time.Microsecond, func() error {
			_, err := dlt.PipelinedAllocation(in.Instance)
			return err
		}},
		{"core.payment_engine_us", time.Microsecond, func() error {
			return engine.RunInto(in.W, in.W, core.WithVerification, &payOut)
		}},
		{"referee.verify_transcript_us", time.Microsecond, func() error {
			return referee.VerifyEntries(round.Transcript)
		}},
		{"netbus.frame_codec_ns", time.Nanosecond, func() error {
			frame = netbus.AppendMsgFrame(frame[:0], 1, "serve", "P2", msg)
			_, err := netbus.DecodeFrame(frame)
			return err
		}},
	}, nil
}
