package main

import (
	"fmt"
	"time"

	"ghm"
)

// udp-stopwait: one Sender/Receiver pair over two ghm.DialUDP sockets on
// 127.0.0.1, no faults, one closed-loop caller, 32 B payloads. The
// production path at its smallest message, where per-message CPU and
// goroutine hand-offs set the latency. Traffic crosses the host
// loopback, not a real link.
func udpSpec(cfg config) *senderSpec {
	return &senderSpec{seed: cfg.seed, callers: 1, payload: 32, warmup: 200 * time.Millisecond, build: buildUDP}
}

func setupUDPStopWait(cfg config) (time.Duration, error) { return udpSpec(cfg).setup() }

func runUDPStopWait(cfg config) (*report, error) {
	spec := udpSpec(cfg)
	return runLoad(cfg, loadSpec{
		payload: spec.payload,
		run:     spec.run,
		analyze: analyzeStopWait,
	})
}

func buildUDP(seed int64, rec *recorder) (*ghm.Sender, *ghm.Receiver, error) {
	pa, pb, err := freeUDPPorts()
	if err != nil {
		return nil, nil, err
	}
	addr := func(p int) string { return fmt.Sprintf("127.0.0.1:%d", p) }
	a, err := ghm.DialUDP(addr(pa), addr(pb))
	if err != nil {
		return nil, nil, err
	}
	b, err := ghm.DialUDP(addr(pb), addr(pa))
	if err != nil {
		a.Close()
		return nil, nil, err
	}
	ca, cb := rec.link(0, a, b)
	return stationPair(ca, cb, rec)
}

// stationEpsilon is the per-message error probability of the station
// pairs. At the default 2^-20 (strings of about 25 bits) the gate caught
// one confirmed payload that never arrived in about 12 million
// udp-stopwait sends — the error the protocol permits, at about the rate
// a 25-bit tag collision predicts. A run sends up to a million messages,
// so the stations take 2^-40, under which a run expects no such error
// and any the gate finds is a defect.
const stationEpsilon = 0x1p-40

// stationPair starts a Sender on a and a Receiver on b, tapped into rec
// when tracing. On failure it closes both conns.
func stationPair(a, b ghm.PacketConn, rec *recorder) (*ghm.Sender, *ghm.Receiver, error) {
	opts := []ghm.Option{ghm.WithEpsilon(stationEpsilon)}
	if rec != nil {
		opts = append(opts, ghm.WithTap(rec.tap))
	}
	s, err := ghm.NewSender(a, opts...)
	if err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	r, err := ghm.NewReceiver(b, opts...)
	if err != nil {
		s.Close()
		b.Close()
		return nil, nil, err
	}
	return s, r, nil
}
