package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ghm"
)

// senderSpec describes a workload of closed-loop callers, each blocked in
// ghm.Sender.Send, with one goroutine draining ghm.Receiver.Recv.
type senderSpec struct {
	seed    int64
	callers int
	payload int // bytes per message
	warmup  time.Duration
	// build makes a connected station pair; rec is nil when untraced.
	build func(seed int64, rec *recorder) (*ghm.Sender, *ghm.Receiver, error)
}

// senderStack is one built station pair under load.
type senderStack struct {
	s        *ghm.Sender
	r        *ghm.Receiver
	pl       payloads
	gate     *gate
	rec      *recorder
	done     atomic.Int64 // confirmed Sends
	received atomic.Int64 // distinct payloads through the gate
	sendErrs atomic.Int64
	// confirmed[c] and lat[c] belong to caller c's goroutine until the
	// callers are joined.
	confirmed []uint64
	lat       []*reservoir
	cancel    context.CancelFunc
	rxDone    chan struct{}
}

func (spec *senderSpec) start(rec *recorder) (*senderStack, error) {
	s, r, err := spec.build(spec.seed, rec)
	if err != nil {
		return nil, err
	}
	pl := newPayloads(spec.seed, spec.payload)
	st := &senderStack{
		s: s, r: r, pl: pl, rec: rec,
		gate:      newGate(spec.callers, true, pl),
		confirmed: make([]uint64, spec.callers),
		lat:       make([]*reservoir, spec.callers),
		rxDone:    make(chan struct{}),
	}
	for c := range st.lat {
		st.lat[c] = newReservoir()
	}
	var ctx context.Context
	ctx, st.cancel = context.WithCancel(context.Background())
	go st.receive(ctx)
	return st, nil
}

// receive drains the receiver through the gate until ctx ends.
func (st *senderStack) receive(ctx context.Context) {
	defer close(st.rxDone)
	for {
		b, err := st.r.Recv(ctx)
		if err != nil {
			return
		}
		st.rec.call(evRecvReturn, payloadKey(b))
		st.gate.deliver(b)
		st.received.Store(st.gate.uniq)
	}
}

// send transfers caller c's next payload.
func (st *senderStack) send(c int) error {
	seq := st.confirmed[c]
	p := st.pl.make(c, seq)
	k := msgKey(c, seq)
	st.rec.call(evCall, k)
	t0 := now()
	err := st.s.Send(context.Background(), p)
	t1 := now()
	st.rec.call(evReturn, k)
	if err != nil {
		st.sendErrs.Add(1)
		return err
	}
	st.confirmed[c]++
	st.lat[c].add(span{t0, t1})
	st.done.Add(1)
	return nil
}

// drainTimeout bounds the wait for confirmed payloads to reach Recv; a
// confirmed payload still missing after it counts as a gate failure.
const drainTimeout = 5 * time.Second

// finish waits for every confirmed payload to reach the gate, stops the
// stack and returns the gate's verdict.
func (st *senderStack) finish() (attempted, failed int64, problems []string) {
	var want int64
	for _, n := range st.confirmed {
		want += int64(n)
	}
	for deadline := time.Now().Add(drainTimeout); st.received.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st.cancel()
	<-st.rxDone
	st.s.Close()
	st.r.Close()
	failed, problems = st.gate.verdict(st.confirmed, st.sendErrs.Load())
	return want + st.sendErrs.Load(), failed, problems
}

// started builds a stack and waits for its first payload to arrive.
func (spec *senderSpec) started(rec *recorder) (*senderStack, error) {
	st, err := spec.start(rec)
	if err != nil {
		return nil, err
	}
	if err := st.send(0); err != nil {
		st.finish()
		return nil, fmt.Errorf("first send: %w", err)
	}
	for t0 := time.Now(); st.received.Load() < 1 && time.Since(t0) < drainTimeout; {
		time.Sleep(50 * time.Microsecond)
	}
	return st, nil
}

// setup times one build through its first delivered payload, then
// stops the stack.
func (spec *senderSpec) setup() (time.Duration, error) {
	t0 := time.Now()
	st, err := spec.started(nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, gateErr(st.finish())
}

// run builds the stack and drives it for warm-up plus measure.
func (spec *senderSpec) run(rec *recorder, measure time.Duration) (*e2e, error) {
	res := &e2e{}
	st, err := spec.started(rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < spec.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !stop.Load() {
				if st.send(c) != nil {
					return
				}
			}
		}(c)
	}
	ph := observe(&st.done, spec.warmup, measure)
	stop.Store(true)
	wg.Wait()
	res.fold(st.finish())
	for _, l := range st.lat {
		res.latency = ph.windowed(l, res.latency)
	}
	res.fromPhase(ph)
	return res, nil
}

// gateErr turns a set-up stack's gate verdict into an error.
func gateErr(_, failed int64, problems []string) error {
	if failed > 0 {
		return fmt.Errorf("correctness gate: %s", strings.Join(problems, "; "))
	}
	return nil
}

// fold adds one stack's gate verdict to the run's.
func (e *e2e) fold(attempted, failed int64, found []string) {
	e.attempted += attempted
	e.failed += failed
	e.found = append(e.found, found...)
}

// freeUDPPorts finds two unused loopback ports. Both stations need each
// other's address up front, and ghm.DialUDP takes addresses, not sockets.
func freeUDPPorts() (int, int, error) {
	var ports [2]int
	for i := range ports {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		ports[i] = c.LocalAddr().(*net.UDPAddr).Port
	}
	return ports[0], ports[1], nil
}
