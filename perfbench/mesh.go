package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ghm"
)

// mesh-wal: ghm.Mesh on the canonical five-node, three-route topology
// (two-hop routes 0-1-4, 0-2-4, 0-3-4) over fault-free ghm.Pipe links,
// with a forwarding WAL on every hop and 128 B payloads. A closed loop
// keeps 64 payloads outstanding: the next Submit waits for a delivery.
// The deepest stack — relay, supervised sessions and outbox WAL writes
// on every hop — and CPU-bound on the one core it runs on (meshProcs).
//
// The mesh keeps state for every message it has carried (about 6 KB),
// so its heap, and the length of each GC mark, grows with the message
// count: measured by the clock, a run's figures depend on where the
// latest, longest GC cycles fall. It is measured by work instead, in
// segments: a fresh mesh, in a fresh process, delivers meshWarmupMsgs
// and then meshSegmentMsgs timed messages. Segments differ by about a
// seventh in throughput (each settles at its own rate of receiver
// retries), so a run takes the median of many short ones.
var meshTopology = ghm.Topology{
	Nodes: 5,
	Links: []ghm.Link{{A: 0, B: 1}, {A: 1, B: 4}, {A: 0, B: 2}, {A: 2, B: 4}, {A: 0, B: 3}, {A: 3, B: 4}},
}

const (
	meshOutstanding = 64
	meshPayload     = 128
	meshSource      = 0
	meshDest        = 4
	meshWarmupMsgs  = 1_000
	meshSegmentMsgs = 5_000
)

// meshProcs is the mesh's GOMAXPROCS. Its twelve hop timer wheels tick
// every 100 µs, so the mesh takes every core it is given whatever its
// load. On two shared cores its throughput, latency and CPU per message
// then followed whatever else ran on the machine: a busy loop on one
// core cut its throughput by 28% and its CPU per message by 18%. On
// one core the same busy loop left both medians within 1%.
const meshProcs = 1

// meshTmp is where a run's meshes keep their WALs.
func meshTmp(cfg config) string { return filepath.Join(cfg.outDir, "tmp") }

func segmentMesh(cfg config) (*e2e, error) { return runMesh(cfg.seed, meshTmp(cfg), nil) }

func runMeshWAL(cfg config) (*report, error) {
	tmp := meshTmp(cfg)
	return runLoad(cfg, loadSpec{
		payload: meshPayload,
		run: func(rec *recorder, _ time.Duration) (*e2e, error) {
			return runMesh(cfg.seed, tmp, rec)
		},
		isolated: true,
		analyze:  analyzeMesh,
		gauges:   map[string]string{"session.backlog_mean": "session.backlog"},
		counts: func(lm map[string]metric, before, after map[string]int64, msgs float64) {
			set := func(name string, v float64) { lm[name] = metric{Value: v, Unit: lm[name].Unit} }
			set("relay.hops_per_msg", float64(delta(before, after, "relay.hops"))/msgs)
			set("relay.reroutes", float64(delta(before, after, "relay.reroutes")))
			set("relay.dup_suppressed", float64(delta(before, after, "relay.dup_suppressed")))
			set("session.resubmits", float64(delta(before, after, "session.resubmits")))
			set("session.restarts", float64(delta(before, after, "session.restarts")))
		},
	})
}

// meshStack is one built mesh under the closed loop. The submitter
// goroutine and the drain goroutine are its two callers.
type meshStack struct {
	m      *ghm.Mesh
	walDir string
	pl     payloads
	gate   *gate // drain goroutine only
	rec    *recorder
	tokens chan struct{} // one per payload allowed outstanding

	mu        sync.Mutex
	submitted []int64 // submit time per seq

	done       atomic.Int64 // distinct deliveries
	submitErrs atomic.Int64
	lat        *reservoir // drain goroutine only until drained is closed
	drained    chan struct{}
}

func startMesh(seed int64, tmp string, rec *recorder) (*meshStack, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	wal, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, err
	}
	links := make([]ghm.LinkConns, len(meshTopology.Links))
	for i := range links {
		a, b := ghm.Pipe(ghm.PipeFaults{Seed: seed*16 + int64(i) + 1})
		links[i].A, links[i].B = rec.link(i, a, b)
	}
	m, err := ghm.NewMesh(ghm.MeshConfig{
		Topology: meshTopology,
		Links:    links,
		Source:   meshSource,
		Dest:     meshDest,
		Routes:   3,
		WALDir:   wal,
	})
	if err != nil {
		for _, l := range links {
			l.A.Close()
			l.B.Close()
		}
		os.RemoveAll(wal)
		return nil, err
	}
	pl := newPayloads(seed, meshPayload)
	st := &meshStack{
		m: m, walDir: wal, pl: pl, rec: rec,
		gate:    newGate(1, false, pl),
		tokens:  make(chan struct{}, meshOutstanding),
		lat:     newReservoir(),
		drained: make(chan struct{}),
	}
	for i := 0; i < meshOutstanding; i++ {
		st.tokens <- struct{}{}
	}
	go st.drain()
	return st, nil
}

// drain checks every delivery and hands its token back. It ends when
// Close closes the Delivered channel.
func (st *meshStack) drain() {
	defer close(st.drained)
	for p := range st.m.Delivered() {
		at := now()
		seq := payloadKey(p) & (1<<48 - 1)
		st.mu.Lock()
		sub := int64(-1)
		if seq < uint64(len(st.submitted)) {
			sub = st.submitted[seq]
		}
		st.mu.Unlock()
		first := st.gate.uniq
		st.gate.deliver(p)
		if st.gate.uniq == first {
			continue // duplicate or corrupt: the gate counted it
		}
		if sub >= 0 {
			st.lat.add(span{sub, at})
		}
		st.done.Add(1)
		st.tokens <- struct{}{}
	}
}

// submit injects the next payload once a token is free; false when the
// mesh refused it.
func (st *meshStack) submit() bool {
	<-st.tokens
	st.mu.Lock()
	seq := uint64(len(st.submitted))
	st.submitted = append(st.submitted, now())
	st.mu.Unlock()
	k := msgKey(0, seq)
	st.rec.call(evCall, k)
	_, err := st.m.Submit(st.pl.make(0, seq))
	st.rec.call(evReturn, k)
	if err != nil {
		st.submitErrs.Add(1)
		return false
	}
	return true
}

func (st *meshStack) finish() (attempted, failed int64, problems []string) {
	st.mu.Lock()
	n := int64(len(st.submitted))
	st.mu.Unlock()
	want := n - st.submitErrs.Load()
	for deadline := time.Now().Add(drainTimeout); st.done.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	st.m.Close()
	<-st.drained
	os.RemoveAll(st.walDir)
	failed, problems = st.gate.verdict([]uint64{uint64(n)}, st.submitErrs.Load())
	return n, failed, problems
}

// startedMesh builds a mesh and waits for its first payload to arrive.
func startedMesh(seed int64, tmp string, rec *recorder) (*meshStack, error) {
	st, err := startMesh(seed, tmp, rec)
	if err != nil {
		return nil, err
	}
	if !st.submit() {
		st.finish()
		return nil, fmt.Errorf("first submit failed")
	}
	for t0 := time.Now(); st.done.Load() < 1 && time.Since(t0) < drainTimeout; {
		time.Sleep(50 * time.Microsecond)
	}
	return st, nil
}

// runMesh builds a mesh, timing the build through its first delivered
// payload as the segment's set-up, and measures one segment of it.
func runMesh(seed int64, tmp string, rec *recorder) (*e2e, error) {
	t0 := time.Now()
	st, err := startedMesh(seed, tmp, rec)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &e2e{setups: []time.Duration{time.Since(t0)}}

	var stop atomic.Bool
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for !stop.Load() && st.submit() {
		}
	}()
	ph := observeCount(&st.done, meshWarmupMsgs, meshSegmentMsgs)
	stop.Store(true)
	<-submitted
	res.fold(st.finish())
	res.latency = [][]int64{slices.Concat(ph.windowed(st.lat, nil)...)}
	res.fromPhase(ph)
	return res, nil
}

// analyzeMesh fills the mesh-wal spans: the Submit call itself and
// per-packet transit over all six links.
func analyzeMesh(ev []event, sp *spans) {
	pm := newPacketMatcher()
	called := make(map[uint64]int64)
	for _, e := range ev {
		switch e.kind {
		case evPktSend:
			pm.see(e)
		case evPktRecv:
			if s, ok := pm.see(e); ok {
				sp.add("netlink.link_transit_us", e.at-s)
			}
		case evCall:
			called[e.key] = e.at
		case evReturn:
			if t, ok := called[e.key]; ok {
				sp.add("relay.submit_us", e.at-t)
				delete(called, e.key)
			}
		}
	}
}
