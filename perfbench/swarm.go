package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"ghm/internal/swarm"
	"ghm/internal/trace"
)

// swarm-10k: swarm.Run with 10,000 stations on the default link profile
// (10% loss, 5% duplication, 5 ms latency, 5 ms jitter) and fault
// profile (one crash, blackout or loss pulse every 25 ms). The
// single-threaded virtual-time simulator — core machines, fabric and
// clock.Virtual — bypasses engine, netlink, session and relay, so a win
// there must not show here, and the reverse.
const (
	swarmStations = 10_000
	swarmVirtual  = 10 * time.Second
	// swarmMinRuns is the fewest timed runs a measurement makes, so the
	// trace-hash comparison always has a repeat to compare.
	swarmMinRuns = 2
)

func swarmConfig(seed int64, stations int, virtual time.Duration) swarm.Config {
	return swarm.Config{
		Stations:   stations,
		Duration:   virtual,
		Seed:       seed,
		MsgEvery:   2 * time.Second,
		RetryEvery: time.Second,
		Link: swarm.LinkProfile{
			Loss:    0.1,
			DupProb: 0.05,
			Latency: 5 * time.Millisecond,
			Jitter:  5 * time.Millisecond,
		},
		Faults: swarm.FaultProfile{Every: 25 * time.Millisecond},
		Sample: 64,
	}
}

func runSwarm10k(cfg config) (*report, error) {
	return runSwarm(cfg, swarmConfig(cfg.seed, swarmStations, swarmVirtual))
}

// swarmGate checks every run of one seed: each must be Clean (all
// sampled pairs pass the Section 2.6 checkers) and replay the same
// trace. A run that fails either check fails all its messages.
type swarmGate struct {
	hash     string
	failed   int64
	problems []string
}

func (g *swarmGate) check(res *swarm.Result) {
	bad := false
	if !res.Clean {
		bad = true
		g.problems = append(g.problems, fmt.Sprintf("sampled pairs not clean (trace %s)", res.TraceHash))
	}
	switch {
	case g.hash == "":
		g.hash = res.TraceHash
	case res.TraceHash != g.hash:
		bad = true
		g.problems = append(g.problems, fmt.Sprintf("trace hash %s differs from %s for the same seed", res.TraceHash, g.hash))
	}
	if bad {
		g.failed += res.Attempted
	}
}

// confirmLatency reads the swarm's trace stream and collects each
// message's send_msg → OK latency in virtual time. A crash^T abandons
// the pair's pending message.
type confirmLatency struct {
	pending map[int64]int64 // pair → virtual ns of its unconfirmed send_msg
	lat     []int64
}

// Write takes one trace line: "s<pair> <virtual ns> <kind> <msg>\n".
func (c *confirmLatency) Write(line []byte) (int, error) {
	f := bytes.SplitN(line[1:], []byte{' '}, 4)
	if len(f) < 3 {
		return 0, fmt.Errorf("swarm trace line %q", line)
	}
	pair, err1 := strconv.ParseInt(string(f[0]), 10, 64)
	at, err2 := strconv.ParseInt(string(f[1]), 10, 64)
	kind, err3 := strconv.Atoi(string(f[2]))
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, fmt.Errorf("swarm trace line %q", line)
	}
	switch trace.Kind(kind) {
	case trace.KindSendMsg:
		c.pending[pair] = at
	case trace.KindOK:
		if t, ok := c.pending[pair]; ok {
			c.lat = append(c.lat, at-t)
			delete(c.pending, pair)
		}
	case trace.KindCrashT:
		delete(c.pending, pair)
	}
	return len(line), nil
}

// setupSwarm times one boot of the world: stations, links and timers,
// all the work a run does before its first virtual instant.
func setupSwarm(cfg config) (time.Duration, error) {
	boot := swarmConfig(cfg.seed, swarmStations, time.Nanosecond)
	t0 := time.Now()
	_, err := swarm.Run(boot)
	return time.Since(t0), err
}

// runSwarm makes one run with the trace stream attached (the virtual
// confirm latencies; with --trace 1 also the traced throughput), then
// repeats timed runs of the same seed until the measured time is spent.
func runSwarm(cfg config, sc swarm.Config) (*report, error) {
	res := &e2e{}
	g := &swarmGate{}

	cl := &confirmLatency{pending: make(map[int64]int64)}
	traced := sc
	traced.TraceWriter = cl
	tr, err := swarm.Run(traced)
	if err != nil {
		return nil, err
	}
	g.check(tr)
	res.attempted += tr.Attempted
	res.unfinished += tr.Attempted - tr.Completed
	res.latency = [][]int64{cl.lat}

	// Timed runs of the same seed until the measured time is spent.
	budget := cfg.measure
	if cfg.trace {
		budget /= 2
	}
	var runs []*swarm.Result
	var rates []float64
	var none atomic.Int64 // runs are counted whole, not per message
	rss := sampleRSS()
	start := readUsage(&none)
	for t0 := time.Now(); len(runs) < swarmMinRuns || time.Since(t0) < budget; {
		r, err := swarm.Run(sc)
		if err != nil {
			return nil, err
		}
		g.check(r)
		runs = append(runs, r)
		rates = append(rates, float64(r.Completed)/r.WallSeconds)
		res.attempted += r.Attempted
		res.unfinished += r.Attempted - r.Completed
	}
	end := readUsage(&none)
	res.rssMB, res.rssGrowth = rss.finish(start.at + int64(budget/windows))
	var completed int64
	for _, r := range runs {
		completed += r.Completed
	}
	res.msgsPerSec = median(rates)
	res.rateN = len(rates)
	res.cpuPerMsg = (end.cpu - start.cpu) / time.Duration(completed)
	res.allocs = float64(end.mallocs-start.mallocs) / float64(completed)
	res.allocBytes = float64(end.bytes-start.bytes) / float64(completed)

	rep := &report{EndToEnd: res.metrics(), Tail: res.tail()}
	rep.add(res)
	if !cfg.trace {
		rep.Problems, rep.Failed = g.problems, rep.Failed+g.failed
		return rep, nil
	}

	lm := newLayerMetrics()
	set := func(name string, v float64) { lm[name] = metric{Value: v, Unit: lm[name].Unit} }
	r := runs[0]
	set("fabric.packets_per_msg", float64(r.PacketsSent)/float64(r.Completed))
	set("fabric.drop_ratio", float64(r.PacketsDropped)/float64(r.PacketsSent))
	set("clock.instants_per_msg", float64(r.Instants)/float64(r.Completed))
	var instRates, vsecRates []float64
	for _, r := range runs {
		instRates = append(instRates, float64(r.Instants)/r.WallSeconds)
		vsecRates = append(vsecRates, r.Rate)
	}
	set("clock.instants_per_s", median(instRates))
	set("swarm.station_vsec_per_s", median(vsecRates))
	set("bench.trace_overhead", float64(tr.Completed)/tr.WallSeconds/res.msgsPerSec)
	rep.PerLayer = lm

	pr, err := profiled(cfg.outDir, func() (*e2e, error) {
		r, err := swarm.Run(sc)
		if err != nil {
			return nil, err
		}
		g.check(r)
		return &e2e{attempted: r.Attempted, unfinished: r.Attempted - r.Completed}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.add(pr)
	rep.Problems, rep.Failed = g.problems, rep.Failed+g.failed
	return rep, nil
}
