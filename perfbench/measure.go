package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// base anchors every timestamp the benchmark takes; now() is monotonic
// nanoseconds since process start.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// windows is how many slices a measured phase is cut into for the
// throughput median: a multi-millisecond scheduler stall then costs one
// slice's rate, not the whole phase's.
const windows = 20

// usage is a point-in-time reading of the process's resource counters
// and a workload's confirmed-message count.
type usage struct {
	at      int64
	done    int64
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage(done *atomic.Int64) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      now(),
		done:    done.Load(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the process's current resident set, from Linux's
// /proc/self/statm; 0 if it cannot be read.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// rssEvery paces the resident-set samples.
const rssEvery = 25 * time.Millisecond

// rssSampler samples the resident set while a measured phase runs.
type rssSampler struct {
	stop, done chan struct{}
	at         []int64
	mb         []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.at, s.mb = append(s.at, now()), append(s.mb, residentMB())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler. footprint is the median of the samples
// taken up to until: the built stack as load starts, before a stack that
// keeps state per message (mesh-wal does) has grown with the run's
// message count, so it does not track throughput. growth is the last
// sample less the first.
func (s *rssSampler) finish(until int64) (footprint, growth float64) {
	close(s.stop)
	<-s.done
	var early []float64
	for i, at := range s.at {
		if at <= until || i == 0 {
			early = append(early, s.mb[i])
		}
	}
	return median(early), s.mb[len(s.mb)-1] - s.mb[0]
}

// phase is one measured interval of a closed-loop workload.
type phase struct {
	start, end usage
	rates      []float64 // confirmed msgs/s in each window
	rssMB      float64   // resident set during the warm-up
	rssGrowth  float64   // resident set growth from the warm-up on
}

// observe lets the workload warm up, then samples its confirmed-message
// counter in windows across the measured interval.
func observe(done *atomic.Int64, warmup, measure time.Duration) phase {
	rss := sampleRSS()
	time.Sleep(warmup)
	p := phase{start: readUsage(done)}
	win := measure / windows
	prevAt, prevDone := p.start.at, p.start.done
	for i := 1; i <= windows; i++ {
		time.Sleep(time.Duration(p.start.at + int64(i)*int64(win) - now()))
		at, d := now(), done.Load()
		p.rates = append(p.rates, float64(d-prevDone)/time.Duration(at-prevAt).Seconds())
		prevAt, prevDone = at, d
	}
	p.end = readUsage(done)
	p.rssMB, p.rssGrowth = rss.finish(p.start.at)
	return p
}

// observeCount lets the workload confirm warm messages, then measures
// the next n as one interval: fixed work, for a workload whose cost per
// message changes with how many it has carried.
func observeCount(done *atomic.Int64, warm, n int64) phase {
	rss := sampleRSS()
	waitDone(done, warm)
	p := phase{start: readUsage(done)}
	waitDone(done, p.start.done+n)
	p.end = readUsage(done)
	p.rates = []float64{p.msgsPerSec()}
	p.rssMB, p.rssGrowth = rss.finish(p.start.at)
	return p
}

// waitDone polls until done reaches n; the watchdog ends a wedged run.
func waitDone(done *atomic.Int64, n int64) {
	for done.Load() < n {
		time.Sleep(100 * time.Microsecond)
	}
}

func (p phase) msgs() int64 { return p.end.done - p.start.done }

func (p phase) msgsPerSec() float64 {
	return float64(p.msgs()) / time.Duration(p.end.at-p.start.at).Seconds()
}

// span is one timed operation, in now() nanoseconds.
type span struct{ start, end int64 }

// reservoir keeps a uniform sample of at most reservoirCap spans
// (Algorithm R). Its memory is allocated once, so the benchmark's own
// heap — and with it the program's GC pacing — does not grow with the
// number of messages.
type reservoir struct {
	spans []span
	seen  uint64
	rng   uint64
}

const reservoirCap = 1 << 16

func newReservoir() *reservoir {
	return &reservoir{spans: make([]span, 0, reservoirCap), rng: 1}
}

func (r *reservoir) add(s span) {
	r.seen++
	if len(r.spans) < reservoirCap {
		r.spans = append(r.spans, s)
		return
	}
	r.rng = r.rng*6364136223846793005 + 1442695040888963407
	if j := (r.rng >> 1) % r.seen; j < reservoirCap {
		r.spans[j] = s
	}
}

// windowed sorts the durations of sampled spans that lie inside p into
// p's windows by completion time, appending to into.
func (p phase) windowed(r *reservoir, into [][]int64) [][]int64 {
	if into == nil {
		into = make([][]int64, windows)
	}
	win := (p.end.at - p.start.at) / windows
	for _, s := range r.spans {
		if s.start >= p.start.at && s.end <= p.end.at {
			i := min(int((s.end-p.start.at)/win), windows-1)
			into[i] = append(into[i], s.end-s.start)
		}
	}
	return into
}

// quantile is the nearest-rank q-quantile of xs (sorted in place); 0 for
// no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// minWindowSamples is the fewest samples a window needs to contribute a
// percentile.
const minWindowSamples = 100

// windowQuantile is the median over windows of each window's q-quantile,
// and the number of samples in all windows.
func windowQuantile(ws [][]int64, q float64) (v float64, n int) {
	var qs []float64
	for _, w := range ws {
		n += len(w)
		if len(w) >= minWindowSamples {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs), n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// e2e gathers one run's end-to-end measurements.
type e2e struct {
	msgsPerSec float64
	rateN      int // samples behind msgsPerSec
	// latency holds per-message latencies (ns) grouped by window or
	// segment; the percentiles are medians of the groups' percentiles,
	// so a stall that spoils a group or two does not move them.
	latency [][]int64
	// setups holds the set-up time of each segment's stack (isolated
	// workloads only).
	setups     []time.Duration
	cpuPerMsg  time.Duration
	rssMB      float64
	rssGrowth  float64
	allocs     float64
	allocBytes float64
	attempted  int64
	failed     int64
	// unfinished counts swarm messages a crash^T abandoned or the run's
	// end cut off: outcomes the protocol permits, so not failures, but
	// not successes either.
	unfinished int64
	found      []string // gate problems
}

// fromPhase fills the rate, CPU and allocation figures from p.
func (e *e2e) fromPhase(p phase) {
	e.msgsPerSec = median(p.rates)
	e.rateN = len(p.rates)
	e.rssMB, e.rssGrowth = p.rssMB, p.rssGrowth
	if n := p.msgs(); n > 0 {
		e.cpuPerMsg = (p.end.cpu - p.start.cpu) / time.Duration(n)
		e.allocs = float64(p.end.mallocs-p.start.mallocs) / float64(n)
		e.allocBytes = float64(p.end.bytes-p.start.bytes) / float64(n)
	}
}

// tail renders figures reported beside the end-to-end metrics but not
// gated: the latency p99, which swung by a quarter to a third between
// runs of udp-stopwait on a shared 2-vCPU Linux VM, where p90 held
// within a few percent; and the resident set's growth over the phase,
// which tracks the message count wherever the program keeps state per
// message.
func (e *e2e) tail() map[string]metric {
	p99, n := windowQuantile(e.latency, 0.99)
	return map[string]metric{
		"latency_p99_us": {Value: p99 / 1e3, Unit: "us", Samples: n},
		"rss_growth_mb":  {Value: e.rssGrowth, Unit: "MB"},
	}
}

// metrics renders the end-to-end metric set the benchmark declares.
func (e *e2e) metrics() map[string]metric {
	success := 0.0
	if e.attempted > 0 {
		success = 1 - float64(e.failed+e.unfinished)/float64(e.attempted)
	}
	p50, n := windowQuantile(e.latency, 0.50)
	p90, _ := windowQuantile(e.latency, 0.90)
	return map[string]metric{
		"msgs_per_s":          {Value: e.msgsPerSec, Unit: "1/s", Samples: e.rateN},
		"latency_p50_us":      {Value: p50 / 1e3, Unit: "us", Samples: n},
		"latency_p90_us":      {Value: p90 / 1e3, Unit: "us", Samples: n},
		"cpu_us_per_msg":      {Value: float64(e.cpuPerMsg) / 1e3, Unit: "us"},
		"allocs_per_msg":      {Value: e.allocs, Unit: "count"},
		"alloc_bytes_per_msg": {Value: e.allocBytes, Unit: "B"},
		"rss_mb":              {Value: e.rssMB, Unit: "MB"},
		"success_ratio":       {Value: success, Unit: "ratio"},
	}
}
