package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many set-ups a run of a workload that is not
// isolated times; setup_s is their median.
const setupReps = 51

// minSegments is the fewest fixed-work segments a measurement makes.
const minSegments = 3

// child runs this program once more with args and flag added, waits for
// it, and returns its standard output. A fresh process per set-up or
// segment keeps each clear of what earlier stacks leave behind: a
// stopped ghm.Mesh leaks one timer wheel per hop session, still ticking
// every 100 µs, and ten stopped meshes took most of a core.
func child(args []string, flag string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append(args[:len(args):len(args)], flag)...)
	// The child dies with this process, so the watchdog's exit leaves
	// nothing running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// childSetups times setupReps set-ups, each in a fresh process, started
// and waited for one at a time.
func childSetups(args []string) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		b, err := child(args, "--setup-rep")
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out = append(out, time.Duration(ns))
	}
	return out, nil
}

// segment is one fixed-work measurement as a child process reports it.
type segment struct {
	Rate       float64  `json:"rate"`
	CPUPerMsg  float64  `json:"cpu_ns_per_msg"`
	Allocs     float64  `json:"allocs_per_msg"`
	AllocBytes float64  `json:"alloc_bytes_per_msg"`
	RSSMB      float64  `json:"rss_mb"`
	RSSGrowth  float64  `json:"rss_growth_mb"`
	LatencyNs  []int64  `json:"latency_ns"`
	SetupNs    int64    `json:"setup_ns"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Problems   []string `json:"problems,omitempty"`
}

func toSegment(e *e2e) segment {
	var lat []int64
	for _, g := range e.latency {
		lat = append(lat, g...)
	}
	return segment{
		Rate: e.msgsPerSec, CPUPerMsg: float64(e.cpuPerMsg), Allocs: e.allocs, AllocBytes: e.allocBytes,
		RSSMB: e.rssMB, RSSGrowth: e.rssGrowth, LatencyNs: lat, SetupNs: int64(medianDuration(e.setups)),
		Attempted: e.attempted, Failed: e.failed, Problems: e.found,
	}
}

// childSegments measures fixed-work segments, each in a fresh process
// started with --segment, one at a time, until budget is spent and at
// least minSegments have run. The result holds the median segment's
// rate, CPU, allocation and resident-set figures, every segment's
// latencies pooled in one group, every segment's set-up time, and every
// segment's gate verdict.
//
// Set-ups are taken from the segments, not from a burst of set-ups
// before them, because a mesh set-up (a WAL fsync per directed hop, then
// a first delivery that waits on hop retry timers) followed the host:
// the median of 51 taken together read 7 ms in one set of runs and
// 10–21 ms in the next, a few minutes later. Spread over the run, the
// samples see what the segments see.
//
// The latencies are pooled because a mesh segment's latency distribution
// has several modes (a route whose hops fell behind delivers late), and
// where its median falls between them moved from segment to segment by
// a factor of two or more; the median of the segments' percentiles then
// spread by 15% over runs, where their throughput spread by 11%.
func childSegments(args []string, budget time.Duration) (*e2e, error) {
	var segs []segment
	for t0 := time.Now(); len(segs) < minSegments || time.Since(t0) < budget; {
		b, err := child(args, "--segment")
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", len(segs), err)
		}
		var s segment
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("segment %d: %w", len(segs), err)
		}
		segs = append(segs, s)
	}
	res := &e2e{rateN: len(segs)}
	pick := func(f func(s segment) float64) float64 {
		xs := make([]float64, len(segs))
		for i, s := range segs {
			xs[i] = f(s)
		}
		return median(xs)
	}
	res.msgsPerSec = pick(func(s segment) float64 { return s.Rate })
	res.cpuPerMsg = time.Duration(pick(func(s segment) float64 { return s.CPUPerMsg }))
	res.allocs = pick(func(s segment) float64 { return s.Allocs })
	res.allocBytes = pick(func(s segment) float64 { return s.AllocBytes })
	res.rssMB = pick(func(s segment) float64 { return s.RSSMB })
	res.rssGrowth = pick(func(s segment) float64 { return s.RSSGrowth })
	var lat []int64
	for _, s := range segs {
		lat = append(lat, s.LatencyNs...)
		res.setups = append(res.setups, time.Duration(s.SetupNs))
		res.fold(s.Attempted, s.Failed, s.Problems)
	}
	res.latency = [][]int64{lat}
	return res, nil
}
