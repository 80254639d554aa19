package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// loadSpec is a workload on the runtime stack (everything but the swarm).
type loadSpec struct {
	payload int // bytes per message
	// run builds the stack and measures it; rec is nil when untraced.
	run func(rec *recorder, measure time.Duration) (*e2e, error)
	// analyze turns a traced phase's event log into span samples.
	analyze func(ev []event, sp *spans)
	// gauges maps per-layer metric names to the registry gauges whose
	// mean they report.
	gauges map[string]string
	// counts adds workload-specific registry deltas over a traced phase
	// that confirmed msgs messages.
	counts func(lm map[string]metric, before, after map[string]int64, msgs float64)
	// isolated workloads measure their untraced phase as fixed-work
	// segments, each in a fresh process (see childSegments); run then
	// measures one segment and ignores its measure argument.
	isolated bool
}

// runLoad runs spec's phases. Untraced, it is one measured phase.
// Traced, the measured time is split three ways: an untraced phase (the
// baseline the tracing overhead is priced against), a traced phase (the
// per-layer metrics), and an untraced phase under the CPU profiler.
func runLoad(cfg config, spec loadSpec) (*report, error) {
	measure := cfg.measure
	if cfg.trace {
		measure /= 3
	}
	var a *e2e
	var err error
	if spec.isolated {
		a, err = childSegments(cfg.args, measure)
	} else {
		a, err = spec.run(nil, measure)
	}
	if err != nil {
		return nil, err
	}
	rep := &report{EndToEnd: a.metrics(), Tail: a.tail()}
	if spec.isolated && !cfg.trace {
		rep.EndToEnd["setup_s"] = setupMetric(a.setups)
	}
	rep.add(a)
	if !cfg.trace {
		return rep, nil
	}
	b, err := spec.traced(cfg, measure, a.msgsPerSec, rep)
	if err != nil {
		return nil, err
	}
	rep.add(b)
	c, err := profiled(cfg.outDir, func() (*e2e, error) { return spec.run(nil, measure) })
	if err != nil {
		return nil, err
	}
	rep.add(c)
	return rep, nil
}

// traced runs the traced phase, fills rep.PerLayer and writes the span
// dump. untracedRate prices the tracing overhead.
func (spec loadSpec) traced(cfg config, measure time.Duration, untracedRate float64, rep *report) (*e2e, error) {
	rec := newRecorder()
	var names, gauges []string
	for n, g := range spec.gauges {
		names, gauges = append(names, n), append(gauges, g)
	}
	before := counters()
	sampler := sampleGauges(gauges...)
	b, err := spec.run(rec, measure)
	means := sampler.means()
	if err != nil {
		return nil, err
	}
	after := counters()

	lm := newLayerMetrics()
	set := func(name string, v float64) { lm[name] = metric{Value: v, Unit: lm[name].Unit} }
	ev := rec.events()
	sp := newSpans()
	spec.analyze(ev, sp)
	sp.into(lm)
	msgs := float64(b.attempted - b.failed)
	netlinkCounts(lm, before, after, msgs)
	if spec.counts != nil {
		spec.counts(lm, before, after, msgs)
	}
	wire := wireBytes(ev)
	set("netlink.wire_bytes_per_msg", float64(wire)/msgs)
	set("netlink.payload_ratio", msgs*float64(spec.payload)/float64(wire))
	for i, n := range names {
		set(n, means[i])
	}
	set("bench.trace_overhead", b.msgsPerSec/untracedRate)
	rep.PerLayer = lm
	return b, sp.dump(cfg.outDir)
}

// profiled runs fn under the CPU profiler, then writes the process's
// allocation profile beside it.
func profiled(dir string, fn func() (*e2e, error)) (*e2e, error) {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	res, err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	af, err := os.Create(filepath.Join(dir, "allocs.pprof"))
	if err != nil {
		return nil, err
	}
	defer af.Close()
	if err := pprof.Lookup("allocs").WriteTo(af, 0); err != nil {
		return nil, err
	}
	return res, af.Close()
}

// wireBytes totals the bytes handed to traced conns.
func wireBytes(ev []event) int64 {
	var n int64
	for _, e := range ev {
		if e.kind == evPktSend {
			n += int64(e.size)
		}
	}
	return n
}
