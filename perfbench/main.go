// Command perfbench is the repository's benchmark. It drives one named
// workload through the public ghm API (swarm-10k: through the virtual-time
// swarm simulator), checks every delivered payload, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as one
// JSON object on the last line of standard output. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload udp-stopwait --seed 1 --seconds 10 --trace 0
//
// README.md beside this file defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// watchdog bounds a whole invocation: a wedged stack must fail the run,
// not hang it.
const watchdog = 170 * time.Second

// config is one invocation's settings.
type config struct {
	seed    int64
	measure time.Duration // length of the measured phase
	trace   bool
	outDir  string   // this run's artifact directory
	args    []string // the command line, for the child runs
}

// workload is one named benchmark input.
type workload struct {
	name string
	// transport says what the traffic crossed.
	transport string
	run       func(cfg config) (*report, error)
	// setup times one build of the stack through its first delivered
	// message, then stops it. Isolated workloads have none: each of
	// their segments times its own set-up the same way.
	setup func(cfg config) (time.Duration, error)
	// segment measures one fixed-work segment (isolated workloads only).
	segment func(cfg config) (*e2e, error)
	// procs, when set, is the GOMAXPROCS of every process that runs the
	// workload.
	procs int
}

var workloads = []workload{
	{"udp-stopwait", "loopback-udp", runUDPStopWait, setupUDPStopWait, nil, 0},
	{"mesh-wal", "in-process-pipe", runMeshWAL, nil, segmentMesh, meshProcs},
	{"swarm-10k", "virtual-fabric", runSwarm10k, setupSwarm, nil, 0},
}

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for the workload's inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_out", "directory for reports, span dumps and profiles")
	setupRep := fs.Bool("setup-rep", false, "time one set-up and print its nanoseconds (the benchmark runs itself with this)")
	segmentRep := fs.Bool("segment", false, "measure one fixed-work segment and print it as JSON (the benchmark runs itself with this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)),
		args:    args,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *setupRep {
		if w.setup == nil {
			fmt.Fprintf(stderr, "perfbench: %s times its set-ups in its segments\n", w.name)
			return 2
		}
		d, err := w.setup(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, d.Nanoseconds())
		return 0
	}
	if *segmentRep {
		if w.segment == nil {
			fmt.Fprintf(stderr, "perfbench: %s is not measured in segments\n", w.name)
			return 2
		}
		e, err := w.segment(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: segment: %v\n", w.name, err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(toSegment(e)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	var setups []time.Duration
	if !cfg.trace && w.setup != nil {
		var err error
		if setups, err = childSetups(args); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if setups != nil {
		rep.EndToEnd["setup_s"] = setupMetric(setups)
	}
	rep.Workload = w.name
	rep.Env = environment(cfg.seed, w.transport)
	if err := rep.write(cfg, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness gate failed: %s\n", w.name, strings.Join(rep.Problems, "; "))
		return 1
	}
	return 0
}

func setupMetric(setups []time.Duration) metric {
	return metric{Value: medianDuration(setups).Seconds(), Unit: "s", Samples: len(setups)}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one named measurement with its unit and, for samples, how
// many went into it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// env records where a result was measured.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Seed       int64  `json:"seed"`
	Transport  string `json:"transport"`
}

func environment(seed int64, transport string) env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       seed,
		Transport:  transport,
	}
}

// report is one invocation's outcome.
type report struct {
	Workload  string   `json:"workload"`
	Env       env      `json:"env"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// EndToEnd holds the untraced metrics; with --trace 1 they come from
	// the untraced phase that prices the tracing overhead.
	EndToEnd map[string]metric `json:"end_to_end"`
	// Tail holds untraced figures reported but not gated (see e2e.tail).
	Tail map[string]metric `json:"tail"`
	// PerLayer holds the traced metrics (--trace 1 only).
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// add folds one phase's gate results into the report.
func (r *report) add(e *e2e) {
	r.Attempted += e.attempted
	r.Failed += e.failed
	r.Problems = append(r.Problems, e.found...)
}

// summary is the result line printed last on stdout.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write saves the full report as report.json, prints a readable table,
// and prints the summary line last.
func (r *report) write(cfg config, stdout io.Writer) error {
	r.Correct = len(r.Problems) == 0
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "report.json"), append(full, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	e := r.Env
	fmt.Fprintf(stdout, "workload %s  seed=%d  transport=%s  %s GOMAXPROCS=%d nproc=%d %s/%s\n",
		r.Workload, e.Seed, e.Transport, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.GOOS, e.GOARCH)
	fmt.Fprintf(stdout, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(stdout, "  gate: %s\n", p)
	}
	printTable(stdout, "end to end", r.EndToEnd)
	printTable(stdout, "tail (not gated)", r.Tail)
	printTable(stdout, "per layer", r.PerLayer)
	fmt.Fprintf(stdout, "artifacts in %s\n", cfg.outDir)

	m := r.EndToEnd
	if cfg.trace {
		m = r.PerLayer
	}
	line, err := json.Marshal(summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: stripSamples(m)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func printTable(w io.Writer, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		if v.Samples > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-7s n=%d\n", n, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, v.Value, v.Unit)
		}
	}
}

func stripSamples(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}
