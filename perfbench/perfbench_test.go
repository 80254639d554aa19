package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the command when the
// command runs itself to time a set-up or measure a segment (see child).
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--setup-rep") || slices.Contains(os.Args, "--segment") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// smoke is a run short enough for a unit test: every phase of a traced
// run of workload name, 100 ms each.
func smoke(t *testing.T, name string) config {
	dir := t.TempDir()
	return config{
		seed: 7, measure: 300 * time.Millisecond, trace: true, outDir: dir,
		args: []string{"--workload", name, "--seed", "7", "--out", dir},
	}
}

// checkReport checks a traced smoke run: a clean gate, and every
// declared per-layer metric (the traced run prints no set-up time, so
// the end-to-end set lacks only setup_s).
func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if len(rep.Problems) > 0 || rep.Attempted == 0 || rep.Failed > rep.Attempted {
		t.Fatalf("attempted=%d failed=%d problems=%v", rep.Attempted, rep.Failed, rep.Problems)
	}
	e2e, layer := declared(t)
	e2e = slices.DeleteFunc(e2e, func(n string) bool { return n == "setup_s" })
	slices.Sort(e2e)
	slices.Sort(layer)
	if got := names(rep.EndToEnd); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics %v, declared %v", got, e2e)
	}
	if got := names(rep.PerLayer); !slices.Equal(got, layer) {
		t.Errorf("per-layer metrics %v, declared %v", got, layer)
	}
	if rep.EndToEnd["msgs_per_s"].Value <= 0 || rep.PerLayer["bench.trace_overhead"].Value <= 0 {
		t.Errorf("no throughput: %+v / %+v", rep.EndToEnd["msgs_per_s"], rep.PerLayer["bench.trace_overhead"])
	}
}

func TestSmokeUDPStopWait(t *testing.T) {
	rep, err := runUDPStopWait(smoke(t, "udp-stopwait"))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.PerLayer["netlink.link_data_us.p50"].Samples == 0 || rep.PerLayer["ghm.wake_us.p50"].Samples == 0 {
		t.Errorf("stop-and-wait spans missing: %+v", rep.PerLayer)
	}
}

func TestSmokeMeshWAL(t *testing.T) {
	rep, err := runMeshWAL(smoke(t, "mesh-wal"))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.PerLayer["relay.hops_per_msg"].Value <= 0 || rep.PerLayer["relay.submit_us.p50"].Samples == 0 {
		t.Errorf("relay metrics missing: %+v", rep.PerLayer)
	}
}

func TestSmokeSwarm(t *testing.T) {
	rep, err := runSwarm(smoke(t, "swarm-10k"), swarmConfig(7, 1000, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep)
	if rep.PerLayer["fabric.packets_per_msg"].Value <= 0 || rep.PerLayer["clock.instants_per_s"].Value <= 0 {
		t.Errorf("swarm metrics missing: %+v", rep.PerLayer)
	}
}

// TestStopWaitSpansSumToLatency checks the udp-stopwait split: for every
// Send, the chain spans it could place plus ghm.unattributed_us equal its
// latency, and nearly every Send is placed whole.
func TestStopWaitSpansSumToLatency(t *testing.T) {
	spec := &senderSpec{seed: 3, callers: 1, payload: 32, warmup: 50 * time.Millisecond, build: buildUDP}
	rec := newRecorder()
	res, err := spec.run(rec, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("gate: %v", res.found)
	}
	chains := stopWaitChains(rec.events(), func(int64) {}, func(int64) {})
	if int64(len(chains)) != res.attempted {
		t.Fatalf("split %d Sends, made %d", len(chains), res.attempted)
	}
	whole := 0
	for _, c := range chains {
		d, ok, un := c.spans()
		sum := un
		complete := true
		for i := range d {
			if ok[i] {
				sum += d[i]
			} else {
				complete = false
			}
		}
		if lat := c.t[chainPoints-1] - c.t[0]; sum != lat {
			t.Fatalf("message %x: spans %v + unattributed %d = %d, latency %d", c.key, d, un, sum, lat)
		}
		if complete {
			whole++
		}
	}
	if whole < len(chains)*9/10 {
		t.Errorf("only %d of %d Sends split whole", whole, len(chains))
	}
}

// TestChainGap checks that a point the log could not place moves its
// neighbouring spans into ghm.unattributed_us.
func TestChainGap(t *testing.T) {
	c := chainMsg{t: [chainPoints]int64{0, 1, 3, 10, 12, 13, 20, 21, 25}}
	if _, _, un := c.spans(); un != 0 {
		t.Fatalf("whole chain: unattributed %d", un)
	}
	c.t[3] = -1 // DATA receive not found
	d, ok, un := c.spans()
	if ok[2] || ok[3] || un != 9 || d[1] != 2 {
		t.Fatalf("gap: spans %v ok %v unattributed %d", d, ok, un)
	}
}

func TestGateFlagsPlantedFaults(t *testing.T) {
	p := newPayloads(1, 32)
	for _, tc := range []struct {
		name      string
		ordered   bool
		deliver   []uint64
		confirmed uint64
		failed    int64
		problem   string
	}{
		{"clean", true, []uint64{0, 1, 2}, 3, 0, ""},
		{"missing", true, []uint64{0, 1, 3}, 4, 1, "never delivered"},
		{"duplicate", true, []uint64{0, 1, 1, 2}, 3, 1, "duplicate"},
		{"reordered", true, []uint64{0, 2, 1}, 3, 1, "out-of-order"},
		{"unordered set", false, []uint64{2, 0, 1}, 3, 0, ""},
		{"set missing and duplicate", false, []uint64{2, 2, 0}, 3, 2, "duplicate"},
	} {
		g := newGate(1, tc.ordered, p)
		for _, seq := range tc.deliver {
			g.deliver(p.make(0, seq))
		}
		failed, problems := g.verdict([]uint64{tc.confirmed}, 0)
		named := len(problems) == 0
		if tc.problem != "" {
			named = strings.Contains(strings.Join(problems, ";"), tc.problem)
		}
		if failed != tc.failed || !named {
			t.Errorf("%s: failed=%d problems=%v, want %d failures naming %q", tc.name, failed, problems, tc.failed, tc.problem)
		}
	}

	g := newGate(1, true, p)
	bad := p.make(0, 0)
	bad[len(bad)-1] ^= 1
	g.deliver(bad)
	g.deliver(p.make(5, 0)) // no such caller
	if failed, problems := g.verdict([]uint64{0}, 0); failed != 2 {
		t.Errorf("corrupt payloads: failed=%d problems=%v", failed, problems)
	}
}

func TestReservoirKeepsCap(t *testing.T) {
	r := newReservoir()
	for i := 0; i < 3*reservoirCap; i++ {
		r.add(span{int64(i), int64(i) + 1})
	}
	if len(r.spans) != reservoirCap || cap(r.spans) != reservoirCap {
		t.Fatalf("len %d cap %d", len(r.spans), cap(r.spans))
	}
	late := 0
	for _, s := range r.spans {
		if s.start >= reservoirCap {
			late++
		}
	}
	// Two thirds of the stream came after the first fill; a uniform
	// sample keeps about that share of it.
	if late < reservoirCap/2 || late > reservoirCap*5/6 {
		t.Errorf("%d of %d samples from the later stream", late, reservoirCap)
	}
}

// TestCommandContract checks the command line: the last stdout line is
// the summary object with exactly the end-to-end metrics, and bad
// arguments fail without one.
func TestCommandContract(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "udp-stopwait", "--seed", "2", "--seconds", "0.2", "--trace", "0", "--out", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range sum {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("summary keys %v", keys)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	e2e, _ := declared(t)
	slices.Sort(e2e)
	if got := names(metrics); !slices.Equal(got, e2e) {
		t.Errorf("summary metrics %v, declared %v", got, e2e)
	}
	if s := metrics["setup_s"]; s.Value <= 0 {
		t.Errorf("setup_s %v", s)
	}

	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "udp-stopwait", "--trace", "2"},
		{"--workload", "udp-stopwait", "--seconds", "0"},
	} {
		out.Reset()
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
