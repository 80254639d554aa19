package relay

import (
	"fmt"
	"testing"
	"time"

	"ghm/internal/clock"
	"ghm/internal/metrics"
	"ghm/internal/netlink"
	"ghm/internal/supervise"
)

// virtualLine builds a fault-free three-node line 0 - 1 - 2 (one route,
// source 0, dest 2) whose links, hop sessions and ack timer all ride one
// virtual clock. Every link has 1ms of virtual latency so a round trip
// spans several instants the test can step between.
func virtualLine(t *testing.T, seed int64, cfg Config) (*Mesh, *clock.Virtual, testLinks) {
	t.Helper()
	v := clock.NewVirtual(time.Time{}, seed)
	v.SetSettle(4)
	reg := metrics.New()
	topo := Topology{Nodes: 3, Links: []Link{{A: 0, B: 1}, {A: 1, B: 2}}}
	tl := buildLinks(topo, seed, reg, netlink.ImpairConfig{Latency: time.Millisecond, Clock: v})
	cfg.Topology, cfg.Links = topo, tl.conns
	cfg.Source, cfg.Dest, cfg.Routes = 0, 2, 1
	cfg.Seed, cfg.Metrics, cfg.Clock = seed, reg, v
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { closeVirtual(m, v) })
	return m, v, tl
}

// closeVirtual closes a virtual-clock mesh while a goroutine keeps
// virtual time moving, so teardown never waits on a frozen clock.
func closeVirtual(m *Mesh, v *clock.Virtual) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v.Run(v.Now().Add(time.Hour), stop)
	}()
	m.Close()
	close(stop)
	<-done
}

// advanceUntil steps the virtual clock in 100µs slices until cond holds
// or limit of virtual time has passed, reporting whether cond held.
func advanceUntil(v *clock.Virtual, limit time.Duration, cond func() bool) bool {
	end := v.Now().Add(limit)
	for !cond() {
		if !v.Now().Before(end) {
			return false
		}
		v.AdvanceBy(100 * time.Microsecond)
	}
	return true
}

// TestRouterVirtualNoSpuriousReroutes: on a fault-free mesh every ack
// returns well inside AckTimeout, so the router re-dispatches nothing.
// The run takes about 90ms of virtual time; the generous timeouts keep
// it clear of the virtual clock running ahead of a loaded scheduler.
func TestRouterVirtualNoSpuriousReroutes(t *testing.T) {
	m, v, _ := virtualLine(t, 701, Config{AckTimeout: 5 * time.Second, WatchdogWindow: 5 * time.Second})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := m.Submit([]byte(fmt.Sprintf("v-%02d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if !advanceUntil(v, 5*time.Second, func() bool { return m.Stats().Acked == n }) {
		t.Fatalf("acks never all returned: %+v", m.Stats())
	}
	if st := m.Stats(); st.Reroutes != 0 || st.Delivered != n || st.Pending != 0 {
		t.Fatalf("fault-free run rerouted or lost payloads: %+v", st)
	}
	requireCleanHops(t, m)
}

// TestRouterVirtualAckTimeout swallows one payload's ack by blacking out
// link 0 - 1 once the data frame has crossed it: the route stays usable
// (its forward hops do not degrade within the watchdog window), so only
// the ack-timeout backstop can re-dispatch, and it must fire at
// AckTimeout, not before.
func TestRouterVirtualAckTimeout(t *testing.T) {
	const ackTimeout = 2 * time.Second
	m, v, tl := virtualLine(t, 702, Config{AckTimeout: ackTimeout, WatchdogWindow: 20 * time.Second})
	mu, got, done := drain(m)

	t0 := v.Now()
	if _, err := m.Submit([]byte("swallowed")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !advanceUntil(v, time.Second, func() bool { return m.Stats().Hops >= 1 }) {
		t.Fatalf("node 1 never forwarded the payload: %+v", m.Stats())
	}
	tl.imps[0][0].SetBlackout(true)
	tl.imps[0][1].SetBlackout(true)

	v.AdvanceUntil(t0.Add(ackTimeout - time.Millisecond))
	if st := m.Stats(); st.Reroutes != 0 || st.Acked != 0 || st.Delivered != 1 {
		t.Fatalf("before AckTimeout: want delivered, unacked, not rerouted: %+v", st)
	}
	if !advanceUntil(v, 10*time.Millisecond, func() bool { return m.Stats().Reroutes >= 1 }) {
		t.Fatalf("no re-dispatch at AckTimeout: %+v", m.Stats())
	}
	if st := m.Stats(); st.Reroutes != 1 {
		t.Fatalf("at AckTimeout: want exactly one re-dispatch: %+v", st)
	}

	tl.imps[0][0].SetBlackout(false)
	tl.imps[0][1].SetBlackout(false)
	if !advanceUntil(v, 5*time.Second, func() bool { return m.Stats().Acked == 1 }) {
		t.Fatalf("ack never returned after the blackout lifted: %+v", m.Stats())
	}
	closeVirtual(m, v)
	<-done
	requireExactlyOnce(t, mu, got, []string{"swallowed"})
	requireCleanHops(t, m)
}

// TestRouterVirtualParkedWaitForHealth parks payloads behind a crashed
// relay and behind a degraded hop: while route health is unchanged they
// stay parked through several ack timeouts, and they resume once
// RestartNode, or the hop's return to Healthy, makes the route usable.
func TestRouterVirtualParkedWaitForHealth(t *testing.T) {
	const ackTimeout = 100 * time.Millisecond
	m, v, _ := virtualLine(t, 703, Config{AckTimeout: ackTimeout})
	mu, got, done := drain(m)
	var want []string
	submit := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("%s-%d", prefix, i)
			if _, err := m.Submit([]byte(p)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
			want = append(want, p)
		}
	}
	holdParked := func(n int) {
		t.Helper()
		before := m.Stats()
		v.AdvanceBy(3 * ackTimeout)
		st := m.Stats()
		if st.Parked != n || st.Reroutes != before.Reroutes || st.Delivered != before.Delivered {
			t.Fatalf("with health unchanged, %d payloads should stay parked: before %+v, after %+v", n, before, st)
		}
	}

	// A crashed relay: Submit parks inline, RestartNode resumes.
	if err := m.StopNode(1); err != nil {
		t.Fatalf("StopNode: %v", err)
	}
	submit("crash", 3)
	holdParked(3)
	if err := m.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	if !advanceUntil(v, 5*time.Second, func() bool { return m.Stats().Acked == 3 }) {
		t.Fatalf("parked payloads never resumed after RestartNode: %+v", m.Stats())
	}

	// A degraded hop: payloads park behind it and resume when it reports
	// Healthy again. The transitions go in through noteHopHealth, the
	// call the hop's own health watcher makes; the real hop stays idle
	// and healthy, so it publishes nothing that could race them.
	m.noteHopHealth(hopID{From: 1, To: 2}, supervise.Degraded)
	submit("hop", 3)
	holdParked(3)
	m.noteHopHealth(hopID{From: 1, To: 2}, supervise.Healthy)
	if !advanceUntil(v, 5*time.Second, func() bool { return m.Stats().Acked == 6 }) {
		t.Fatalf("parked payloads never resumed after the hop recovered: %+v", m.Stats())
	}

	closeVirtual(m, v)
	<-done
	requireExactlyOnce(t, mu, got, want)
	requireCleanHops(t, m)
}
