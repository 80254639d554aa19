package main

// Per-layer metric catalogue and the analyses that fill it. Every traced
// run reports every name below; a layer the workload does not exercise
// reads 0 (README.md lists which workload feeds which metric).

// layerSpans are reported as <name>.p50 and <name>.p99, in microseconds.
var layerSpans = []string{
	"ghm.admit_us",
	"netlink.tx_egress_us",
	"netlink.link_data_us",
	"engine.rx_ingress_us",
	"netlink.rx_ack_us",
	"netlink.link_ctl_us",
	"engine.tx_ingress_us",
	"ghm.wake_us",
	"ghm.recv_handoff_us",
	"ghm.unattributed_us",
	"netlink.link_transit_us",
	"relay.submit_us",
}

var layerCounts = []struct{ name, unit string }{
	{"netlink.tx_packets_per_msg", "count"},
	{"netlink.rx_packets_per_msg", "count"},
	{"netlink.rx_retries_per_msg", "count"},
	{"netlink.useful_data_ratio", "ratio"},
	{"netlink.wire_bytes_per_msg", "B"},
	{"netlink.payload_ratio", "ratio"},
	{"netlink.ingress_shed", "count"},
	{"engine.drops", "count"},
	{"core.extensions", "count"},
	{"relay.hops_per_msg", "count"},
	{"relay.reroutes", "count"},
	{"relay.dup_suppressed", "count"},
	{"session.resubmits", "count"},
	{"session.restarts", "count"},
	{"session.backlog_mean", "count"},
	{"fabric.packets_per_msg", "count"},
	{"fabric.drop_ratio", "ratio"},
	{"clock.instants_per_msg", "count"},
	{"clock.instants_per_s", "1/s"},
	{"swarm.station_vsec_per_s", "1/s"},
	{"bench.trace_overhead", "ratio"},
}

func newLayerMetrics() map[string]metric {
	m := make(map[string]metric)
	for _, s := range layerSpans {
		m[s+".p50"] = metric{Unit: "us"}
		m[s+".p99"] = metric{Unit: "us"}
	}
	for _, c := range layerCounts {
		m[c.name] = metric{Unit: c.unit}
	}
	return m
}

// netlinkCounts fills the station and engine counts from registry
// deltas over a traced phase that confirmed msgs messages.
func netlinkCounts(lm map[string]metric, before, after map[string]int64, msgs float64) {
	count := func(name string, v float64) { lm[name] = metric{Value: v, Unit: lm[name].Unit} }
	data := delta(before, after, "tx.packets_sent")
	count("netlink.tx_packets_per_msg", float64(data)/msgs)
	count("netlink.rx_packets_per_msg", float64(delta(before, after, "rx.packets_sent"))/msgs)
	count("netlink.rx_retries_per_msg", float64(delta(before, after, "rx.retries"))/msgs)
	if data > 0 {
		count("netlink.useful_data_ratio", float64(delta(before, after, "rx.delivered"))/float64(data))
	}
	count("netlink.ingress_shed", float64(delta(before, after, "rx.ingress_shed")))
	count("engine.drops", float64(delta(before, after, "link.demux_dropped", "link.overflow_dropped")))
	count("core.extensions", float64(delta(before, after, "tx.tag_extensions", "rx.challenge_extensions")))
}

// Link ends: the Sender's conn is end 0 of link 0, the Receiver's end 1,
// so on udp-stopwait direction classifies a packet: DATA
// flows 0→1, CTL 1→0.
const (
	senderEnd   = 0
	receiverEnd = 1
)

// chainPoints are the timestamps that split one stop-and-wait Send:
// call, send_msg, DATA handed to the conn, DATA received, receive_msg,
// CTL handed to the conn, CTL received, OK, return. Consecutive points
// bound the spans in chainSpans.
const chainPoints = 9

var chainSpans = [chainPoints - 1]string{
	"ghm.admit_us",
	"netlink.tx_egress_us",
	"netlink.link_data_us",
	"engine.rx_ingress_us",
	"netlink.rx_ack_us",
	"netlink.link_ctl_us",
	"engine.tx_ingress_us",
	"ghm.wake_us",
}

// chainMsg is one Send's split. A point the log could not place is -1,
// and the spans next to it go to ghm.unattributed_us instead.
type chainMsg struct {
	key uint64
	t   [chainPoints]int64
}

// spans returns the message's chain spans (ok[i] false where a bound is
// missing or out of order) and the unattributed remainder of its latency.
func (c *chainMsg) spans() (d [chainPoints - 1]int64, ok [chainPoints - 1]bool, unattributed int64) {
	unattributed = c.t[chainPoints-1] - c.t[0]
	for i := range d {
		a, b := c.t[i], c.t[i+1]
		if a >= 0 && b >= a {
			d[i], ok[i] = b-a, true
			unattributed -= d[i]
		}
	}
	return d, ok, unattributed
}

// stopWaitChains walks a single-caller log and splits every Send.
func stopWaitChains(ev []event, transit, handoff func(d int64)) []chainMsg {
	pm := newPacketMatcher()
	var out []chainMsg
	var cur *chainMsg
	// The latest matched packet into each end: its send and receive time.
	var last [2][2]int64
	delivered := make(map[uint64]int64)
	for _, e := range ev {
		switch e.kind {
		case evPktSend:
			pm.see(e)
		case evPktRecv:
			if s, ok := pm.see(e); ok {
				transit(e.at - s)
				last[e.conn&1] = [2]int64{s, e.at}
			}
		case evCall:
			out = append(out, chainMsg{key: e.key})
			cur = &out[len(out)-1]
			for i := range cur.t {
				cur.t[i] = -1
			}
			cur.t[0] = e.at
		case evSendMsg:
			if cur != nil && e.key == cur.key {
				cur.t[1] = e.at
			}
		case evRecvMsg:
			delivered[e.key] = e.at
			if cur != nil && e.key == cur.key {
				cur.t[4] = e.at
				if d := last[receiverEnd]; cur.t[1] >= 0 && d[0] >= cur.t[1] {
					cur.t[2], cur.t[3] = d[0], d[1]
				}
			}
		case evOK:
			if cur != nil {
				cur.t[7] = e.at
				if c := last[senderEnd]; cur.t[4] >= 0 && c[0] >= cur.t[4] {
					cur.t[5], cur.t[6] = c[0], c[1]
				}
			}
		case evReturn:
			if cur != nil && e.key == cur.key {
				cur.t[8] = e.at
			}
			cur = nil
		case evRecvReturn:
			if t, ok := delivered[e.key]; ok {
				handoff(e.at - t)
				delete(delivered, e.key)
			}
		}
	}
	// A Send still open when the log ended has no latency to split.
	if n := len(out); n > 0 && out[n-1].t[8] < 0 {
		out = out[:n-1]
	}
	return out
}

// analyzeStopWait fills the udp-stopwait per-layer spans: the split of
// every Send, the receive hand-off, and per-packet link transit.
func analyzeStopWait(ev []event, sp *spans) {
	chains := stopWaitChains(ev,
		func(d int64) { sp.add("netlink.link_transit_us", d) },
		func(d int64) { sp.add("ghm.recv_handoff_us", d) })
	for i := range chains {
		d, ok, un := chains[i].spans()
		for j, name := range chainSpans {
			if ok[j] {
				sp.add(name, d[j])
			}
		}
		sp.add("ghm.unattributed_us", un)
	}
}
