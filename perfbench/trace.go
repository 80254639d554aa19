package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ghm"
)

// The traced run records spans only from the benchmark's own side of the
// public API: conn wrappers around every PacketConn it hands the stack,
// a WithTap callback on every station, timestamps around its own calls,
// and ghm.Metrics() deltas. Events go into memory; the analysis and the
// span dump happen after the measured phase.

type evKind uint8

const (
	evCall       evKind = iota + 1 // caller entered Send (key: payload key)
	evReturn                       // Send returned
	evSendMsg                      // tap: send_msg
	evOK                           // tap: OK
	evRecvMsg                      // tap: receive_msg
	evRecvReturn                   // Recv returned the payload
	evPktSend                      // conn Send (key: packet hash)
	evPktRecv                      // conn Recv returned a packet
)

type event struct {
	at   int64
	key  uint64
	size int32
	conn int16 // link l's A end is 2l, its B end 2l+1
	kind evKind
}

// recorder is the in-memory event log of one traced phase. Timestamps
// are taken under its lock, so the log is in time order.
type recorder struct {
	seed maphash.Seed
	mu   sync.Mutex
	ev   []event
}

func newRecorder() *recorder {
	return &recorder{seed: maphash.MakeSeed(), ev: make([]event, 0, 1<<20)}
}

func (r *recorder) add(e event) {
	r.mu.Lock()
	e.at = now()
	r.ev = append(r.ev, e)
	r.mu.Unlock()
}

// events returns the log; call it once the traced stack is closed.
func (r *recorder) events() []event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ev
}

// tap is a ghm.WithTap callback. It runs under the station's lock, so it
// only appends.
func (r *recorder) tap(e ghm.Event) {
	var ev event
	switch e.Kind {
	case ghm.EventSendMsg:
		ev.kind, ev.key = evSendMsg, payloadKey(e.Msg)
	case ghm.EventOK:
		ev.kind = evOK
	case ghm.EventReceiveMsg:
		ev.kind, ev.key = evRecvMsg, payloadKey(e.Msg)
	default:
		return
	}
	r.add(ev)
}

// call records a Send call or return for payload key k.
func (r *recorder) call(kind evKind, k uint64) {
	if r != nil {
		r.add(event{kind: kind, key: k})
	}
}

// link wraps both halves of link number l.
func (r *recorder) link(l int, a, b ghm.PacketConn) (ghm.PacketConn, ghm.PacketConn) {
	if r == nil {
		return a, b
	}
	return &tracedConn{PacketConn: a, rec: r, id: int16(2 * l)},
		&tracedConn{PacketConn: b, rec: r, id: int16(2*l + 1)}
}

// tracedConn records every packet crossing one link end. A packet is
// identified by a hash of its bytes, which matches a Send at one end to
// the Recv at the other.
type tracedConn struct {
	ghm.PacketConn
	rec *recorder
	id  int16
}

func (c *tracedConn) Send(p []byte) error {
	c.rec.add(event{kind: evPktSend, conn: c.id, key: maphash.Bytes(c.rec.seed, p), size: int32(len(p))})
	return c.PacketConn.Send(p)
}

func (c *tracedConn) Recv() ([]byte, error) {
	p, err := c.PacketConn.Recv()
	if err == nil {
		c.rec.add(event{kind: evPktRecv, conn: c.id, key: maphash.Bytes(c.rec.seed, p), size: int32(len(p))})
	}
	return p, err
}

// packetMatcher pairs each received packet with its send at the other
// end of the link. Byte-identical packets in flight at once (a
// retransmission) are matched to the latest send before the receive.
type packetMatcher struct {
	sent map[[2]uint64]int64
}

func newPacketMatcher() *packetMatcher {
	return &packetMatcher{sent: make(map[[2]uint64]int64)}
}

// see feeds one packet event; for a matched receive it returns the
// send time.
func (m *packetMatcher) see(e event) (sentAt int64, ok bool) {
	switch e.kind {
	case evPktSend:
		m.sent[[2]uint64{uint64(e.conn), e.key}] = e.at
	case evPktRecv:
		k := [2]uint64{uint64(e.conn ^ 1), e.key}
		if sentAt, ok = m.sent[k]; ok {
			delete(m.sent, k)
		}
	}
	return sentAt, ok
}

// spans collects named span durations (ns) for the per-layer report and
// the span dump.
type spans struct {
	names []string // in first-seen order
	vals  map[string][]int64
}

func newSpans() *spans { return &spans{vals: make(map[string][]int64)} }

func (s *spans) add(name string, d int64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = append(s.vals[name], d)
}

// into reports each span's p50 and p99 in microseconds.
func (s *spans) into(m map[string]metric) {
	for _, n := range s.names {
		v := s.vals[n]
		m[n+".p50"] = metric{Value: quantile(v, 0.50) / 1e3, Unit: "us", Samples: len(v)}
		m[n+".p99"] = metric{Value: quantile(v, 0.99) / 1e3, Unit: "us", Samples: len(v)}
	}
}

// dump writes every span sample, once, after the run: one gzipped CSV
// row per sample.
func (s *spans) dump(dir string) (err error) {
	f, err := os.Create(filepath.Join(dir, "spans.csv.gz"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a constant level cannot fail
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "span,ns")
	for _, n := range s.names {
		for _, d := range s.vals[n] {
			fmt.Fprintf(w, "%s,%d\n", n, d)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// counters snapshots the process-wide registry's counters.
func counters() map[string]int64 { return ghm.Metrics().Counters }

func delta(before, after map[string]int64, names ...string) int64 {
	var d int64
	for _, n := range names {
		d += after[n] - before[n]
	}
	return d
}

// gaugeSampler averages registry gauges over a phase; the registry keeps
// only their current value.
type gaugeSampler struct {
	names []string
	stop  chan struct{}
	done  chan struct{}
	sum   []float64
	n     int
}

const gaugeEvery = 5 * time.Millisecond

func sampleGauges(names ...string) *gaugeSampler {
	g := &gaugeSampler{names: names, stop: make(chan struct{}), done: make(chan struct{}), sum: make([]float64, len(names))}
	go func() {
		defer close(g.done)
		t := time.NewTicker(gaugeEvery)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				gs := ghm.Metrics().Gauges
				for i, n := range g.names {
					g.sum[i] += gs[n]
				}
				g.n++
			}
		}
	}()
	return g
}

// means stops the sampler and returns each gauge's mean.
func (g *gaugeSampler) means() []float64 {
	close(g.stop)
	<-g.done
	out := make([]float64, len(g.sum))
	for i, s := range g.sum {
		if g.n > 0 {
			out[i] = s / float64(g.n)
		}
	}
	return out
}
