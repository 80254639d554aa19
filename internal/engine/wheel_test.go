package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/clock"
)

func TestWheelAfterFuncFires(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	fired := make(chan time.Duration, 1)
	start := time.Now()
	w.AfterFunc(5*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case el := <-fired:
		// Never early by more than scheduler slop; generous upper bound
		// for loaded CI hosts.
		if el < 3*time.Millisecond {
			t.Fatalf("fired after %v, want ~5ms", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWheelRoundsBeyondOneRevolution(t *testing.T) {
	// 4 slots x 1ms tick = 4ms per revolution; a 10ms delay must ride the
	// rounds counter and not fire a revolution early.
	w := NewWheel(time.Millisecond, 4)
	defer w.Stop()

	fired := make(chan time.Duration, 1)
	start := time.Now()
	w.AfterFunc(10*time.Millisecond, func() { fired <- time.Since(start) })
	select {
	case el := <-fired:
		if el < 8*time.Millisecond {
			t.Fatalf("fired after %v, want ~10ms (a full revolution early?)", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWheelStopCancelsTimer(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	var fired atomic.Bool
	tm := w.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported not pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	time.Sleep(20 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestWheelResetFromCallback(t *testing.T) {
	// The retry-pacing shape: a callback that re-arms its own timer runs
	// periodically with no allocation per period.
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	var mu sync.Mutex
	var tm *Timer
	count := 0
	done := make(chan struct{})
	mu.Lock()
	tm = w.AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == 3 {
			close(done)
			return
		}
		tm.Reset(2 * time.Millisecond)
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("periodic timer fired %d times, want 3", count)
	}
}

func TestWheelResetAfterFire(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	fired := make(chan struct{}, 2)
	tm := w.AfterFunc(2*time.Millisecond, func() { fired <- struct{}{} })
	<-fired
	tm.Reset(2 * time.Millisecond)
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("reset timer never re-fired")
	}
}

func TestWheelStopHaltsPending(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	var fired atomic.Bool
	w.AfterFunc(5*time.Millisecond, func() { fired.Store(true) })
	w.Stop()
	w.Stop() // idempotent
	time.Sleep(20 * time.Millisecond)
	if fired.Load() {
		t.Fatal("timer fired after wheel stop")
	}
}

func TestWheelTracksRealTimeUnderDroppedTicks(t *testing.T) {
	// Wheel time is clock-derived: even when the ticker drops events
	// (loaded host, tiny tick), N periodic re-arms take ~N*interval, not
	// longer. A 100us-tick wheel servicing a 1ms periodic timer must
	// manage ~20 firings in ~25ms.
	w := NewWheel(100*time.Microsecond, 64)
	defer w.Stop()

	var mu sync.Mutex
	var tm *Timer
	count := 0
	done := make(chan struct{})
	start := time.Now()
	mu.Lock()
	tm = w.AfterFunc(time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		count++
		if count == 20 {
			close(done)
			return
		}
		tm.Reset(time.Millisecond)
	})
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("20 x 1ms periodic firings did not complete in 2s (got %d) — wheel time lagging real time", count)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("20 x 1ms firings took %v", el)
	}
}

// TestWheelResetAllocs pins the re-arm path (//ghm:hotpath): a periodic
// timer re-arming itself with Reset allocates nothing per period — the
// slot maps recycle their cells once warmed.
func TestWheelResetAllocs(t *testing.T) {
	w := NewWheel(time.Millisecond, 16)
	defer w.Stop()

	tm := w.AfterFunc(time.Hour, func() {})
	defer tm.Stop()
	tm.Reset(time.Hour) // warm the slot map cells
	if avg := testing.AllocsPerRun(200, func() {
		tm.Reset(time.Hour)
	}); avg > 0 {
		t.Errorf("Timer.Reset allocs/op = %v, want 0", avg)
	}
}

// TestWheelFor pins the one wheel-selection rule: the wall clock, nil or
// not, shares the default wheel (no private ticker goroutine to leak),
// and any other clock gets a wheel of its own riding it.
func TestWheelFor(t *testing.T) {
	if WheelFor(nil) != DefaultWheel() || WheelFor(clock.System()) != DefaultWheel() {
		t.Fatal("wall-clock components must share DefaultWheel")
	}
	v := clock.NewVirtual(time.Time{}, 1)
	w := WheelFor(v)
	if w == DefaultWheel() || w.Clock() != clock.Clock(v) {
		t.Fatalf("a virtual clock needs its own wheel riding it, got clock %v", w.Clock())
	}
}
