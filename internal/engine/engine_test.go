package engine

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"time"
)

// heapSched is the reference scheduler the timing wheel is checked
// against: a plain container/heap of unpooled events with its own clock,
// tickers from the generic re-arm ticker below, and cancelled events
// dropped only when they reach the head.
type heapSched struct {
	now  time.Duration
	seq  uint64
	h    eventHeap
	live int
}

func newHeapSched() *heapSched { return &heapSched{} }

type heapTimer struct {
	s  *heapSched
	ev *event
}

func (t heapTimer) Stop() bool {
	if t.ev.stopped || t.ev.index < 0 {
		return false
	}
	t.ev.stopped = true
	t.s.live--
	return true
}

func (s *heapSched) Now() time.Duration { return s.now }
func (s *heapSched) Pending() int       { return s.live }

func (s *heapSched) At(at time.Duration, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	ev := &event{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.h, ev)
	s.live++
	return heapTimer{s, ev}
}

func (s *heapSched) After(d time.Duration, fn func()) Timer { return s.At(s.offset(d), fn) }

// offset is now+d, saturated at the largest Duration instead of wrapping.
func (s *heapSched) offset(d time.Duration) time.Duration {
	if at := s.now + d; d <= 0 || at > s.now {
		return at
	}
	return math.MaxInt64
}

func (s *heapSched) Every(interval time.Duration, fn func()) Ticker {
	return newTicker(s, interval, fn)
}

// head drops cancelled events off the top and returns the earliest live
// one, or nil.
func (s *heapSched) head() *event {
	for len(s.h) > 0 && s.h[0].stopped {
		heap.Pop(&s.h)
	}
	if len(s.h) == 0 {
		return nil
	}
	return s.h[0]
}

func (s *heapSched) Step() bool {
	if s.head() == nil {
		return false
	}
	ev := heap.Pop(&s.h).(*event)
	s.live--
	s.now = ev.at
	ev.fn()
	return true
}

func (s *heapSched) RunUntil(t time.Duration) {
	for ev := s.head(); ev != nil && ev.at <= t; ev = s.head() {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

func (s *heapSched) RunFor(d time.Duration) { s.RunUntil(s.offset(d)) }

func (s *heapSched) Drain(limit int) int {
	n := 0
	for n < limit && s.Step() {
		n++
	}
	return n
}

// serialModes names the serial engine and the heap reference, for tests
// and benchmarks that run on both.
var serialModes = []struct {
	name string
	mk   func() Scheduler
}{
	{"wheel", func() Scheduler { return NewSerial() }},
	{"heap", func() Scheduler { return newHeapSched() }},
}

// forEachEngine runs a subtest against the serial engine and the heap
// reference.
func forEachEngine(t *testing.T, fn func(t *testing.T, s Scheduler)) {
	t.Run("serial", func(t *testing.T) { fn(t, NewSerial()) })
	t.Run("serial-heap", func(t *testing.T) { fn(t, newHeapSched()) })
}

func TestAfterOrdering(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var got []int
		l.After(3*time.Millisecond, func() { got = append(got, 3) })
		l.After(1*time.Millisecond, func() { got = append(got, 1) })
		l.After(2*time.Millisecond, func() { got = append(got, 2) })
		l.RunFor(10 * time.Millisecond)
		want := []int{1, 2, 3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order = %v, want %v", got, want)
			}
		}
		if l.Now() != 10*time.Millisecond {
			t.Fatalf("now = %v, want 10ms", l.Now())
		}
	})
}

func TestSimultaneousFIFO(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var got []int
		for i := 0; i < 5; i++ {
			i := i
			l.At(time.Millisecond, func() { got = append(got, i) })
		}
		l.RunFor(time.Millisecond)
		for i := 0; i < 5; i++ {
			if got[i] != i {
				t.Fatalf("FIFO violated: %v", got)
			}
		}
	})
}

func TestTimerStop(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		fired := false
		tm := l.After(time.Millisecond, func() { fired = true })
		if !tm.Stop() {
			t.Fatal("Stop should report true before firing")
		}
		l.RunFor(5 * time.Millisecond)
		if fired {
			t.Fatal("stopped timer fired")
		}
		if tm.Stop() {
			t.Fatal("second Stop should report false")
		}
	})
}

func TestTimerStopAfterFire(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		tm := l.After(time.Millisecond, func() {})
		l.RunFor(2 * time.Millisecond)
		if tm.Stop() {
			t.Fatal("Stop after fire should report false")
		}
	})
}

func TestScheduleInPast(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		l.RunFor(10 * time.Millisecond)
		fired := time.Duration(-1)
		var now func() time.Duration = l.Now
		l.At(time.Millisecond, func() { fired = now() })
		l.RunFor(time.Millisecond)
		if fired != 10*time.Millisecond {
			t.Fatalf("past event fired at %v, want 10ms", fired)
		}
	})
}

func TestEvery(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var times []time.Duration
		tk := l.Every(2*time.Millisecond, func() { times = append(times, l.Now()) })
		l.RunFor(7 * time.Millisecond)
		if len(times) != 3 {
			t.Fatalf("fired %d times, want 3 (%v)", len(times), times)
		}
		for i, at := range times {
			if want := time.Duration(i+1) * 2 * time.Millisecond; at != want {
				t.Fatalf("fire %d at %v, want %v", i, at, want)
			}
		}
		tk.Stop()
		n := len(times)
		l.RunFor(10 * time.Millisecond)
		if len(times) != n {
			t.Fatal("ticker fired after Stop")
		}
	})
}

func TestTickerSetInterval(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var times []time.Duration
		tk := l.Every(10*time.Millisecond, func() { times = append(times, l.Now()) })
		l.RunFor(10 * time.Millisecond) // first fire at 10ms
		tk.SetInterval(time.Millisecond)
		l.RunFor(3 * time.Millisecond) // fires at 11, 12, 13ms
		if len(times) != 4 {
			t.Fatalf("fired %d times, want 4 (%v)", len(times), times)
		}
		if times[1] != 11*time.Millisecond {
			t.Fatalf("rescheduled fire at %v, want 11ms", times[1])
		}
		if tk.Interval() != time.Millisecond {
			t.Fatalf("interval = %v", tk.Interval())
		}
	})
}

func TestTickerStopInsideCallback(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		count := 0
		var tk Ticker
		tk = l.Every(time.Millisecond, func() {
			count++
			if count == 2 {
				tk.Stop()
			}
		})
		l.RunFor(10 * time.Millisecond)
		if count != 2 {
			t.Fatalf("count = %d, want 2", count)
		}
	})
}

func TestNestedScheduling(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var at time.Duration
		l.After(time.Millisecond, func() {
			l.After(time.Millisecond, func() { at = l.Now() })
		})
		l.RunFor(5 * time.Millisecond)
		if at != 2*time.Millisecond {
			t.Fatalf("nested event at %v, want 2ms", at)
		}
	})
}

func TestRunUntilAdvancesClock(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		l.RunUntil(42 * time.Millisecond)
		if l.Now() != 42*time.Millisecond {
			t.Fatalf("now = %v", l.Now())
		}
		// RunUntil into the past must not rewind.
		l.RunUntil(10 * time.Millisecond)
		if l.Now() != 42*time.Millisecond {
			t.Fatalf("clock rewound to %v", l.Now())
		}
	})
}

// TestRunUntilStopsPastCancelledHead: a cancelled event at the head of
// the queue must not carry RunUntil past its horizon into the next live
// event.
func TestRunUntilStopsPastCancelledHead(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		l.After(time.Millisecond, func() {}).Stop()
		fired := false
		l.After(time.Second, func() { fired = true })
		l.RunUntil(2 * time.Millisecond)
		if fired || l.Now() != 2*time.Millisecond {
			t.Fatalf("RunUntil(2ms): 1s event fired = %v, now = %v; want false, 2ms", fired, l.Now())
		}
		l.RunUntil(time.Second)
		if !fired {
			t.Fatal("live event did not fire at its deadline")
		}
	})
}

func TestDrainLimit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		l.Every(time.Millisecond, func() {}) // self-perpetuating
		if n := l.Drain(100); n != 100 {
			t.Fatalf("drained %d, want 100", n)
		}
	})
}

func TestPending(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		if l.Pending() != 0 {
			t.Fatal("fresh loop should have no events")
		}
		l.After(time.Millisecond, func() {})
		l.After(2*time.Millisecond, func() {})
		if l.Pending() != 2 {
			t.Fatalf("pending = %d, want 2", l.Pending())
		}
		l.RunFor(5 * time.Millisecond)
		if l.Pending() != 0 {
			t.Fatalf("pending = %d after drain, want 0", l.Pending())
		}
	})
}

// TestTimeSaturates: an offset past the largest Duration lands at the end
// of time, not a wrap into the past that fires at once. The tickers
// before the end stop at their first firing, so a wrapping re-arm fails
// the test instead of hanging it; the one armed at the end of time does
// not stop itself, and a bounded Drain must see it fire once.
func TestTimeSaturates(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var log []string
		note := func(s string) func() { return func() { log = append(log, s) } }
		l.RunFor(time.Second)
		l.After(math.MaxInt64, note("after"))
		ScheduleOn(l, math.MaxInt64, note("schedule"))
		l.RunFor(time.Second)
		var tick, retuned Ticker
		tick = l.Every(math.MaxInt64-500*time.Millisecond, func() { log = append(log, "tick"); tick.Stop() })
		retuned = l.Every(time.Hour, func() { log = append(log, "retuned"); retuned.Stop() })
		retuned.SetInterval(math.MaxInt64)
		l.RunFor(time.Second)
		if len(log) != 0 || l.Now() != 3*time.Second || l.Pending() != 4 {
			t.Fatalf("by 3s: fired %v, now %v, pending %d; want nothing fired, 3s, 4 pending", log, l.Now(), l.Pending())
		}
		// RunFor saturates too: the end of time is reachable, and the
		// events parked there fire in submission order.
		l.RunFor(math.MaxInt64)
		if want := "[after schedule tick retuned]"; fmt.Sprint(log) != want || l.Now() != math.MaxInt64 {
			t.Fatalf("RunFor(MaxInt64): fired %v at %v, want %s at %v", log, l.Now(), want, time.Duration(math.MaxInt64))
		}
		if n := l.Drain(10); n != 0 {
			t.Fatalf("Drain ran %d events after every ticker stopped", n)
		}
		// A live ticker at the end of time: its re-arm would saturate
		// to the same instant, so it fires once and is not re-armed.
		last := l.Every(time.Hour, note("last"))
		if n := l.Drain(10); n != 1 || l.Pending() != 0 {
			t.Fatalf("Drain at the end of time ran %d events, %d pending; want 1 and 0", n, l.Pending())
		}
		last.SetInterval(time.Minute)
		if n := l.Drain(10); n != 0 || fmt.Sprint(log[len(log)-1:]) != "[last]" {
			t.Fatalf("after SetInterval on the ended ticker, Drain ran %d events; log %v", n, log)
		}
	})
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		l.Every(0, func() {})
	})
}

// ticker is heapSched's Ticker: it re-arms itself through the
// scheduler's After, allocating a fresh event and Timer handle per
// firing. Serial's queueTicker (wheel.go) re-arms one held event in
// place and must fire in the same order.
type ticker struct {
	s        Scheduler
	interval time.Duration
	fn       func()
	fire     func() // the re-arming callback, built once so periodic re-arms don't allocate a closure per firing
	timer    Timer
	stopped  bool
	firing   bool
}

func newTicker(s Scheduler, interval time.Duration, fn func()) *ticker {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	t := &ticker{s: s, interval: interval, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.firing = true
		t.fn()
		t.firing = false
		// At the end of time the re-arm would saturate to this same
		// instant and fire forever: the ticker ends there, and a later
		// SetInterval has no pending firing to move.
		t.stopped = t.stopped || t.s.Now() == math.MaxInt64
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *ticker) arm() {
	t.timer = t.s.After(t.interval, t.fire)
}

func (t *ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Stop()
}

func (t *ticker) Interval() time.Duration { return t.interval }

func (t *ticker) SetInterval(interval time.Duration) {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	t.interval = interval
	if t.stopped || t.firing {
		// Inside our own callback the fire epilogue re-arms with the
		// new interval; arming here too would leave two live timers
		// ticking the same callback.
		return
	}
	t.timer.Stop()
	t.arm()
}
