package engine

import (
	"math"
	"time"
)

// Serial is the single-threaded discrete-event scheduler over virtual
// time (formerly simclock.Loop). All scheduled callbacks run inline on
// the goroutine that calls Run/Step. This mirrors the paper's preferred
// seed execution model (seeds as threads of the soil process, §VI-E)
// and keeps every experiment reproducible: FARM's evaluation quantities
// — detection latency (Tab. 4), polling accuracy and CPU load
// (Fig. 5/6), bus congestion (Fig. 8) — are all functions of poll
// intervals, batch windows, and propagation delays, which a virtual
// clock measures exactly while a simulated minute completes in
// milliseconds of wall time.
//
// Events live in a pooled timing-wheel queue (see wheel.go): insert,
// fire, and ticker re-arm are O(1) and allocation-free once the event
// free list is warm, however young the engine.
// The zero value is ready to use, starting at virtual time 0.
type Serial struct {
	now time.Duration
	q   eventQueue
}

// NewSerial returns a fresh serial scheduler at virtual time 0, backed
// by the timing wheel.
func NewSerial() *Serial { return &Serial{} }

// Now returns the current virtual time.
func (l *Serial) Now() time.Duration { return l.now }

// Pending returns the number of scheduled (unfired, uncancelled)
// events. Cancelled events awaiting lazy reclaim are not counted.
func (l *Serial) Pending() int { return l.q.live }

// serialTimer is the Timer handle of the serial engine. It carries the
// generation the event had when scheduled, so once the event fires and
// is recycled the stale handle deactivates itself.
type serialTimer struct {
	l   *Serial
	ev  *event
	gen uint64
}

func (t *serialTimer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	ev := t.ev
	if ev.gen != t.gen || ev.stopped || ev.index < 0 {
		// Recycled (fired) or already cancelled.
		return false
	}
	t.l.q.stop(ev)
	return true
}

// At implements Scheduler.
func (l *Serial) At(at time.Duration, fn func()) Timer {
	if at < l.now {
		at = l.now
	}
	ev := l.q.add(at, fn)
	return &serialTimer{l: l, ev: ev, gen: ev.gen}
}

// After implements Scheduler.
func (l *Serial) After(d time.Duration, fn func()) Timer {
	return l.At(later(l.now, d), fn)
}

// later returns t+d, saturating at the largest Duration: an offset too
// large to represent lands at the end of time, not a wrap into the past.
// A ticker that fires there is not re-armed (queueTicker).
func later(t, d time.Duration) time.Duration {
	if d > 0 && t > math.MaxInt64-d {
		return math.MaxInt64
	}
	return t + d
}

// schedule arms fn after d without materializing a Timer handle (see
// ScheduleOn).
func (l *Serial) schedule(d time.Duration, fn func()) {
	at := later(l.now, d)
	if at < l.now {
		at = l.now
	}
	l.q.add(at, fn)
}

// Every implements Scheduler.
func (l *Serial) Every(interval time.Duration, fn func()) Ticker {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	return newQueueTicker(l, interval, fn)
}

// Step runs the earliest pending event, advancing virtual time to it.
// It reports whether an event ran. The clock only moves forward: under
// virtual time no queued event is earlier than Now, but RealTime moves
// the clock to the wall time before stepping, and an overdue event then
// runs at that later Now.
func (l *Serial) Step() bool {
	for {
		ev := l.q.pop()
		if ev == nil {
			return false
		}
		if ev.stopped {
			l.q.release(ev)
			continue
		}
		if ev.at > l.now {
			l.now = ev.at
		}
		fn := ev.fn
		if !ev.held {
			// Recycle before running, so an At inside the callback can
			// reuse the slot; the handle generation was bumped, keeping
			// a Stop on the fired timer inert.
			l.q.release(ev)
		}
		fn()
		return true
	}
}

// RunUntil processes all events scheduled at or before t, then advances
// the clock to exactly t.
func (l *Serial) RunUntil(t time.Duration) {
	for {
		at, ok := l.q.nextLive()
		if !ok || at > t {
			break
		}
		l.Step()
	}
	if l.now < t {
		l.now = t
	}
}

// RunFor advances the clock by d, processing everything in between.
func (l *Serial) RunFor(d time.Duration) { l.RunUntil(later(l.now, d)) }

// Drain runs events until none remain or the limit is reached. It
// returns the number of events processed.
func (l *Serial) Drain(limit int) int {
	n := 0
	for n < limit && l.Step() {
		n++
	}
	return n
}
