package engine

import (
	"container/heap"
	"sync"
	"time"
)

// RealTime is a Scheduler driven by the wall clock: Now is the elapsed
// wall time since construction, and the Run methods sleep until each
// event's deadline instead of jumping virtual time forward. It lets
// demos and latency benches (the Fig. 10 transports) run against real
// timers through the same interface every other component is written
// to — swap NewSerial() for NewRealTime() and the fabric, seeder, and
// generators run in real time.
//
// Concurrency: unlike the virtual-time engines, timers may be scheduled
// from any goroutine (an earlier-than-current-head At wakes a sleeping
// run loop). Callbacks still execute inline on the single driving
// goroutine calling Step/RunUntil/RunFor/Drain, so scheduled state
// needs no locking of its own. Wall-clock execution is inherently not
// deterministic — an event that fires late fires late — so RealTime is
// for demos and wall-clock measurements, never for the reproducible
// experiments (those stay on virtual time).
//
// Events share the pooled event type and free list with the virtual
// time engines (an eventQueue in heap mode — sleeps dominate
// here, so the wheel would buy nothing, but the pooling does: periodic
// work on a long-lived daemon stops churning the garbage collector).
//
// RealTime implements Partitioned trivially (one shard, CrossAfter = a
// handle-free After), like Serial, so a fabric can be built directly on
// it.
type RealTime struct {
	mu sync.Mutex
	// q is the pending-event queue, guarded by mu (heap mode: the
	// run loop needs cheap head peeks and SetInterval re-keys in place
	// with heap.Fix).
	q      eventQueue
	start  time.Time
	closed bool
	// wake preempts a sleeping run loop when a new earliest event
	// arrives from another goroutine.
	wake chan struct{}
	// done is closed by Close: every sleeping run loop selects on it so
	// a long-lived daemon's shutdown never waits out a wall deadline.
	done chan struct{}
}

// NewRealTime returns a wall-clock scheduler whose time starts now.
func NewRealTime() *RealTime {
	r := &RealTime{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	r.q.heapMode = true
	return r
}

// Close shuts the scheduler down: any goroutine blocked in
// Step/RunUntil/RunFor/Drain wakes immediately and returns without
// running further events, and later run calls return at once. Events
// still pending (and any scheduled afterwards) never fire. Close is
// idempotent and safe from any goroutine — it is the daemon shutdown
// path, where the driving goroutine is asleep inside RunFor and must
// be released without waiting out the current deadline.
func (r *RealTime) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		close(r.done)
	}
	return nil
}

// Done exposes the closed-on-Close channel so callers waiting on the
// scheduler (an exec path handing work to the run loop) can abandon the
// wait when the scheduler shuts down underneath them.
func (r *RealTime) Done() <-chan struct{} { return r.done }

// Closed reports whether Close has been called.
func (r *RealTime) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Now returns the elapsed wall time since construction.
func (r *RealTime) Now() time.Duration { return time.Since(r.start) }

// wakeup preempts a run loop sleeping toward a stale head deadline.
func (r *RealTime) wakeup() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// At schedules fn at elapsed-time at (in the past means: as soon as the
// run loop gets to it).
func (r *RealTime) At(at time.Duration, fn func()) Timer {
	r.mu.Lock()
	if r.closed {
		// The scheduler is shut down: the event would never run, so
		// don't hold it. The inert handle keeps callers race-free.
		r.mu.Unlock()
		return &realTimer{}
	}
	if now := r.Now(); at < now {
		at = now
	}
	ev := r.q.add(at, fn)
	t := &realTimer{r: r, ev: ev, gen: ev.gen}
	isHead := r.q.heap[0] == ev
	r.mu.Unlock()
	if isHead {
		// New earliest deadline: wake a run loop sleeping toward the
		// previous head.
		r.wakeup()
	}
	return t
}

// After schedules fn after delay d of wall time.
func (r *RealTime) After(d time.Duration, fn func()) Timer {
	return r.At(r.Now()+d, fn)
}

// schedule arms fn after d without materializing a Timer handle (see
// ScheduleOn).
func (r *RealTime) schedule(d time.Duration, fn func()) {
	at := r.Now() + d
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if now := r.Now(); at < now {
		at = now
	}
	ev := r.q.add(at, fn)
	isHead := r.q.heap[0] == ev
	r.mu.Unlock()
	if isHead {
		r.wakeup()
	}
}

// Every schedules a periodic callback.
func (r *RealTime) Every(interval time.Duration, fn func()) Ticker {
	return EveryOn(r, interval, fn)
}

// Pending returns the number of scheduled (unfired, uncancelled)
// events. Cancelled events awaiting reclaim are not counted.
func (r *RealTime) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.q.live
}

// Step waits for the earliest pending event's wall deadline, runs it,
// and reports whether an event ran. It returns false immediately when
// nothing is scheduled.
func (r *RealTime) Step() bool { return r.runNext(-1) }

// runNext runs the earliest event whose deadline is <= bound (bound < 0
// means no bound), sleeping until the deadline arrives. It returns
// false when no such event exists.
func (r *RealTime) runNext(bound time.Duration) bool {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return false
		}
		for len(r.q.heap) > 0 && r.q.heap[0].stopped {
			r.q.release(r.q.pop())
		}
		if len(r.q.heap) == 0 {
			r.mu.Unlock()
			return false
		}
		head := r.q.heap[0]
		if bound >= 0 && head.at > bound {
			r.mu.Unlock()
			return false
		}
		if head.at <= r.Now() {
			ev := r.q.pop()
			fn := ev.fn
			if !ev.held {
				r.q.release(ev)
			}
			r.mu.Unlock()
			fn()
			return true
		}
		wait := head.at - r.Now()
		r.mu.Unlock()
		// Sleep toward the deadline, preempted if an earlier event is
		// scheduled meanwhile (or the scheduler shuts down); then
		// re-evaluate from scratch.
		tmr := time.NewTimer(wait)
		select {
		case <-tmr.C:
		case <-r.wake:
			tmr.Stop()
		case <-r.done:
			tmr.Stop()
			return false
		}
	}
}

// RunUntil processes all events with deadlines at or before t, sleeping
// through the gaps, and returns once the wall clock passes t.
func (r *RealTime) RunUntil(t time.Duration) {
	for {
		for r.runNext(t) {
		}
		if r.Closed() {
			return
		}
		wait := t - r.Now()
		if wait <= 0 {
			return
		}
		// Idle until t, but stay preemptible: an event scheduled from
		// another goroutine with a deadline before t must still run,
		// and Close must release the loop immediately.
		tmr := time.NewTimer(wait)
		select {
		case <-tmr.C:
		case <-r.wake:
			tmr.Stop()
		case <-r.done:
			tmr.Stop()
			return
		}
	}
}

// RunFor processes events for the next d of wall time.
func (r *RealTime) RunFor(d time.Duration) { r.RunUntil(r.Now() + d) }

// Drain runs events (waiting out their deadlines) until none remain or
// the limit is reached. It returns the number of events processed.
func (r *RealTime) Drain(limit int) int {
	n := 0
	for n < limit && r.Step() {
		n++
	}
	return n
}

// Shards implements Partitioned: a real-time engine is one shard.
func (r *RealTime) Shards() int { return 1 }

// Shard implements Partitioned.
func (r *RealTime) Shard(i int) Scheduler {
	if i != 0 {
		panic("engine: real-time engine has a single shard")
	}
	return r
}

// CrossAfter implements Partitioned: with one shard there is nothing to
// cross, so it is After without the Timer handle its signature could
// never return.
func (r *RealTime) CrossAfter(from, to int, d time.Duration, fn func()) {
	r.schedule(d, fn)
}

// realTimer is the Timer handle of the real-time engine. Like the
// virtual-time handles it carries the generation the event had when
// scheduled, so a handle whose event fired and was recycled is inert.
type realTimer struct {
	r   *RealTime
	ev  *event
	gen uint64
}

// Stop implements Timer. Unlike the virtual-time engines it may be
// called from any goroutine.
func (t *realTimer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	ev := t.ev
	if ev.gen != t.gen || ev.stopped || ev.index < 0 {
		return false
	}
	t.r.q.stop(ev)
	return true
}

// realTicker is the RealTime fast-path Ticker: one event and one
// closure for the ticker's lifetime, re-armed under the scheduler lock,
// so a daemon's periodic work (heartbeats, background traffic, poll
// loops) allocates nothing per firing. Stop and SetInterval are safe
// from any goroutine, matching the scheduler's concurrency contract —
// the generic re-arm ticker never was.
type realTicker struct {
	r        *RealTime
	ev       *event
	fire     func()
	interval time.Duration
	fn       func()
	stopped  bool
}

func newRealTicker(r *RealTime, interval time.Duration, fn func()) *realTicker {
	t := &realTicker{r: r, interval: interval, fn: fn}
	t.fire = func() {
		t.fn()
		r.mu.Lock()
		if !t.stopped && !r.closed && t.ev != nil {
			ev := t.ev
			r.q.rearm(ev, r.Now()+t.interval)
			isHead := r.q.heap[0] == ev
			r.mu.Unlock()
			if isHead {
				r.wakeup()
			}
			return
		}
		if ev := t.ev; ev != nil {
			// Stopped (or closed) while firing: hand the held event
			// back to the pool.
			t.ev = nil
			ev.held = false
			r.q.release(ev)
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	if r.closed {
		t.stopped = true
		r.mu.Unlock()
		return t
	}
	ev := r.q.alloc(r.Now()+interval, t.fire)
	ev.held = true
	r.q.enqueue(ev)
	t.ev = ev
	isHead := r.q.heap[0] == ev
	r.mu.Unlock()
	if isHead {
		r.wakeup()
	}
	return t
}

func (t *realTicker) Stop() {
	r := t.r
	r.mu.Lock()
	if t.stopped {
		r.mu.Unlock()
		return
	}
	t.stopped = true
	if ev := t.ev; ev != nil && ev.index >= 0 {
		// Armed: cancel the pending firing; the run loop or compaction
		// reclaims it. If the event is mid-fire instead, the fire
		// epilogue sees stopped and releases it.
		t.ev = nil
		ev.held = false
		r.q.stop(ev)
	}
	r.mu.Unlock()
}

func (t *realTicker) Interval() time.Duration {
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	return t.interval
}

func (t *realTicker) SetInterval(interval time.Duration) {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	r := t.r
	r.mu.Lock()
	t.interval = interval
	if ev := t.ev; !t.stopped && ev != nil && ev.index >= 0 {
		// Armed: re-key the pending firing to interval from now. The
		// heap supports an in-place Fix, and a fresh sequence number
		// keeps FIFO order against events already scheduled at the same
		// instant (mirroring the virtual-time tickers). Mid-fire, the
		// epilogue re-arms with the new interval instead.
		ev.at = r.Now() + interval
		ev.seq = r.q.seq
		r.q.seq++
		heap.Fix(&r.q.heap, ev.index)
		isHead := r.q.heap[0] == ev
		r.mu.Unlock()
		if isHead {
			r.wakeup()
		}
		return
	}
	r.mu.Unlock()
}
