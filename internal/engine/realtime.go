package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// RealTime is a Scheduler driven by the wall clock: a thin pacer around
// a Serial. Scheduling (At, After, Every, Pending, ScheduleOn) is the
// serial engine's own, on the same pooled timing wheel; only the run
// methods differ — instead of jumping virtual time to the next event they
// sleep until its wall deadline. It lets demos, latency benches (the
// Fig. 10 transports) and the fleet daemon run against real timers
// through the same interface every other component is written to — swap
// NewSerial() for NewRealTime() and the fabric, seeder, and generators
// run in real time.
//
// Each pass of the run loop:
//
//  1. moves the callbacks handed over by Post into the queue at the
//     current clock;
//  2. moves the clock forward to the elapsed wall time;
//  3. runs the earliest live event if it is due (and within the
//     RunUntil bound);
//  4. otherwise sleeps on one reused timer until the next deadline, a
//     Post, or Close.
//
// So Now, seen from a callback, is the wall time at which its step began:
// a ticker re-arms one interval after it actually fired, and a stall
// delays the missed firings instead of replaying them in a burst.
//
// Concurrency: the serial engine's contract — scheduling, handles,
// tickers, and the run methods belong to the one driving goroutine.
// The only calls safe from any goroutine are Post, Close, and Closed.
// Wall-clock execution is inherently not deterministic — an event that
// fires late fires late — so RealTime is for demos and wall-clock
// measurements, never for the reproducible experiments (those stay on
// virtual time).
type RealTime struct {
	Serial
	start time.Time
	// timer is the one wall-clock timer every sleep of the run loop
	// reuses.
	timer *time.Timer
	// spare is the drained inbox buffer, swapped back in on the next
	// pass so posting allocates nothing in steady state.
	spare []func()

	// mu guards inbox and the write of closed, so a Post either lands
	// before Close or is dropped. Post, Close and Closed are called from
	// any goroutine (a fleet service's HTTP and RPC handlers, its Stop)
	// while the run loop drains the inbox on the engine goroutine.
	mu     sync.Mutex
	inbox  []func()
	closed atomic.Bool
	// wake preempts a sleeping run loop when a callback is posted.
	wake chan struct{}
	// done is closed by Close: every sleeping run loop selects on it so
	// a long-lived daemon's shutdown never waits out a wall deadline.
	done chan struct{}
}

// NewRealTime returns a wall-clock scheduler whose time starts now.
func NewRealTime() *RealTime {
	return &RealTime{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

// Post hands fn to the driving goroutine, which runs it as an immediate
// event: queued at the loop's current clock, after the events already
// queued for that instant. Posts from one goroutine run in posting order.
// Post is safe from any goroutine and never blocks; after Close it drops
// fn.
func (r *RealTime) Post(fn func()) {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return
	}
	r.inbox = append(r.inbox, fn)
	r.mu.Unlock()
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Close shuts the scheduler down: any goroutine blocked in
// Step/RunUntil/RunFor/Drain wakes immediately and returns without
// running further events, and later run calls return at once. Events
// still pending (and any scheduled or posted afterwards) never fire.
// Close is idempotent and safe from any goroutine — it is the daemon
// shutdown path, where the driving goroutine is asleep inside RunFor and
// must be released without waiting out the current deadline.
func (r *RealTime) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed.Load() {
		r.closed.Store(true)
		r.inbox = nil
		close(r.done)
	}
	return nil
}

// Closed reports whether Close has been called.
func (r *RealTime) Closed() bool { return r.closed.Load() }

// At is Serial's At, except that after Close the event could never run,
// so it is not queued and the returned handle is inert.
func (r *RealTime) At(at time.Duration, fn func()) Timer {
	if r.Closed() {
		return &serialTimer{}
	}
	return r.Serial.At(at, fn)
}

// After schedules fn d after the current clock.
func (r *RealTime) After(d time.Duration, fn func()) Timer {
	return r.At(later(r.now, d), fn)
}

// collect moves the posted callbacks into the queue at the current
// clock. It reports false once the scheduler is closed.
func (r *RealTime) collect() bool {
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return false
	}
	batch := r.inbox
	r.inbox = r.spare[:0]
	r.mu.Unlock()
	for i, fn := range batch {
		r.schedule(0, fn)
		batch[i] = nil
	}
	r.spare = batch
	return true
}

// runNext runs the earliest live event once its deadline is due, if that
// deadline is at or before bound (bound < 0: no bound), sleeping toward
// it. It reports false when no such event is pending or the scheduler is
// closed.
func (r *RealTime) runNext(bound time.Duration) bool {
	for r.collect() {
		if wall := time.Since(r.start); wall > r.now {
			r.now = wall
		}
		at, ok := r.q.nextLive()
		if !ok || bound >= 0 && at > bound {
			return false
		}
		if at <= r.now {
			return r.Serial.Step()
		}
		r.sleep(at - r.now)
	}
	return false
}

// sleep blocks for d of wall time, or until a Post or Close wakes it.
func (r *RealTime) sleep(d time.Duration) {
	if r.timer == nil {
		r.timer = time.NewTimer(d)
	} else {
		r.timer.Reset(d)
	}
	select {
	case <-r.timer.C:
		return
	case <-r.wake:
	case <-r.done:
	}
	if !r.timer.Stop() {
		// It fired as we woke: drop the tick so the next sleep is not cut
		// short (one that is anyway only costs the loop one more pass).
		select {
		case <-r.timer.C:
		default:
		}
	}
}

// Step waits for the earliest pending event's wall deadline, runs it,
// and reports whether an event ran. It returns false immediately when
// nothing is scheduled.
func (r *RealTime) Step() bool { return r.runNext(-1) }

// RunUntil processes all events with deadlines at or before t, sleeping
// through the gaps, and returns once the wall clock passes t.
func (r *RealTime) RunUntil(t time.Duration) {
	for {
		for r.runNext(t) {
		}
		// runNext moved the clock to the wall time unless closed.
		if r.now >= t || r.Closed() {
			return
		}
		r.sleep(t - r.now)
	}
}

// RunFor processes events for the next d of wall time.
func (r *RealTime) RunFor(d time.Duration) { r.RunUntil(later(time.Since(r.start), d)) }

// Drain runs events (waiting out their deadlines) until none remain or
// the limit is reached. It returns the number of events processed.
func (r *RealTime) Drain(limit int) int {
	n := 0
	for n < limit && r.Step() {
		n++
	}
	return n
}
