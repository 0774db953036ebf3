// Package engine is the discrete-event scheduling core of the emulated
// data center. It decouples every layer of the reproduction (soil
// runtimes, fabric delivery, PCIe bus accounting, the broker, the §VI
// experiments) from a concrete event loop behind the Scheduler
// interface, with two implementations:
//
//   - Serial: the original single-threaded loop over virtual time.
//     Every scheduled callback runs inline on the driving goroutine;
//     execution order is a total (time, seq) order.
//
//   - Sharded: a conservative-parallel executor that partitions events
//     into shards (one or more emulated switches per shard), runs the
//     shards on worker goroutines epoch-by-epoch under a lookahead
//     window, and merges cross-shard sends at epoch barriers in a fixed
//     (epoch, source shard, seq) order, so simulation output is
//     reproducible — and, for state partitioned by switch, identical to
//     serial execution.
//
// See docs/engine.md for the determinism model and shard-count guidance.
package engine

import "time"

// Clock exposes virtual time. Meters and consumers that only read time
// depend on this narrow view.
type Clock interface {
	// Now returns the current virtual time. On a shard view this is the
	// shard-local time, which trails the epoch frontier by at most the
	// lookahead window and equals the global time between runs.
	Now() time.Duration
}

// Timer is a handle to a scheduled one-shot callback.
type Timer interface {
	// Stop cancels the timer if it has not fired. It reports whether the
	// call prevented the callback from running. Stop must be called from
	// the scheduler's own execution context (a callback on the same
	// shard, or the driving goroutine between runs).
	Stop() bool
}

// Ticker fires a callback periodically.
type Ticker interface {
	// Stop cancels future firings.
	Stop()
	// Interval returns the current period.
	Interval() time.Duration
	// SetInterval changes the period, rescheduling the pending firing to
	// interval from now. Seeds use this when they change their polling
	// rate dynamically (§II-B-a).
	SetInterval(interval time.Duration)
}

// Scheduler is a deterministic discrete-event scheduler over virtual
// time. Both engines implement it, as do the per-shard views of the
// sharded engine (whose Step/RunUntil/RunFor/Drain panic: runs are
// driven from the root executor only).
type Scheduler interface {
	Clock

	// At schedules fn at absolute virtual time at. Scheduling in the
	// past (at < Now) fires at the current time, preserving order of
	// submission.
	At(at time.Duration, fn func()) Timer
	// After schedules fn after delay d.
	After(d time.Duration, fn func()) Timer
	// Every schedules fn every interval, first firing one interval from
	// now. interval must be positive.
	Every(interval time.Duration, fn func()) Ticker
	// Pending returns the number of scheduled (unfired, uncancelled)
	// events.
	Pending() int

	// Step runs the earliest pending work unit — one event on the serial
	// engine, one epoch on the sharded engine — advancing virtual time.
	// It reports whether anything ran.
	Step() bool
	// RunUntil processes all events scheduled at or before t, then
	// advances the clock to exactly t.
	RunUntil(t time.Duration)
	// RunFor advances the clock by d, processing everything in between.
	RunFor(d time.Duration)
	// Drain runs events until none remain or the limit is reached (a
	// safety valve against self-perpetuating tickers). It returns the
	// number of events processed.
	Drain(limit int) int
}

// Partitioned is implemented by schedulers that expose per-shard
// scheduler views. Consumers that pin state to shards (the fabric) use
// it to place each emulated switch's events on that switch's shard and
// to route cross-shard sends through the epoch barrier.
//
// The contract callers must hold for determinism and race freedom:
//
//   - All events that mutate a piece of state are scheduled on one
//     shard (the state's home shard).
//   - CrossAfter is the only way one shard schedules onto another, and
//     its delay must be at least the executor's lookahead window.
type Partitioned interface {
	// Shards returns the number of shards.
	Shards() int
	// Shard returns the scheduler view pinned to shard i.
	Shard(i int) Scheduler
	// CrossAfter schedules fn on shard to, d after shard from's current
	// time. It must be called either from an event executing on shard
	// from, or from the driving goroutine between runs. On a parallel
	// executor d must be >= the lookahead window.
	CrossAfter(from, to int, d time.Duration, fn func())
}

// ticker is the engine-generic Ticker: it re-arms itself through any
// Scheduler, allocating a fresh event and Timer handle per firing.
// Schedulers on the timing wheel get the zero-alloc queueTicker fast
// path instead (wheel.go); this implementation remains for foreign
// Scheduler implementations and for the tests' reference scheduler.
type ticker struct {
	s        Scheduler
	interval time.Duration
	fn       func()
	fire     func() // the re-arming callback, built once so periodic re-arms don't allocate a closure per firing
	timer    Timer
	stopped  bool
	firing   bool
}

// EveryOn implements Scheduler.Every over any Scheduler.
func EveryOn(s Scheduler, interval time.Duration, fn func()) Ticker {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	if o, ok := s.(queueOwner); ok {
		return newQueueTicker(o, interval, fn)
	}
	t := &ticker{s: s, interval: interval, fn: fn}
	t.fire = func() {
		if t.stopped {
			return
		}
		t.firing = true
		t.fn()
		t.firing = false
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
