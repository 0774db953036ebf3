// Package engine is the discrete-event scheduling core of the emulated
// data center. It decouples every layer of the reproduction (soil
// runtimes, fabric delivery, PCIe bus accounting, the broker, the §VI
// experiments) from a concrete event loop behind the Scheduler
// interface. There is one event loop:
//
//   - Serial: the single-threaded loop over virtual time. Every
//     scheduled callback runs inline on the driving goroutine; execution
//     order is a total (time, seq) order.
//
//   - RealTime: a wall-clock pacer over Serial, for demos, wall-clock
//     latency measurements and the fleet daemon.
//
// See docs/engine.md for the determinism model.
package engine

import "time"

// Clock exposes virtual time. Meters and consumers that only read time
// depend on this narrow view.
type Clock interface {
	// Now returns the current virtual time.
	Now() time.Duration
}

// Timer is a handle to a scheduled one-shot callback.
type Timer interface {
	// Stop cancels the timer if it has not fired. It reports whether the
	// call prevented the callback from running. Stop must be called from
	// the scheduler's own execution context (a callback, or the driving
	// goroutine between runs).
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
// time. Serial and RealTime implement it.
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

	// Step runs the earliest pending event, advancing virtual time. It
	// reports whether anything ran.
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
