package engine

import (
	"math"
	"testing"
	"time"
)

// Short wall-clock intervals with generous assertions: the point is
// that events fire on the wall clock in deadline order, not precise
// timing (CI machines stall).

func TestRealTimeFiresOnWallClock(t *testing.T) {
	r := NewRealTime()
	var fired []int
	r.After(4*time.Millisecond, func() { fired = append(fired, 2) })
	r.After(1*time.Millisecond, func() { fired = append(fired, 1) })
	ticks := 0
	tk := r.Every(3*time.Millisecond, func() { ticks++ })

	start := time.Now()
	r.RunFor(30 * time.Millisecond)
	elapsed := time.Since(start)
	tk.Stop()

	if elapsed < 30*time.Millisecond {
		t.Fatalf("RunFor returned after %v of wall time, want >= 30ms", elapsed)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("one-shots fired as %v, want [1 2] in deadline order", fired)
	}
	// 3 ms period over 30 ms: nominally 10 firings; accept any real
	// progress so a stalled CI runner can't flake the test.
	if ticks < 3 {
		t.Fatalf("ticker fired %d times in 30ms at 3ms period, want >= 3", ticks)
	}
	if now := r.Now(); now < 30*time.Millisecond {
		t.Fatalf("Now() = %v after a 30ms run", now)
	}
}

// TestRealTimeSaturates: on the wall clock too, an offset past the
// largest Duration lands at the end of time, not a wrap to an overdue
// deadline.
func TestRealTimeSaturates(t *testing.T) {
	r := NewRealTime()
	r.RunFor(2 * time.Millisecond)
	fired := 0
	r.After(math.MaxInt64, func() { fired++ })
	ScheduleOn(r, math.MaxInt64, func() { fired++ })
	// The tickers stop at their first firing, so a wrapping re-arm
	// fails the test instead of hanging it.
	var tick, retuned Ticker
	tick = r.Every(math.MaxInt64, func() { fired++; tick.Stop() })
	retuned = r.Every(time.Hour, func() { fired++; retuned.Stop() })
	retuned.SetInterval(math.MaxInt64)
	r.RunFor(5 * time.Millisecond)
	if fired != 0 || r.Pending() != 4 {
		t.Fatalf("fired %d, pending %d after 5ms; want 0 fired, 4 pending", fired, r.Pending())
	}
}

func TestRealTimeTimerStop(t *testing.T) {
	r := NewRealTime()
	ran := false
	tm := r.After(5*time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop before firing reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	r.RunFor(10 * time.Millisecond)
	if ran {
		t.Fatal("cancelled timer fired")
	}
	if n := r.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", n)
	}
}

func TestRealTimeStepAndDrain(t *testing.T) {
	r := NewRealTime()
	if r.Step() {
		t.Fatal("Step on an empty scheduler reported work")
	}
	n := 0
	r.After(time.Millisecond, func() { n++ })
	r.After(2*time.Millisecond, func() { n++ })
	if !r.Step() {
		t.Fatal("Step did not run the pending event")
	}
	if n != 1 {
		t.Fatalf("ran %d events after one Step, want 1", n)
	}
	if got := r.Drain(10); got != 1 {
		t.Fatalf("Drain processed %d events, want 1", got)
	}
	if n != 2 {
		t.Fatalf("ran %d events total, want 2", n)
	}
}

// TestRealTimeCloseWakesBlockedRun is the daemon-shutdown contract: a
// run loop asleep toward a far-future deadline must return within
// 100 ms of Close, not wait the deadline out.
func TestRealTimeCloseWakesBlockedRun(t *testing.T) {
	r := NewRealTime()
	r.After(time.Hour, func() { t.Error("event fired after Close") })
	returned := make(chan struct{})
	go func() {
		r.RunFor(time.Hour)
		close(returned)
	}()
	time.Sleep(10 * time.Millisecond) // let the loop reach its sleep
	start := time.Now()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-returned:
	case <-time.After(100 * time.Millisecond):
		t.Fatal("RunFor still blocked 100ms after Close")
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("shutdown took %v, want < 100ms", d)
	}
	// After Close the scheduler is inert: runs return immediately and
	// new events are refused.
	if r.Step() {
		t.Fatal("Step ran an event after Close")
	}
	if tm := r.After(time.Millisecond, func() { t.Error("post-Close event fired") }); tm.Stop() {
		t.Fatal("post-Close timer claimed to be stoppable")
	}
	r.RunFor(5 * time.Millisecond)
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestRealTimeCrossGoroutineSchedule exercises the wake path: a callback
// posted from another goroutine while the run loop sleeps toward a far
// deadline must run promptly, and the event it schedules with an earlier
// deadline than that one must still fire on time.
func TestRealTimeCrossGoroutineSchedule(t *testing.T) {
	r := NewRealTime()
	fired := make(chan struct{}, 1)
	r.After(250*time.Millisecond, func() {}) // far-out head to sleep toward
	go func() {
		time.Sleep(2 * time.Millisecond)
		r.Post(func() {
			r.After(time.Millisecond, func() { fired <- struct{}{} })
		})
	}()
	done := make(chan struct{})
	go func() {
		r.RunFor(60 * time.Millisecond)
		close(done)
	}()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("cross-goroutine event never fired")
	}
	<-done
}

// TestRealTimePostRace is the Post contract under -race: 8 goroutines
// post 500 callbacks each into a running loop. Every callback runs
// exactly once, on the driving goroutine, and each poster's callbacks run
// in posting order. A Post after Close never runs and does not block.
func TestRealTimePostRace(t *testing.T) {
	const posters, per = 8, 500
	r := NewRealTime()
	// Loop-owned state: touched only by posted callbacks and the ticker,
	// so the race detector flags any callback run off the driving
	// goroutine.
	next := make([]int, posters)
	total := 0
	done := make(chan struct{})
	r.Every(time.Millisecond, func() {}) // keep the loop re-arming its sleep
	loopDone := make(chan struct{})
	go func() {
		r.RunFor(time.Hour)
		close(loopDone)
	}()
	for p := 0; p < posters; p++ {
		p := p
		go func() {
			for i := 0; i < per; i++ {
				i := i
				r.Post(func() {
					if next[p] != i {
						t.Errorf("poster %d: callback %d ran when %d was due", p, i, next[p])
					}
					next[p]++
					if total++; total == posters*per {
						close(done)
					}
				})
			}
		}()
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("posted callbacks did not all run")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-loopDone
	posted := make(chan struct{})
	go func() {
		r.Post(func() { t.Error("callback posted after Close ran") })
		close(posted)
	}()
	select {
	case <-posted:
	case <-time.After(time.Second):
		t.Fatal("Post after Close blocked")
	}
	r.RunFor(5 * time.Millisecond)
	for p, n := range next {
		if n != per {
			t.Fatalf("poster %d: %d callbacks ran, want %d", p, n, per)
		}
	}
}
