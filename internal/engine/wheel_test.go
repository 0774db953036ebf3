package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// --- wheel-vs-heap equivalence ---

// mix is a splitmix64-style hash step: the scripts below use it as
// their deterministic random source.
func mix(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// runSerialScript drives a randomized scheduling script — one-shots
// across every wheel range (cur window, all three levels, overflow),
// nested scheduling, cancels, tickers with SetInterval and Stop, a mass
// cancel, and chunked runs — and returns the exact firing log. The
// script is a pure function of the seed, so the wheel and the heap
// reference must produce byte-identical logs.
func runSerialScript(l Scheduler, seed uint64) []string {
	rng := seed
	next := func(n int) int {
		rng = mix(rng, 0x6a09e667f3bcc909)
		return int(rng % uint64(n))
	}
	deltas := []time.Duration{
		0,
		1,
		300 * time.Nanosecond,
		7 * time.Microsecond,
		100 * time.Microsecond,
		900 * time.Microsecond,
		3 * time.Millisecond, // beyond level 0's 2.1ms block
		47 * time.Millisecond,
		800 * time.Millisecond, // beyond level 1's 268ms block
		2 * time.Second,
		40 * time.Second, // beyond level 2's 34.4s block: overflow
		11 * time.Minute,
	}
	var log []string
	var timers []Timer
	id := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		myid := id
		id++
		d := deltas[next(len(deltas))]
		tm := l.After(d, func() {
			log = append(log, fmt.Sprintf("%d@%d", myid, l.Now()))
			if depth < 3 {
				for i, k := 0, next(4); i < k; i++ {
					spawn(depth + 1)
				}
			}
			if len(timers) > 0 && next(3) == 0 {
				timers[next(len(timers))].Stop()
			}
		})
		if next(4) == 0 {
			timers = append(timers, tm)
		}
	}
	for i := 0; i < 40; i++ {
		spawn(0)
	}
	for i := 0; i < 6; i++ {
		tid := id
		id++
		iv := deltas[3+next(6)]
		fires := 0
		var tk Ticker
		tk = l.Every(iv, func() {
			fires++
			log = append(log, fmt.Sprintf("t%d@%d", tid, l.Now()))
			switch {
			case fires == 4:
				tk.SetInterval(iv + iv/2)
			case fires >= 8:
				tk.Stop()
			}
		})
	}
	l.RunFor(10 * time.Second)
	for _, tm := range timers {
		tm.Stop()
	}
	l.RunFor(11 * time.Minute)
	l.Drain(1 << 20)
	return log
}

func TestWheelMatchesHeapPopOrder(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		wheel := runSerialScript(NewSerial(), seed)
		ref := runSerialScript(newHeapSched(), seed)
		if len(wheel) == 0 {
			t.Fatalf("seed %d: empty firing log", seed)
		}
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: firing %d diverged: wheel %s, heap %s", seed, i, wheel[i], ref[i])
			}
		}
	}
}

// poolScriptOp is one step of the pooling property test: an event at a
// pseudo-random time that optionally schedules a child and optionally
// stops an earlier op's timer.
type poolScriptOp struct {
	at         time.Duration
	childDelay time.Duration // 0 = no child
	stopTarget int           // -1 = no stop
}

// runPoolScript executes the script on any scheduler and returns the
// observed firing order. All decisions live in the pre-generated
// script, so both schedulers execute literally the same closures.
func runPoolScript(s Scheduler, script []poolScriptOp, runFor time.Duration) []int {
	timers := make([]Timer, len(script))
	var order []int
	for i, op := range script {
		i, op := i, op
		timers[i] = s.At(op.at, func() {
			order = append(order, i)
			if op.childDelay > 0 {
				s.After(op.childDelay, func() { order = append(order, len(script)+i) })
			}
			if op.stopTarget >= 0 {
				timers[op.stopTarget].Stop()
			}
		})
	}
	s.RunFor(runFor)
	return order
}

// TestPooledOrderMatchesSerial is the pooling property test: the serial
// engine, whose events are recycled through its free list, must produce
// the exact firing order of the unpooled heap reference across
// randomized schedules with duplicate times, nested scheduling, and
// Stop/cancel interleavings (including stops of already-fired,
// already-recycled events).
func TestPooledOrderMatchesSerial(t *testing.T) {
	const ops = 200
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]poolScriptOp, ops)
		for i := range script {
			script[i] = poolScriptOp{
				// Coarse quantization forces plenty of equal-time ties.
				at:         time.Duration(rng.Intn(40)) * 250 * time.Microsecond,
				stopTarget: -1,
			}
			if rng.Intn(2) == 0 {
				script[i].childDelay = time.Duration(1+rng.Intn(8)) * 250 * time.Microsecond
			}
			if i > 0 && rng.Intn(3) == 0 {
				script[i].stopTarget = rng.Intn(i)
			}
		}
		runFor := 15 * time.Millisecond

		ref := runPoolScript(newHeapSched(), script, runFor)
		got := runPoolScript(NewSerial(), script, runFor)
		if len(ref) != len(got) {
			t.Fatalf("seed %d: heap fired %d events, pooled fired %d", seed, len(ref), len(got))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("seed %d: pop order diverged at %d: heap %d, pooled %d", seed, i, ref[i], got[i])
			}
		}
	}
}

// --- Pending and lazy compaction ---

// TestPendingExcludesCancelled is the regression test for the
// documented contract: Pending counts unfired, uncancelled events.
// (The heap-era Serial counted cancelled events until they drained.)
func TestPendingExcludesCancelled(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		l.After(time.Millisecond, func() {})
		tm := l.After(2*time.Millisecond, func() {})
		l.After(3*time.Millisecond, func() {})
		tk := l.Every(4*time.Millisecond, func() {})
		if n := l.Pending(); n != 4 {
			t.Fatalf("Pending() = %d before cancel, want 4", n)
		}
		tm.Stop()
		if n := l.Pending(); n != 3 {
			t.Fatalf("Pending() = %d after Timer.Stop, want 3", n)
		}
		tk.Stop()
		if n := l.Pending(); n != 2 {
			t.Fatalf("Pending() = %d after Ticker.Stop, want 2", n)
		}
		l.RunFor(10 * time.Millisecond)
		if n := l.Pending(); n != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", n)
		}
	})
}

// TestMassCancelCompacts cancels a large far-future batch and requires
// the queue to reclaim the dead entries immediately instead of
// stranding them until their (distant) pop time.
func TestMassCancelCompacts(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		l := NewSerial()
		const n = 10000
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			// Spread across every wheel level and the overflow.
			d := time.Duration(i) * 7 * time.Millisecond
			timers = append(timers, l.After(time.Millisecond+d, func() {}))
		}
		ran := 0
		l.After(500*time.Microsecond, func() { ran++ })
		for _, tm := range timers {
			if !tm.Stop() {
				t.Fatal("Stop on pending timer reported false")
			}
		}
		if l.q.dead >= compactMinDead {
			t.Fatalf("%d cancelled events still queued after mass cancel, want < %d", l.q.dead, compactMinDead)
		}
		if n := l.Pending(); n != 1 {
			t.Fatalf("Pending() = %d after mass cancel, want 1", n)
		}
		// Compaction emptied the slots in place; events placed in them
		// afterwards must still fire.
		for i := 0; i < n; i += 100 {
			l.After(time.Millisecond+time.Duration(i)*7*time.Millisecond, func() { ran++ })
		}
		l.RunFor(time.Duration(n) * 7 * time.Millisecond)
		if ran != 1+n/100 {
			t.Fatalf("%d events ran, want %d: the survivor and every re-placed one", ran, 1+n/100)
		}
		if n := l.Pending(); n != 0 {
			t.Fatalf("Pending() = %d after drain, want 0", n)
		}
	})
}

// TestSerialStaleHandleAfterRecycle pins the generation check on pooled
// events: once an event fires and its slot is reused, the old handle's
// Stop must be inert rather than cancelling the slot's new occupant.
func TestSerialStaleHandleAfterRecycle(t *testing.T) {
	l := NewSerial()
	tm1 := l.After(time.Millisecond, func() {})
	l.RunFor(2 * time.Millisecond)
	ran := false
	l.After(time.Millisecond, func() { ran = true }) // reuses the pooled event
	if tm1.Stop() {
		t.Fatal("Stop on a fired (recycled) handle reported true")
	}
	l.RunFor(2 * time.Millisecond)
	if !ran {
		t.Fatal("stale handle Stop cancelled the recycled slot's new event")
	}
}

// --- ticker edge semantics ---

// TestTickerSetIntervalVsSimultaneous: rescheduling an armed ticker
// takes a fresh sequence number, so an event already scheduled at the
// rescheduled instant keeps FIFO priority over the ticker's firing.
func TestTickerSetIntervalVsSimultaneous(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var log []string
		tk := l.Every(10*time.Millisecond, func() { log = append(log, "tick") })
		l.After(5*time.Millisecond, func() {
			// First the one-shot lands at 15ms, then the ticker is
			// rescheduled to the same instant: FIFO says X fires first.
			l.After(10*time.Millisecond, func() { log = append(log, "X") })
			tk.SetInterval(10 * time.Millisecond)
		})
		l.RunFor(26 * time.Millisecond)
		want := []string{"X", "tick", "tick"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("log = %v, want %v (one-shot before rescheduled ticker at 15ms, next tick at 25ms)", log, want)
		}
	})
}

// TestTickerRearmFIFOAmongSameTick: tickers sharing an instant fire in
// creation order on every round — the in-place re-arm must keep
// assigning sequence numbers in firing order.
func TestTickerRearmFIFOAmongSameTick(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var log []string
		for _, name := range []string{"A", "B", "C"} {
			name := name
			l.Every(time.Millisecond, func() { log = append(log, name) })
		}
		l.RunFor(4 * time.Millisecond)
		want := []string{"A", "B", "C", "A", "B", "C", "A", "B", "C", "A", "B", "C"}
		if fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("log = %v, want 4 rounds of [A B C]", log)
		}
	})
}

// TestTickerStopReleasesHeldEvent: a fast-path ticker owns one event
// for its lifetime; stopping it from inside its own callback must hand
// that event back to the pool (the fire epilogue path), and stopping
// while armed must reclaim it lazily without counting it as pending.
func TestTickerStopReleasesHeldEvent(t *testing.T) {
	l := NewSerial()
	fires := 0
	var tk Ticker
	tk = l.Every(time.Millisecond, func() {
		fires++
		if fires == 2 {
			tk.Stop()
		}
	})
	l.RunFor(10 * time.Millisecond)
	if fires != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", fires)
	}
	if n := l.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after ticker stop, want 0", n)
	}
	if len(l.q.free) == 0 {
		t.Fatal("held ticker event was not returned to the pool")
	}
	// The pooled event must be reusable.
	ran := false
	l.After(time.Millisecond, func() { ran = true })
	l.RunFor(2 * time.Millisecond)
	if !ran {
		t.Fatal("event pooled from a stopped ticker did not fire when reused")
	}
}

// --- RealTime ticker semantics (wall clock: generous assertions) ---

func TestRealTimeTickerStopInsideCallback(t *testing.T) {
	r := NewRealTime()
	fires := 0
	var tk Ticker
	tk = r.Every(2*time.Millisecond, func() {
		fires++
		if fires == 2 {
			tk.Stop()
		}
	})
	r.RunFor(20 * time.Millisecond)
	if fires != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", fires)
	}
	if n := r.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after ticker stop, want 0", n)
	}
}

func TestRealTimeTickerRearmFIFO(t *testing.T) {
	r := NewRealTime()
	var log []string
	rounds := 0
	r.Every(5*time.Millisecond, func() { log = append(log, "A") })
	r.Every(5*time.Millisecond, func() { log = append(log, "B"); rounds++ })
	for i := 0; i < 40 && rounds < 3; i++ {
		r.RunFor(5 * time.Millisecond)
	}
	if rounds < 3 {
		t.Fatalf("only %d rounds completed", rounds)
	}
	for i := 0; i+1 < 2*rounds; i += 2 {
		if log[i] != "A" || log[i+1] != "B" {
			t.Fatalf("round %d fired as %v, want A before B every round", i/2, log[i:i+2])
		}
	}
}

func TestRealTimeTickerSetIntervalWhileArmed(t *testing.T) {
	r := NewRealTime()
	fires := 0
	tk := r.Every(time.Hour, func() { fires++ })
	if n := r.Pending(); n != 1 {
		t.Fatalf("Pending() = %d with one armed ticker, want 1", n)
	}
	// Re-key the armed firing from an hour out to milliseconds.
	tk.SetInterval(2 * time.Millisecond)
	if got := tk.Interval(); got != 2*time.Millisecond {
		t.Fatalf("Interval() = %v, want 2ms", got)
	}
	for i := 0; i < 40 && fires < 2; i++ {
		r.RunFor(2 * time.Millisecond)
	}
	if fires < 2 {
		t.Fatal("rescheduled ticker never fired on the shortened interval")
	}
	tk.Stop()
	if n := r.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", n)
	}
}

func TestRealTimeStaleHandleAfterRecycle(t *testing.T) {
	r := NewRealTime()
	tm1 := r.After(time.Millisecond, func() {})
	r.RunFor(5 * time.Millisecond)
	ran := false
	r.After(2*time.Millisecond, func() { ran = true }) // reuses the pooled event
	if tm1.Stop() {
		t.Fatal("Stop on a fired (recycled) handle reported true")
	}
	r.RunFor(10 * time.Millisecond)
	if !ran {
		t.Fatal("stale handle Stop cancelled the recycled slot's new event")
	}
}

// --- ScheduleOn ---

func TestScheduleOn(t *testing.T) {
	forEachEngine(t, func(t *testing.T, l Scheduler) {
		var got []int
		ScheduleOn(l, 2*time.Millisecond, func() { got = append(got, 2) })
		ScheduleOn(l, time.Millisecond, func() { got = append(got, 1) })
		if n := l.Pending(); n != 2 {
			t.Fatalf("Pending() = %d, want 2", n)
		}
		l.RunFor(5 * time.Millisecond)
		if fmt.Sprint(got) != fmt.Sprint([]int{1, 2}) {
			t.Fatalf("fired as %v, want [1 2]", got)
		}
	})
	// RealTime implements the handle-free path too.
	r := NewRealTime()
	ran := false
	ScheduleOn(r, time.Millisecond, func() { ran = true })
	r.RunFor(15 * time.Millisecond)
	if !ran {
		t.Fatal("ScheduleOn event did not fire on RealTime")
	}
}

// ScheduleOn has no Timer to return, so on the serial engine it must
// not build one: every packet hop and control-link message goes through
// it. Order against After is unchanged (same queue, same seq).
func TestScheduleOnAllocFree(t *testing.T) {
	l := NewSerial()
	var got []int
	ScheduleOn(l, time.Millisecond, func() { got = append(got, 1) })
	l.After(time.Millisecond, func() { got = append(got, 2) })
	ScheduleOn(l, time.Millisecond, func() { got = append(got, 3) })
	l.RunFor(time.Millisecond)
	if fmt.Sprint(got) != fmt.Sprint([]int{1, 2, 3}) {
		t.Fatalf("fired as %v, want [1 2 3]", got)
	}
	fired := 0
	fn := func() { fired++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		ScheduleOn(l, 50*time.Microsecond, fn)
		l.Step()
	}); allocs != 0 {
		t.Fatalf("ScheduleOn allocates %v per call on Serial in steady state, want 0", allocs)
	}
	if fired != 1001 { // AllocsPerRun adds one warm-up run
		t.Fatalf("fired %d callbacks, want 1001", fired)
	}
}

// TestFreshEngineAllocFree: a new engine allocates nothing once its
// free list is warm, at any age, and not only after its first top-level
// rotation (34.4 s virtual). Self-rescheduling chains hop through offsets
// that land in level 0, level 1, level 2 and the overflow heap, beside
// one ticker per range, for nearly three rotations. The count is the raw
// MemStats delta: AllocsPerRun divides by its run count, so a trickle
// below one allocation per run reads as 0.
func TestFreshEngineAllocFree(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("event is %d B, want at most 64 (one size class)", n)
	}
	// The process-wide count also takes in the runtime's own rare
	// allocations (a thread started as the world restarts after
	// ReadMemStats, the scavenger's timer). The engine's count is
	// deterministic, so it shows in every fresh engine; the least of
	// three is the engine's.
	least := ^uint64(0)
	for run := 0; run < 3; run++ {
		least = min(least, freshEngineMallocs(t))
	}
	if least != 0 {
		t.Fatalf("fresh engine allocated %d times in its first 100 virtual s, want 0", least)
	}
}

// freshEngineMallocs builds a fresh engine, warms it, and returns the
// Mallocs delta of its first 100 virtual seconds.
func freshEngineMallocs(t *testing.T) uint64 {
	l := NewSerial()
	offsets := []time.Duration{
		40 * time.Second, // overflow
		5 * time.Microsecond,
		900 * time.Microsecond, // level 0
		30 * time.Millisecond,  // level 1
		2 * time.Second,        // level 2
		200 * time.Microsecond,
		150 * time.Millisecond,
		20 * time.Second,
	}
	// 100 chains, all fired at t = 0 from one slot, size cur past every
	// event the engine will ever hold; their first hop does the same
	// for the overflow heap.
	const chains = 100
	fires := 0
	for k := 0; k < chains; k++ {
		hop := 0
		phase := time.Duration(k) * 37 * time.Microsecond
		var fn func()
		fn = func() {
			fires++
			d := offsets[hop%len(offsets)]
			if hop == 0 {
				d += phase
			}
			hop++
			ScheduleOn(l, d, fn)
		}
		ScheduleOn(l, 0, fn)
	}
	for _, iv := range []time.Duration{300 * time.Microsecond, 100 * time.Millisecond, 3 * time.Second, 50 * time.Second} {
		l.Every(iv, func() { fires++ })
	}
	l.RunFor(0)
	runtime.GC() // a cycle running into the window would count its own allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.RunFor(100 * time.Second)
	runtime.ReadMemStats(&after)
	if fires < 300_000 {
		t.Fatalf("only %d firings in 100 virtual s", fires)
	}
	return after.Mallocs - before.Mallocs
}
