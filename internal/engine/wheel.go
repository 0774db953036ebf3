package engine

import (
	"container/heap"
	"math/bits"
	"time"
)

// event is the one scheduled-callback record of the serial engine (and
// so of RealTime, its wall-clock pacer).
type event struct {
	at      time.Duration
	seq     uint64
	fn      func()
	stopped bool
	// index is >= 0 while the event is queued (the overflow-heap index
	// there, a plain queued marker elsewhere on the wheel) and -1 once
	// popped. Timer handles and the ticker fast path use it to
	// distinguish armed from in-flight events.
	index int
	// gen is bumped each time the event is recycled through a free
	// list; Timer handles compare it to detect staleness, so a Stop on
	// a handle whose event has fired and been reused is inert.
	gen uint64
	// held marks an event owned by a fast-path ticker: the queue never
	// recycles it on pop, so the ticker can re-arm the same object with
	// a fresh (at, seq) every period — zero allocations per firing.
	held bool
	// next links the event into its wheel slot's FIFO list.
	next *event
}

// eventLess is the executor-wide total order: time first, then the
// submission sequence number, so simultaneous events run FIFO.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the pooled pending-event set of the serial engine. It
// owns the event free list and the (at, seq) sequence counter, and
// orders events on the timing wheel. (at, seq) is a strict total order, so the pop sequence is
// the one a plain heap would produce — the package's tests hold the
// wheel to exactly that oracle.
type eventQueue struct {
	seq uint64
	// live and dead partition the queued events into unfired-uncancelled
	// and cancelled-awaiting-reclaim; Pending reports live only.
	live int
	dead int

	w *wheel

	free []*event
}

// alloc takes an event off the free list (or allocates one) and stamps
// it with the queue's next sequence number.
func (q *eventQueue) alloc(at time.Duration, fn func()) *event {
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.at, ev.seq, ev.fn, ev.stopped = at, q.seq, fn, false
	} else {
		ev = &event{at: at, seq: q.seq, fn: fn}
	}
	q.seq++
	return ev
}

// release returns a popped event to the free list. Bumping the
// generation invalidates any Timer handle still pointing at it.
func (q *eventQueue) release(ev *event) {
	ev.fn = nil
	ev.gen++
	q.free = append(q.free, ev)
}

// add allocates, stamps, and enqueues a new event.
func (q *eventQueue) add(at time.Duration, fn func()) *event {
	ev := q.alloc(at, fn)
	q.enqueue(ev)
	return ev
}

// rearm re-enqueues an event the caller still owns (a ticker's held
// event) with a fresh time and sequence number.
func (q *eventQueue) rearm(ev *event, at time.Duration) {
	ev.at, ev.seq, ev.stopped = at, q.seq, false
	q.seq++
	q.enqueue(ev)
}

func (q *eventQueue) enqueue(ev *event) {
	q.live++
	if q.w == nil {
		q.w = &wheel{}
	}
	if q.live+q.dead == 1 {
		// Empty queue: move the wheel origin to the event so placement
		// never cascades through the dead range in between.
		q.w.base = int64(ev.at) >> wheelTickShift
	}
	ev.index = 0
	q.w.place(ev)
}

// nextLive peeks the earliest live event time, reclaiming the cancelled
// events queued ahead of it — a run bound must be tested against the
// event that would actually run, not a dead head.
func (q *eventQueue) nextLive() (time.Duration, bool) {
	for {
		if q.w == nil || !q.w.ensureCur() {
			return 0, false
		}
		if ev := q.w.cur[q.w.curPos]; !ev.stopped {
			return ev.at, true
		}
		q.release(q.pop())
	}
}

// pop removes and returns the earliest queued event, or nil.
func (q *eventQueue) pop() *event {
	if q.w == nil || !q.w.ensureCur() {
		return nil
	}
	w := q.w
	ev := w.cur[w.curPos]
	w.cur[w.curPos] = nil
	w.curPos++
	if w.curPos == len(w.cur) {
		w.cur = w.cur[:0]
		w.curPos = 0
	}
	ev.index = -1
	if ev.stopped {
		q.dead--
	} else {
		q.live--
	}
	return ev
}

// stop cancels a queued event in place. The slot is reclaimed lazily:
// on pop, or by compact once cancelled events dominate the queue (so a
// mass cancel — e.g. removing a seed and its timers — cannot strand an
// arbitrarily large dead tail).
func (q *eventQueue) stop(ev *event) {
	ev.stopped = true
	q.live--
	q.dead++
	if q.dead >= compactMinDead && q.dead >= q.live {
		q.compact()
	}
}

// compactMinDead is the lazy-compaction floor: below it the dead tail
// is too small to be worth a sweep regardless of the live count.
const compactMinDead = 64

// compact removes every cancelled event from the queue. Firing order is
// untouched — only events that would have been skipped on pop vanish —
// so digests cannot move.
func (q *eventQueue) compact() {
	w := q.w
	// cur: filter in place, preserving sorted order.
	j := w.curPos
	for i := w.curPos; i < len(w.cur); i++ {
		ev := w.cur[i]
		if ev.stopped {
			ev.index = -1
			q.release(ev)
		} else {
			w.cur[j] = ev
			j++
		}
	}
	for i := j; i < len(w.cur); i++ {
		w.cur[i] = nil
	}
	w.cur = w.cur[:j]
	if w.curPos == len(w.cur) {
		w.cur = w.cur[:0]
		w.curPos = 0
	}
	// slots: unlink the cancelled events of each occupied list, keeping
	// the rest in insertion order.
	for level := 0; level < wheelLevels; level++ {
		for word := range w.occ[level] {
			m := w.occ[level][word]
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &^= 1 << b
				s := &w.slot[level][word<<6+b]
				s.tail = nil
				for link := &s.head; *link != nil; {
					if ev := *link; ev.stopped {
						*link = ev.next
						ev.index = -1
						q.release(ev)
					} else {
						s.tail = ev
						link = &ev.next
					}
				}
				if s.head == nil {
					w.occ[level][word] &^= 1 << b
				}
			}
		}
	}
	// overflow: filter and rebuild.
	kept := w.over[:0]
	for _, ev := range w.over {
		if ev.stopped {
			ev.index = -1
			q.release(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < len(w.over); i++ {
		w.over[i] = nil
	}
	w.over = kept
	for i, ev := range w.over {
		ev.index = i
	}
	heap.Init(&w.over)
	q.dead = 0
}

// Wheel geometry: 16.384µs level-0 ticks, 128 slots per level, three
// levels. Aligned blocks (not sliding windows) keep placement a pure
// function of (tick, base): level 0 spans the current 2.1ms block,
// level 1 the current 268ms block, level 2 the current 34.4s block, and
// everything beyond the level-2 block waits in the overflow heap.
const (
	wheelTickShift = 14
	wheelSlotBits  = 7
	wheelSlots     = 1 << wheelSlotBits
	wheelSlotMask  = wheelSlots - 1
	wheelLevels    = 3
)

// wheel is the timing-wheel state. Invariants, with base the
// level-0 tick of the wheel origin:
//
//   - every event in cur has tick < base; cur is sorted by (at, seq)
//     and consumed from curPos, so cur's remainder is globally earliest;
//   - every event in a slot or the overflow has tick >= base;
//   - the level-1 slot at base's own index and the level-2 slot at
//     base's own index are empty except immediately after base enters a
//     new block (a drain rollover), and ensureCur cascades them before
//     any further draining — so a block's leftovers can never be
//     overtaken by later events already sitting in level 0.
type wheel struct {
	base   int64
	cur    []*event
	curPos int
	slot   [wheelLevels][wheelSlots]eventList
	occ    [wheelLevels][wheelSlots / 64]uint64
	over   eventHeap
}

// eventList is one slot: a FIFO list threaded through the events' next
// links, so placing an event writes pointers and never allocates.
type eventList struct{ head, tail *event }

// place routes an event by its tick relative to base. O(1): no loops,
// no sifting.
func (w *wheel) place(ev *event) {
	tick := int64(ev.at) >> wheelTickShift
	if tick < w.base {
		w.curInsert(ev)
		return
	}
	switch {
	case tick>>wheelSlotBits == w.base>>wheelSlotBits:
		w.put(0, int(tick)&wheelSlotMask, ev)
	case tick>>(2*wheelSlotBits) == w.base>>(2*wheelSlotBits):
		w.put(1, int(tick>>wheelSlotBits)&wheelSlotMask, ev)
	case tick>>(3*wheelSlotBits) == w.base>>(3*wheelSlotBits):
		w.put(2, int(tick>>(2*wheelSlotBits))&wheelSlotMask, ev)
	default:
		heap.Push(&w.over, ev)
	}
}

// put appends at the tail: each slot stays in insertion (seq) order,
// which is the nearly sorted input sortEvents' insertion sort expects.
func (w *wheel) put(level, idx int, ev *event) {
	ev.index = 0
	ev.next = nil
	s := &w.slot[level][idx]
	if s.tail == nil {
		s.head = ev
	} else {
		s.tail.next = ev
	}
	s.tail = ev
	w.occ[level][idx>>6] |= 1 << (idx & 63)
}

// take detaches a slot's list and returns its head.
func (w *wheel) take(level, idx int) *event {
	ev := w.slot[level][idx].head
	w.slot[level][idx] = eventList{}
	w.occ[level][idx>>6] &^= 1 << (idx & 63)
	return ev
}

// curInsert places an event scheduled before the wheel origin (clamped
// "now" scheduling during a drain) into the sorted cur window. Callers
// clamp at >= now, so the insertion point is always at or after curPos.
// A full window first drops its consumed prefix: while a far event holds
// cur (the origin jumped to it), the events inserted ahead of it would
// otherwise grow cur without bound.
func (w *wheel) curInsert(ev *event) {
	ev.index = 0
	if len(w.cur) == cap(w.cur) && w.curPos > 0 {
		n := copy(w.cur, w.cur[w.curPos:])
		clear(w.cur[n:])
		w.cur, w.curPos = w.cur[:n], 0
	}
	lo, hi := w.curPos, len(w.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if eventLess(w.cur[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.cur = append(w.cur, nil)
	copy(w.cur[lo+1:], w.cur[lo:])
	w.cur[lo] = ev
}

// scan returns the lowest occupied slot index >= from at the given
// level.
func (w *wheel) scan(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	occ := &w.occ[level]
	word, bit := from>>6, from&63
	if v := occ[word] &^ (1<<bit - 1); v != 0 {
		return word<<6 + bits.TrailingZeros64(v), true
	}
	for i := word + 1; i < len(occ); i++ {
		if occ[i] != 0 {
			return i<<6 + bits.TrailingZeros64(occ[i]), true
		}
	}
	return 0, false
}

func (w *wheel) occupied(level, idx int) bool {
	return w.occ[level][idx>>6]&(1<<(idx&63)) != 0
}

// ensureCur refills the sorted cur window when it is exhausted: cascade
// any leftovers in the current upper-level slots, migrate due overflow,
// then drain the earliest occupied level-0 slot. Reports whether any
// event is queued.
func (w *wheel) ensureCur() bool {
	if w.curPos < len(w.cur) {
		return true
	}
	for {
		// Overflow events whose tick entered base's level-2 block (base
		// only moves between drains, so this runs before any draining in
		// the new block).
		for len(w.over) > 0 && int64(w.over[0].at)>>wheelTickShift>>(3*wheelSlotBits) == w.base>>(3*wheelSlotBits) {
			w.place(heap.Pop(&w.over).(*event))
		}
		// Leftovers in the current upper-level slots — present only just
		// after base rolled into a new block — must cascade down before
		// level 0 is trusted, or later events already in level 0 would
		// overtake them.
		if idx := int(w.base>>(2*wheelSlotBits)) & wheelSlotMask; w.occupied(2, idx) {
			w.cascade(2, idx)
			continue
		}
		if idx := int(w.base>>wheelSlotBits) & wheelSlotMask; w.occupied(1, idx) {
			w.cascade(1, idx)
			continue
		}
		if idx, ok := w.scan(0, int(w.base)&wheelSlotMask); ok {
			w.drain(idx)
			return true
		}
		if idx, ok := w.scan(1, int(w.base>>wheelSlotBits)&wheelSlotMask+1); ok {
			w.cascade(1, idx)
			continue
		}
		if idx, ok := w.scan(2, int(w.base>>(2*wheelSlotBits))&wheelSlotMask+1); ok {
			w.cascade(2, idx)
			continue
		}
		if len(w.over) > 0 {
			// Everything pending is beyond the wheel horizon: jump the
			// origin to it and migrate.
			w.base = int64(w.over[0].at) >> wheelTickShift
			continue
		}
		return false
	}
}

// cascade empties one upper-level slot, advancing base to the slot's
// block start if that is ahead, and re-places its events — each lands
// at a lower level (or cur), never back in the same slot.
func (w *wheel) cascade(level, idx int) {
	ev := w.take(level, idx)
	shift := uint(level * wheelSlotBits)
	blockStart := (w.base &^ (1<<(shift+wheelSlotBits) - 1)) | int64(idx)<<shift
	if blockStart > w.base {
		w.base = blockStart
	}
	for ev != nil {
		next := ev.next // place relinks ev
		w.place(ev)
		ev = next
	}
}

// drain moves one level-0 slot into cur (sorted by (at, seq) so
// simultaneous events keep FIFO order) and advances base past it.
// Slots hold no storage of their own: cur, like the overflow heap, is a
// slice that grows only to its high-water size.
func (w *wheel) drain(idx int) {
	w.cur = w.cur[:0]
	for ev := w.take(0, idx); ev != nil; ev = ev.next {
		w.cur = append(w.cur, ev)
	}
	w.curPos = 0
	w.base = (w.base&^wheelSlotMask | int64(idx)) + 1
	sortEvents(w.cur)
}

// sortEvents orders events by (at, seq) in place without allocating:
// insertion sort for typical slot sizes, heapsort beyond. The order is
// a strict total order, so the result is unique either way.
func sortEvents(evs []*event) {
	n := len(evs)
	if n < 2 {
		return
	}
	if n <= 32 {
		for i := 1; i < n; i++ {
			ev := evs[i]
			j := i - 1
			for j >= 0 && eventLess(ev, evs[j]) {
				evs[j+1] = evs[j]
				j--
			}
			evs[j+1] = ev
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownEvents(evs, i, n)
	}
	for i := n - 1; i > 0; i-- {
		evs[0], evs[i] = evs[i], evs[0]
		siftDownEvents(evs, 0, i)
	}
}

func siftDownEvents(evs []*event, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && eventLess(evs[c], evs[c+1]) {
			c++
		}
		if !eventLess(evs[i], evs[c]) {
			return
		}
		evs[i], evs[c] = evs[c], evs[i]
		i = c
	}
}

// eventHeap orders events by (at, seq) for deterministic FIFO behaviour
// among simultaneous events. It backs the wheel's overflow (and the
// tests' reference scheduler).
type eventHeap []*event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// queueTicker is Serial's Ticker: one event object and one closure for
// the ticker's lifetime, re-armed in place with a fresh (at, seq) after
// each firing. Steady state allocates nothing — the generic re-arm
// ticker the tests' heap scheduler uses allocates an event and a Timer
// handle per firing.
type queueTicker struct {
	l        *Serial
	ev       *event
	fire     func()
	interval time.Duration
	fn       func()
	stopped  bool
}

func newQueueTicker(l *Serial, interval time.Duration, fn func()) *queueTicker {
	t := &queueTicker{l: l, interval: interval, fn: fn}
	t.fire = func() {
		// Run the callback before re-arming, like the generic ticker:
		// events the callback schedules take their sequence numbers
		// first, so the FIFO order among simultaneous events is
		// bit-identical to the allocate-per-fire implementation.
		t.fn()
		q := &t.l.q
		if at := later(t.l.now, t.interval); !t.stopped && at > t.l.now {
			q.rearm(t.ev, at)
		} else if ev := t.ev; ev != nil {
			// Stopped from inside its own callback, or fired at the end
			// of time, where the re-arm would saturate to this same
			// instant and fire forever: the held event is in flight, so
			// the epilogue hands it back to the pool.
			t.ev = nil
			ev.held = false
			q.release(ev)
		}
	}
	q := &l.q
	ev := q.alloc(later(l.now, interval), t.fire)
	ev.held = true
	q.enqueue(ev)
	t.ev = ev
	return t
}

func (t *queueTicker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if ev := t.ev; ev != nil && ev.index >= 0 {
		// Armed: cancel the pending firing; the queue reclaims the
		// event lazily (pop or compaction).
		t.ev = nil
		ev.held = false
		t.l.q.stop(ev)
	}
}

func (t *queueTicker) Interval() time.Duration { return t.interval }

func (t *queueTicker) SetInterval(interval time.Duration) {
	if interval <= 0 {
		panic("engine: non-positive ticker interval")
	}
	if t.stopped {
		t.interval = interval
		return
	}
	t.interval = interval
	if ev := t.ev; ev != nil && ev.index >= 0 {
		// Armed: reschedule the pending firing to interval from now.
		// The queued event is abandoned in place and a fresh one takes
		// a new sequence number — the same ordering the generic
		// ticker's Stop+After produced, so an event already scheduled
		// at the same instant still fires first.
		q := &t.l.q
		ev.held = false
		q.stop(ev)
		nev := q.alloc(later(t.l.now, interval), t.fire)
		nev.held = true
		q.enqueue(nev)
		t.ev = nev
	}
	// Inside our own callback the epilogue re-arms at interval from
	// now, which is the same instant the armed path would pick.
}

// ScheduleOn schedules fn after d on s without returning a Timer. For
// callers that never cancel (the fabric's packet hops and control-link
// messages; the bus flush path, which re-arms one prebuilt closure per
// subscriber), this skips the per-call handle allocation
// entirely: on a pooled queue the steady state allocates nothing. It
// switches on the concrete engines: an assertion to an interface would
// have the runtime build that call site's type cache, an allocation at
// a random call.
func ScheduleOn(s Scheduler, d time.Duration, fn func()) {
	switch s := s.(type) {
	case *Serial:
		s.schedule(d, fn)
	case *RealTime:
		s.schedule(d, fn)
	default:
		s.After(d, fn)
	}
}
