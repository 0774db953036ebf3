package engine

import (
	"container/heap"
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// ShardedOptions configures a sharded executor.
type ShardedOptions struct {
	// Shards is the number of event partitions. Consumers (the fabric)
	// map each emulated switch to one shard; more shards than workers
	// improves load balance. 0 means 2*Workers.
	Shards int
	// Workers is the number of worker goroutines executing shards
	// concurrently within an epoch. 0 means GOMAXPROCS.
	Workers int
	// Lookahead is the conservative synchronization window: events
	// within [T, T+Lookahead) execute in parallel across shards, so
	// every cross-shard send must be delayed by at least Lookahead. The
	// fabric's minimum cross-switch latency (min of hop latency and
	// control base latency) is the natural choice. 0 means 50µs, the
	// fabric's default minimum.
	Lookahead time.Duration
	// ForceWorkers dispatches epochs to the worker pool even when the
	// process has a single CPU (where the executor normally degrades to
	// running shards inline, since goroutine handoff without parallelism
	// is pure overhead). Tests set it to exercise the concurrent path
	// under the race detector on any machine.
	ForceWorkers bool
	// ProfileLabels attaches pprof labels to the driver and worker
	// goroutines per executor phase ("select", "run", "merge"), so a CPU
	// profile of a large run shows where epoch time goes. Off by default:
	// setting goroutine labels on every phase transition costs a few
	// percent on the hot loop.
	ProfileLabels bool
}

// DefaultLookahead matches the default fabric's minimum cross-switch
// latency (fabric.DefaultHopLatency).
const DefaultLookahead = 50 * time.Microsecond

// Sharded is a conservative-parallel discrete-event executor. Events
// are partitioned into shards, each with its own heap, clock, and
// sequence counter. Execution proceeds epoch-by-epoch: all shards with
// events inside the current lookahead window run concurrently on worker
// goroutines, then a barrier merges cross-shard sends into destination
// heaps in a fixed (epoch, source shard, emission seq) order. Because
// per-shard execution is a deterministic (time, seq) order and the
// barrier merge is a deterministic order too, a run is reproducible —
// and for state partitioned by shard it is identical to the serial
// engine's output (see docs/engine.md for the argument).
//
// Epoch selection is O(runnable·log shards), not O(shards): an indexed
// min-heap over shard head-times tracks the global minimum, updated
// incrementally whenever a shard's head can have changed (after it runs,
// after a merge lands events on it, after a root At between runs). The
// steady-state loop is also allocation-light: each shard recycles popped
// events through a free list it alone owns, and the runnable set, outbox
// buffers, and merge scratch all reuse their backing arrays.
//
// Sharded itself implements Scheduler; its At/After/Every/Now delegate
// to shard 0, the conventional home of centralized components. Step,
// RunUntil, RunFor, and Drain drive the epoch machinery and must be
// called from one goroutine (the driver).
type Sharded struct {
	opts   ShardedOptions
	shards []*shard

	// now is the completed global frontier, advanced only between
	// epochs. A shard's effective clock is max(shard.now, x.now): idle
	// shards are dragged along lazily instead of by an O(shards) sweep
	// per epoch.
	now time.Duration

	// heads is the indexed min-heap of all shards keyed by head event
	// time (empty shards carry a +inf sentinel); shard.pos is the index
	// maintenance for heap.Fix. Epoch selection walks the heap array
	// without mutating it — every shard inside the window is reachable
	// from the root through ancestors also inside the window — and
	// re-keys changed heads afterwards in one batch.
	heads shardHeap

	// dfs is the reusable stack for the heap walk in runEpoch.
	dfs []int32

	// headsDirty means the head keys (shard.headAt) are current but the
	// heap order is not. Dense epochs — where most heads move and a
	// rebuild would cost more than a scan — set it and selection falls
	// back to one linear pass over the keys; the first sparse barrier
	// afterwards rebuilds the heap once and incremental maintenance
	// resumes. The executor thereby self-selects: O(shards) read-only
	// scans while most shards are runnable anyway, O(runnable·log
	// shards) selection when activity is concentrated in few shards.
	headsDirty bool

	// epochEnd is the exclusive bound of the executing epoch, read by
	// workers to enforce the lookahead contract. Written only while
	// workers are idle; the work-channel send / WaitGroup pair orders
	// the accesses.
	epochEnd time.Duration
	inEpoch  bool

	work     chan *shard
	wg       sync.WaitGroup
	runnable []*shard
	// mergeSrc collects shards with non-empty outboxes since the last
	// barrier: appended by CrossAfter between runs and by the driver for
	// shards that ran. Sorted by shard id before draining, so the merge
	// order stays (source shard, emission order) regardless of how the
	// epoch discovered the sources.
	mergeSrc []*shard
	// mergeDst collects destination shards that received events during
	// the current barrier, for the head refresh.
	mergeDst []*shard
	// fix is the reusable scratch list of shards whose head keys moved
	// during a barrier.
	fix     []*shard
	inline  bool
	started bool
	stopped bool

	// epoch statistics, maintained by the driver.
	epochs    uint64
	shardRuns uint64

	// pprof label sets, nil unless ProfileLabels (phase() is then a
	// no-op branch on the hot path).
	lblSelect, lblRun, lblMerge, lblNone context.Context
}

// shard is one event partition. Between epochs it is owned by the
// driving goroutine; during an epoch it is owned by exactly one worker.
type shard struct {
	x   *Sharded
	id  int
	now time.Duration
	// q holds the shard's pending events: pooled free list, sequence
	// counter, and the wheel behind one type shared with the serial
	// engine. Single owner, so no locking.
	q      eventQueue
	outbox []crossEvent
	ran    int
	// ranTotal is the cumulative event count this shard has executed
	// across all epochs; ShardEventCounts reads it between runs.
	ranTotal uint64

	// headAt/pos are this shard's key and index in x.heads. headAt is
	// the head event time, or headInf when the shard has no events.
	headAt time.Duration
	pos    int

	// executing is true while run() owns the shard, used to diagnose
	// cross-shard Timer.Stop misuse (see shardTimer.Stop).
	executing bool

	// merging tracks this shard as a destination during one barrier
	// merge (it is in x.mergeDst awaiting its head re-key).
	merging bool
	queued  bool // in x.mergeSrc
	dirty   bool // in the barrier's fix list (dedup mark, cleared each barrier)
}

type crossEvent struct {
	to int
	at time.Duration
	fn func()
}

// NewSharded returns a sharded executor at virtual time 0.
func NewSharded(opts ShardedOptions) *Sharded {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Shards <= 0 {
		opts.Shards = 2 * opts.Workers
	}
	if opts.Lookahead <= 0 {
		opts.Lookahead = DefaultLookahead
	}
	x := &Sharded{opts: opts}
	x.inline = opts.Workers == 1 || (runtime.GOMAXPROCS(0) == 1 && !opts.ForceWorkers)
	x.shards = make([]*shard, opts.Shards)
	x.heads = make(shardHeap, opts.Shards)
	for i := range x.shards {
		s := &shard{x: x, id: i, pos: i, headAt: headInf}
		x.shards[i] = s
		x.heads[i] = s
	}
	x.work = make(chan *shard, opts.Shards)
	if opts.ProfileLabels {
		bg := context.Background()
		x.lblSelect = pprof.WithLabels(bg, pprof.Labels("engine", "select"))
		x.lblRun = pprof.WithLabels(bg, pprof.Labels("engine", "run"))
		x.lblMerge = pprof.WithLabels(bg, pprof.Labels("engine", "merge"))
		x.lblNone = bg
	}
	return x
}

// phase tags the driver goroutine for CPU profiles when ProfileLabels is
// set; otherwise it is a single predictable branch.
func (x *Sharded) phase(ctx context.Context) {
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
}

// Shards implements Partitioned.
func (x *Sharded) Shards() int { return x.opts.Shards }

// Workers returns the worker goroutine count.
func (x *Sharded) Workers() int { return x.opts.Workers }

// Lookahead returns the conservative window. Consumers validate their
// minimum cross-shard latency against it.
func (x *Sharded) Lookahead() time.Duration { return x.opts.Lookahead }

// EpochStats reports how many epochs have run and the total shard-runs
// dispatched across them. Their ratio is the mean number of shards
// eligible to execute concurrently per epoch — the executor's available
// parallelism on this workload, independent of the host's core count.
func (x *Sharded) EpochStats() (epochs, shardRuns uint64) {
	return x.epochs, x.shardRuns
}

// ShardEventCounts returns the cumulative number of events each shard
// has executed. Workload experiments use the share running on shard 0
// — the home of centralized components — as a direct measure of how
// much of the event stream still serializes on the central lane. Call
// it between runs.
func (x *Sharded) ShardEventCounts() []uint64 {
	out := make([]uint64, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.ranTotal
	}
	return out
}

// Shard implements Partitioned.
func (x *Sharded) Shard(i int) Scheduler { return x.shards[i] }

// CrossAfter implements Partitioned: it buffers fn in shard from's
// outbox for delivery on shard to at from's current time plus d. The
// buffer is merged into to's heap at the next epoch barrier, so d must
// be >= Lookahead when called from an executing event (enforced).
func (x *Sharded) CrossAfter(from, to int, d time.Duration, fn func()) {
	s := x.shards[from]
	at := s.effNow() + d
	if x.inEpoch && at < x.epochEnd {
		panic(fmt.Sprintf("engine: cross-shard delay %v below lookahead %v", d, x.opts.Lookahead))
	}
	s.outbox = append(s.outbox, crossEvent{to: to, at: at, fn: fn})
	if !x.inEpoch && !s.queued {
		// Driver-context send (setup between runs): remember the source
		// so the next barrier drains it. During an epoch the source is by
		// contract an executing shard, which the barrier collects itself.
		s.queued = true
		x.mergeSrc = append(x.mergeSrc, s)
	}
}

// Stop terminates the worker goroutines. The executor must not be used
// afterwards. Safe to call multiple times.
func (x *Sharded) Stop() {
	if x.started && !x.stopped {
		close(x.work)
	}
	x.stopped = true
}

func (x *Sharded) start() {
	if x.started {
		return
	}
	x.started = true
	for i := 0; i < x.opts.Workers; i++ {
		go func() {
			if x.lblRun != nil {
				pprof.SetGoroutineLabels(x.lblRun)
			}
			for s := range x.work {
				s.run(s.x.epochEnd)
				s.x.wg.Done()
			}
		}()
	}
}

// Now delegates to shard 0, like the other root Scheduler methods: it
// returns the event time inside a shard-0 callback and the completed
// global frontier between runs.
func (x *Sharded) Now() time.Duration { return x.shards[0].effNow() }

// At delegates to shard 0 (the home of centralized components).
func (x *Sharded) At(at time.Duration, fn func()) Timer { return x.shards[0].At(at, fn) }

// After delegates to shard 0.
func (x *Sharded) After(d time.Duration, fn func()) Timer { return x.shards[0].After(d, fn) }

// Every delegates to shard 0.
func (x *Sharded) Every(interval time.Duration, fn func()) Ticker {
	return EveryOn(x.shards[0], interval, fn)
}

// Pending returns scheduled (unfired, uncancelled) events across all
// shards and outboxes. Cancelled events awaiting lazy reclaim are not
// counted.
func (x *Sharded) Pending() int {
	n := 0
	for _, s := range x.shards {
		n += s.q.live + len(s.outbox)
	}
	return n
}

// headInf is the head-time key of a shard with no pending events.
const headInf = time.Duration(1<<63 - 1)

// headChanged reports whether the shard's true head differs from its
// stored key, without storing — the barrier defers the store until the
// matching heap repair, so the heap stays valid w.r.t. stored keys at
// every intermediate step.
func (s *shard) headChanged() bool {
	at, ok := s.q.nextAt()
	if !ok {
		at = headInf
	}
	return at != s.headAt
}

// syncHead stores the shard's current head time as its heap key,
// reporting whether it moved (the caller then owes a heap.Fix or Init).
func (s *shard) syncHead() bool {
	at, ok := s.q.nextAt()
	if !ok {
		at = headInf
	}
	if at == s.headAt {
		return false
	}
	s.headAt = at
	return true
}

// refreshHead re-keys a shard in the head-time heap after its event heap
// may have changed. O(log shards) when the head moved, O(1) when not.
func (x *Sharded) refreshHead(s *shard) {
	if s.syncHead() && !x.headsDirty {
		heap.Fix(&x.heads, s.pos)
	}
}

// nextEventTime returns the earliest pending event time, or -1 if none:
// the root of the shard head-time heap, or a linear scan over the
// maintained keys while the heap order is suspended.
func (x *Sharded) nextEventTime() time.Duration {
	at := x.heads[0].headAt
	if x.headsDirty {
		at = headInf
		for _, s := range x.shards {
			if s.headAt < at {
				at = s.headAt
			}
		}
	}
	if at == headInf {
		return -1
	}
	return at
}

// RunUntil processes all events scheduled at or before t, then advances
// every clock to exactly t.
func (x *Sharded) RunUntil(t time.Duration) {
	x.start()
	x.barrier()
	for {
		x.phase(x.lblSelect)
		next := x.nextEventTime()
		if next < 0 || next > t {
			break
		}
		// Conservative window: events strictly before end are
		// independent across shards because any cross-shard effect they
		// emit arrives at >= next+Lookahead >= end. The final window is
		// [next, t+1) so events at exactly t run (their cross effects
		// land beyond t, outside this call).
		end := next + x.opts.Lookahead
		if end > t {
			end = t + 1
		}
		x.runEpoch(end)
		x.barrier()
		frontier := end
		if frontier > t {
			frontier = t
		}
		x.advance(frontier)
	}
	x.phase(x.lblNone)
	x.advance(t)
}

// RunFor advances the clock by d, processing everything in between.
func (x *Sharded) RunFor(d time.Duration) { x.RunUntil(x.now + d) }

// Step runs one epoch at the earliest pending event time. It reports
// whether any event ran.
func (x *Sharded) Step() bool {
	x.start()
	x.barrier()
	for {
		next := x.nextEventTime()
		if next < 0 {
			return false
		}
		end := next + x.opts.Lookahead
		ran := x.runEpoch(end)
		x.barrier()
		x.advance(end)
		if ran > 0 {
			return true
		}
	}
}

// Drain runs epochs until no events remain or limit events have been
// processed. It returns the number of events processed.
func (x *Sharded) Drain(limit int) int {
	x.start()
	x.barrier()
	n := 0
	for n < limit {
		next := x.nextEventTime()
		if next < 0 {
			break
		}
		ran := x.runEpoch(next + x.opts.Lookahead)
		x.barrier()
		x.advance(next + x.opts.Lookahead)
		if ran == 0 && x.nextEventTime() < 0 {
			break
		}
		n += ran
	}
	return n
}

// runEpoch executes every shard with events inside [_, end) and blocks
// until all complete. It returns the number of events processed.
//
// The runnable set is collected by walking the head-time heap array
// without mutating it: a shard inside the window has all its heap
// ancestors inside the window too (ancestor keys are <=), so a DFS from
// the root that stops at out-of-window nodes visits O(runnable) nodes
// and finds every runnable shard. The barrier afterwards re-keys the
// heads that moved.
func (x *Sharded) runEpoch(end time.Duration) int {
	run := x.runnable[:0]
	if x.headsDirty {
		for _, s := range x.shards {
			if s.headAt < end {
				run = append(run, s)
			}
		}
	} else if h := x.heads; h[0].headAt < end {
		stack := append(x.dfs[:0], 0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			run = append(run, h[i])
			if l := 2*i + 1; int(l) < len(h) && h[l].headAt < end {
				stack = append(stack, l)
			}
			if r := 2*i + 2; int(r) < len(h) && h[r].headAt < end {
				stack = append(stack, r)
			}
		}
		x.dfs = stack[:0]
	}
	x.runnable = run
	if len(run) == 0 {
		return 0
	}
	x.phase(x.lblRun)
	x.epochEnd = end
	x.inEpoch = true
	x.epochs++
	x.shardRuns += uint64(len(run))
	if len(run) == 1 || x.inline {
		// No parallelism to exploit; skip the handoff.
		for _, s := range run {
			s.run(end)
		}
	} else {
		x.wg.Add(len(run))
		for _, s := range run {
			x.work <- s
		}
		x.wg.Wait()
	}
	x.inEpoch = false
	total := 0
	for _, s := range run {
		total += s.ran
	}
	return total
}

// barrier merges every outstanding outbox into the destination queues
// in (source shard, emission order) order, assigning destination
// sequence numbers deterministically, then re-keys the head-time heap
// for every shard whose head may have moved (ran shards and merge
// destinations). Each merge insert is O(1) on the wheel.
func (x *Sharded) barrier() {
	x.phase(x.lblMerge)
	// Collect sources: shards that ran this epoch plus driver-context
	// senders queued by CrossAfter. Sorted by shard id so the (source
	// shard, emission order) merge order is independent of the order the
	// head-time heap released the runnable set.
	src := x.mergeSrc
	for _, s := range x.runnable {
		if len(s.outbox) > 0 && !s.queued {
			s.queued = true
			src = append(src, s)
		}
	}
	if len(src) > 1 {
		sort.Sort(byShardID(src))
	}
	for _, s := range src {
		for _, ce := range s.outbox {
			d := x.shards[ce.to]
			at := ce.at
			if now := d.effNow(); at < now {
				at = now
			}
			d.q.add(at, ce.fn)
			if !d.merging {
				d.merging = true
				x.mergeDst = append(x.mergeDst, d)
			}
		}
		clearCross(s.outbox)
		s.outbox = s.outbox[:0]
		s.queued = false
	}
	x.mergeSrc = src[:0]
	// Re-key the head-time heap. First collect the heads that actually
	// moved (ran shards and merge destinations, deduped via the dirty
	// mark) without touching the stored keys, then repair by whichever
	// is cheaper: a few interleaved store+Fix operations — each Fix
	// sees a heap that is valid w.r.t. stored keys, so multi-key
	// batches stay sound — or, when most heads moved, one O(shards)
	// rebuild (deferred to the next sparse barrier via headsDirty,
	// since a scan-based epoch doesn't need the order at all). The
	// reachable state is the same either way; only the unobservable
	// internal heap shape can differ.
	fix := x.fix[:0]
	for _, s := range x.runnable {
		if !s.dirty && s.headChanged() {
			s.dirty = true
			fix = append(fix, s)
		}
	}
	x.runnable = x.runnable[:0]
	for _, d := range x.mergeDst {
		d.merging = false
		if !d.dirty && d.headChanged() {
			d.dirty = true
			fix = append(fix, d)
		}
	}
	x.mergeDst = x.mergeDst[:0]
	dense := len(fix)*(bits.Len(uint(len(x.heads)))+1) >= len(x.heads)
	for _, s := range fix {
		s.dirty = false
		s.syncHead()
		if !dense && !x.headsDirty {
			heap.Fix(&x.heads, s.pos)
		}
	}
	switch {
	case dense:
		x.headsDirty = true
	case x.headsDirty:
		// First sparse barrier after a dense stretch: rebuild once,
		// then resume incremental maintenance.
		heap.Init(&x.heads)
		x.headsDirty = false
	}
	x.fix = fix[:0]
}

// clearCross drops the callback references of a drained outbox so the
// reused backing array doesn't pin dead closures.
func clearCross(b []crossEvent) {
	for i := range b {
		b[i].fn = nil
	}
}

// advance raises the global frontier to at least t. Idle shard clocks
// follow lazily through effNow.
func (x *Sharded) advance(t time.Duration) {
	if x.now < t {
		x.now = t
	}
}

// effNow is the shard's effective clock: its own event time while it is
// executing (which is always >= the frontier inside an epoch), the
// global frontier once it has gone idle.
func (s *shard) effNow() time.Duration {
	if s.now > s.x.now {
		return s.now
	}
	return s.x.now
}

// run executes the shard's events strictly before end in (time, seq)
// order. Called with exclusive ownership of the shard.
func (s *shard) run(end time.Duration) {
	s.executing = true
	s.ran = 0
	for {
		at, ok := s.q.nextAt()
		if !ok || at >= end {
			break
		}
		ev := s.q.pop()
		if ev.stopped {
			s.q.release(ev)
			continue
		}
		s.now = ev.at
		fn := ev.fn
		if !ev.held {
			// Recycle before running, so an At inside the callback can
			// reuse the slot; the handle generation was bumped, keeping
			// a Stop on the fired timer inert. Ticker-held events skip
			// the pool — their owner re-arms the same object in place.
			s.q.release(ev)
		}
		fn()
		s.ran++
	}
	s.ranTotal += uint64(s.ran)
	s.executing = false
}

// --- shard as a Scheduler view ---

// Now returns the shard-local virtual time.
func (s *shard) Now() time.Duration { return s.effNow() }

// At schedules fn on this shard. Must be called from an event executing
// on this shard, or from the driving goroutine between runs.
func (s *shard) At(at time.Duration, fn func()) Timer {
	if now := s.effNow(); at < now {
		at = now
	}
	ev := s.q.add(at, fn)
	if !s.x.inEpoch {
		// Driver-context scheduling: the head-time heap is ours to fix.
		// Inside an epoch the shard is by contract the executing one;
		// the barrier re-keys it.
		s.x.refreshHead(s)
	}
	return &shardTimer{s: s, ev: ev, gen: ev.gen}
}

// After schedules fn on this shard after delay d.
func (s *shard) After(d time.Duration, fn func()) Timer {
	return s.At(s.effNow()+d, fn)
}

// schedule arms fn after d without materializing a Timer handle (see
// ScheduleOn).
func (s *shard) schedule(d time.Duration, fn func()) {
	now := s.effNow()
	at := now + d
	if at < now {
		at = now
	}
	s.q.add(at, fn)
	if !s.x.inEpoch {
		s.x.refreshHead(s)
	}
}

// Every schedules a periodic callback on this shard.
func (s *shard) Every(interval time.Duration, fn func()) Ticker {
	return EveryOn(s, interval, fn)
}

// queue implements queueOwner for the ticker fast path.
func (s *shard) queue() *eventQueue { return &s.q }

// checkTickerContext implements queueOwner: mutating another shard's
// ticker during an epoch is a data race on live state, same as
// shardTimer.Stop.
func (s *shard) checkTickerContext(op string) {
	if s.x.inEpoch && !s.executing {
		panic(fmt.Sprintf("engine: %s on shard %d from outside its execution context (mutate tickers from their owning shard, or between runs)", op, s.id))
	}
}

// noteQueueChanged implements queueOwner: in driver context the shard
// owns its head-time heap entry and re-keys it; inside an epoch the
// barrier does.
func (s *shard) noteQueueChanged() {
	if !s.x.inEpoch {
		s.x.refreshHead(s)
	}
}

// Pending returns this shard's scheduled (unfired, uncancelled) event
// count.
func (s *shard) Pending() int { return s.q.live }

func (s *shard) Step() bool               { panic("engine: drive the root executor, not a shard view") }
func (s *shard) RunUntil(t time.Duration) { panic("engine: drive the root executor, not a shard view") }
func (s *shard) RunFor(d time.Duration)   { panic("engine: drive the root executor, not a shard view") }
func (s *shard) Drain(limit int) int      { panic("engine: drive the root executor, not a shard view") }

// shardTimer is the Timer handle of a sharded-engine event. It carries
// the generation the event had when scheduled: once the event fires and
// is recycled, the generation moves on and the stale handle deactivates
// itself.
type shardTimer struct {
	s   *shard
	ev  *event
	gen uint64
}

// Stop implements Timer. It must be called from the owning shard's
// execution context: a callback executing on the same shard, or the
// driving goroutine between runs. Stopping another shard's timer during
// an epoch is a data race on live state; the executor diagnoses the
// detectable case (the owning shard idle while an epoch is in flight)
// with a panic, and the race detector flags the rest.
func (t *shardTimer) Stop() bool {
	if t == nil || t.ev == nil {
		return false
	}
	s := t.s
	if s.x.inEpoch && !s.executing {
		panic(fmt.Sprintf("engine: Timer.Stop on shard %d from outside its execution context (stop timers from their owning shard, or between runs)", s.id))
	}
	ev := t.ev
	if ev.gen != t.gen || ev.stopped {
		// Recycled (fired) or already cancelled.
		return false
	}
	s.q.stop(ev)
	// A compaction may have removed the stored head; re-key it in
	// driver context (inside an epoch the barrier re-keys, and a
	// transiently-early stored head only costs an empty epoch anyway).
	if !s.x.inEpoch {
		s.x.refreshHead(s)
	}
	return true
}

// byShardID sorts barrier-merge sources into ascending shard id without
// the reflection cost of sort.Slice on the per-epoch path.
type byShardID []*shard

func (b byShardID) Len() int           { return len(b) }
func (b byShardID) Less(i, j int) bool { return b[i].id < b[j].id }
func (b byShardID) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// shardHeap is the indexed min-heap of all shards ordered by head event
// time; ties break on shard id so heap operations are deterministic.
// Every shard is always present (idle ones keyed headInf); selection
// reads the array, only Fix/Init mutate it.
type shardHeap []*shard

func (h shardHeap) Len() int { return len(h) }
func (h shardHeap) Less(i, j int) bool {
	if h[i].headAt != h[j].headAt {
		return h[i].headAt < h[j].headAt
	}
	return h[i].id < h[j].id
}
func (h shardHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i
	h[j].pos = j
}
func (h *shardHeap) Push(v any) {
	s := v.(*shard)
	s.pos = len(*h)
	*h = append(*h, s)
}
func (h *shardHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.pos = -1
	*h = old[:n-1]
	return s
}
