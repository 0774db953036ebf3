// Package bus is the control-plane message broker connecting the seeder
// and harvesters to the soils (the RabbitMQ role in §V-A-c), implemented
// as a deterministic topic broker on the simulation loop.
//
// The in-tree seeder routes its control messages through the fabric's
// latency model directly (equivalent delivery semantics, fewer moving
// parts); the broker is the topic-based API for library users who embed
// their own centralized components and want RabbitMQ-style decoupling.
//
// Fan-out is batched: each subscriber owns a bounded pending queue of
// pooled delivery records, and publishes that land while a flush is
// already scheduled coalesce into it instead of allocating a fresh
// closure per subscriber per message. Delivery times are unchanged —
// every message still arrives exactly at publish time + latency(topic),
// FIFO per subscriber — only the per-message scheduling overhead goes
// away. When a queue bound is set (SetQueueLimit), overflow drops the
// incoming message and counts it per topic; see docs/transport.md for
// the backpressure policy.
package bus

import (
	"time"

	"farm/internal/engine"
)

// Message is one published message.
type Message struct {
	Payload any
}

// Broker routes messages by topic with a configurable delivery latency
// per subscriber. Deliveries are scheduled on the simulation loop, so
// ordering between a publisher and one subscriber is FIFO. The broker
// is loop-confined: Publish, Subscribe, cancel, and Stats must run on
// the engine goroutine (or while the loop is quiescent).
type Broker struct {
	loop       engine.Scheduler
	latency    func(topic string) time.Duration
	subs       map[string][]*subscription
	queueLimit int

	stats          Stats
	droppedByTopic map[string]uint64
}

// pendingMsg is one queued delivery record. The per-subscription
// pending slice is the record pool: it is compacted in place after a
// flush and its backing array grows only, so steady-state publishing
// allocates nothing.
type pendingMsg struct {
	payload any
	due     time.Duration
}

type subscription struct {
	fn      func(Message)
	closed  bool
	pending []pendingMsg
	// scheduled marks an outstanding flush; publishes that arrive while
	// it is set coalesce into the pending queue instead of scheduling.
	scheduled bool
	// flush is the one delivery closure this subscription ever
	// allocates, built at Subscribe time.
	flush func()
}

// Stats is the broker's cumulative accounting.
type Stats struct {
	// Published counts Publish calls; Delivered counts messages handed
	// to subscriber callbacks.
	Published uint64
	Delivered uint64
	// Coalesced counts messages that joined an already-scheduled flush
	// instead of scheduling their own delivery — the batching win.
	Coalesced uint64
	// Dropped counts messages rejected because a subscriber's bounded
	// queue was full (see SetQueueLimit). Per-topic breakdown via
	// DroppedByTopic.
	Dropped uint64
}

// New returns a broker on the loop. latency computes the delivery delay
// for a topic (nil means immediate delivery on the next loop step).
func New(loop engine.Scheduler, latency func(topic string) time.Duration) *Broker {
	return &Broker{loop: loop, latency: latency, subs: map[string][]*subscription{}}
}

// SetQueueLimit bounds every subscriber's pending-delivery queue to n
// messages (0 restores the unbounded default). When a queue is full the
// incoming message is dropped — drop-newest, so the messages that
// survive keep their FIFO order — and counted in Stats.Dropped and the
// per-topic counters. Set it before traffic flows.
func (b *Broker) SetQueueLimit(n int) {
	if n < 0 {
		n = 0
	}
	b.queueLimit = n
}

// Subscribe registers fn for a topic and returns a cancel function.
// Cancel is copy-on-remove: the subscriber list the broker publishes
// over is replaced, never mutated in place, so a cancel issued from
// inside a delivery callback cannot corrupt an in-progress fan-out
// iterating the old list.
func (b *Broker) Subscribe(topic string, fn func(Message)) (cancel func()) {
	sub := &subscription{fn: fn}
	sub.flush = func() { b.flush(sub) }
	b.subs[topic] = append(b.subs[topic], sub)
	return func() {
		if sub.closed {
			return // cancelling twice is harmless
		}
		sub.closed = true
		sub.pending = nil
		list := b.subs[topic]
		out := make([]*subscription, 0, len(list)-1)
		for _, s := range list {
			if s != sub {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			delete(b.subs, topic)
		} else {
			b.subs[topic] = out
		}
	}
}

// Publish schedules delivery of payload to every current subscriber of
// the topic. Same-topic publishes that land while a subscriber's flush
// is already scheduled coalesce into that flush (one scheduled event
// delivers the whole batch); each message is still delivered at its own
// publish time + latency.
func (b *Broker) Publish(topic string, payload any) {
	b.stats.Published++
	var d time.Duration
	if b.latency != nil {
		d = b.latency(topic)
	}
	due := b.loop.Now() + d
	for _, sub := range b.subs[topic] {
		if b.queueLimit > 0 && len(sub.pending) >= b.queueLimit {
			b.stats.Dropped++
			if b.droppedByTopic == nil {
				b.droppedByTopic = map[string]uint64{}
			}
			b.droppedByTopic[topic]++
			continue
		}
		sub.pending = append(sub.pending, pendingMsg{payload: payload, due: due})
		if sub.scheduled {
			b.stats.Coalesced++
			continue
		}
		sub.scheduled = true
		engine.ScheduleOn(b.loop, d, sub.flush)
	}
}

// flush delivers every pending message that has come due. It runs as
// the subscription's single scheduled delivery event; messages whose
// due time is still in the future re-arm one follow-up flush.
func (b *Broker) flush(sub *subscription) {
	now := b.loop.Now()
	i := 0
	// sub.scheduled stays set during delivery so a re-entrant Publish
	// from inside fn coalesces into this very flush (the loop re-checks
	// len(sub.pending) each iteration and delivers it if it is due).
	for i < len(sub.pending) && sub.pending[i].due <= now && !sub.closed {
		p := sub.pending[i].payload
		sub.pending[i] = pendingMsg{}
		i++
		b.stats.Delivered++
		sub.fn(Message{Payload: p})
	}
	sub.scheduled = false
	if sub.closed {
		sub.pending = nil
		return
	}
	// Compact the not-yet-due tail to the front, reusing the backing
	// array (the pooled-record part of the contract).
	rem := copy(sub.pending, sub.pending[i:])
	for j := rem; j < len(sub.pending); j++ {
		sub.pending[j] = pendingMsg{}
	}
	sub.pending = sub.pending[:rem]
	if rem > 0 {
		sub.scheduled = true
		d := sub.pending[0].due - now
		if d < 0 {
			d = 0
		}
		engine.ScheduleOn(b.loop, d, sub.flush)
	}
}

// Stats returns the broker's cumulative accounting.
func (b *Broker) Stats() Stats { return b.stats }

// DroppedByTopic returns a copy of the per-topic overflow counters
// (topics that never dropped are absent).
func (b *Broker) DroppedByTopic() map[string]uint64 {
	out := make(map[string]uint64, len(b.droppedByTopic))
	for t, n := range b.droppedByTopic {
		out[t] = n
	}
	return out
}
