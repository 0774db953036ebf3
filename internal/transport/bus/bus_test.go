package bus

import (
	"testing"
	"time"

	"farm/internal/engine"
)

func TestPublishSubscribe(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	var got []any
	b.Subscribe("a", func(m Message) { got = append(got, m.Payload) })
	b.Publish("a", 1)
	b.Publish("a", 2)
	b.Publish("b", 3) // no subscriber
	loop.RunFor(time.Millisecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v", got)
	}
	st := b.Stats()
	if st.Published != 3 || st.Delivered != 2 {
		t.Fatalf("stats = %d published, %d delivered", st.Published, st.Delivered)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d without a queue limit", st.Dropped)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	n := 0
	b.Subscribe("t", func(Message) { n++ })
	b.Subscribe("t", func(Message) { n++ })
	b.Publish("t", "x")
	loop.RunFor(time.Millisecond)
	if n != 2 {
		t.Fatalf("deliveries = %d, want 2", n)
	}
}

func TestCancelSubscription(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	n := 0
	cancel := b.Subscribe("t", func(Message) { n++ })
	b.Publish("t", "one")
	loop.RunFor(time.Millisecond)
	cancel()
	b.Publish("t", "two")
	loop.RunFor(time.Millisecond)
	if n != 1 {
		t.Fatalf("deliveries = %d, want 1", n)
	}
	// Cancelling twice is harmless.
	cancel()
}

func TestCancelBeforeScheduledDelivery(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, func(string) time.Duration { return 10 * time.Millisecond })
	n := 0
	cancel := b.Subscribe("t", func(Message) { n++ })
	b.Publish("t", "x")
	cancel() // cancelled while the delivery is in flight
	loop.RunFor(time.Second)
	if n != 0 {
		t.Fatal("delivery to cancelled subscriber")
	}
}

func TestLatencyApplied(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, func(topic string) time.Duration { return 5 * time.Millisecond })
	var at time.Duration
	b.Subscribe("t", func(Message) { at = loop.Now() })
	b.Publish("t", "x")
	loop.RunFor(time.Second)
	if at != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", at)
	}
}

func TestFIFOPerSubscriber(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, func(string) time.Duration { return time.Millisecond })
	var got []any
	b.Subscribe("t", func(m Message) { got = append(got, m.Payload) })
	for i := 0; i < 10; i++ {
		b.Publish("t", i)
	}
	loop.RunFor(time.Second)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
}

// TestCancelDuringDeliveryFanout is the Subscribe-cancel regression
// test: a delivery callback that cancels subscriptions — its own and a
// later one — while the same publish burst is still fanning out must
// not corrupt the subscriber list. Before copy-on-remove, the cancel
// compacted the shared backing array in place under iterators.
func TestCancelDuringDeliveryFanout(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	counts := make([]int, 4)
	cancels := make([]func(), 4)
	for i := 0; i < 4; i++ {
		i := i
		cancels[i] = b.Subscribe("t", func(Message) {
			counts[i]++
			if i == 1 && counts[1] == 1 {
				cancels[1]() // self, mid-own-flush
				cancels[3]() // a later subscriber with deliveries pending
			}
		})
	}
	for m := 0; m < 3; m++ {
		b.Publish("t", m)
	}
	loop.RunFor(time.Millisecond)
	// Subscribers 0 and 2 see the full burst; 1 cancelled itself after
	// its first delivery; 3 was cancelled before its flush ran.
	if counts[0] != 3 || counts[2] != 3 {
		t.Fatalf("surviving subscribers got %d/%d deliveries, want 3/3", counts[0], counts[2])
	}
	if counts[1] != 1 {
		t.Fatalf("self-cancelled subscriber got %d deliveries, want 1", counts[1])
	}
	if counts[3] != 0 {
		t.Fatalf("cancelled subscriber got %d deliveries, want 0", counts[3])
	}
	// The broker keeps routing to the survivors afterwards.
	b.Publish("t", "after")
	loop.RunFor(time.Millisecond)
	if counts[0] != 4 || counts[2] != 4 || counts[1] != 1 || counts[3] != 0 {
		t.Fatalf("post-cancel deliveries = %v", counts)
	}
}

// TestPublishCoalesces pins the batching: a burst published in one loop
// step delivers through one scheduled flush per subscriber, and the
// coalesced counter accounts for the rest.
func TestPublishCoalesces(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, func(string) time.Duration { return time.Millisecond })
	var got []any
	b.Subscribe("t", func(m Message) { got = append(got, m.Payload) })
	for i := 0; i < 10; i++ {
		b.Publish("t", i)
	}
	if pend := loop.Pending(); pend != 1 {
		t.Fatalf("scheduled %d delivery events for a 10-message burst, want 1", pend)
	}
	loop.RunFor(time.Second)
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if st := b.Stats(); st.Coalesced != 9 || st.Delivered != 10 {
		t.Fatalf("coalesced = %d, delivered = %d, want 9/10", st.Coalesced, st.Delivered)
	}
}

// TestPublishFromDeliveryCallback pins re-entrancy: a subscriber that
// publishes to its own topic while being delivered to must see the new
// message arrive (coalesced into the running flush at zero latency),
// preserving FIFO.
func TestPublishFromDeliveryCallback(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	var got []any
	b.Subscribe("t", func(m Message) {
		got = append(got, m.Payload)
		if m.Payload == "first" {
			b.Publish("t", "chained")
		}
	})
	b.Publish("t", "first")
	loop.RunFor(time.Millisecond)
	if len(got) != 2 || got[0] != "first" || got[1] != "chained" {
		t.Fatalf("got = %v", got)
	}
}

// testDropAccounting fills a bounded subscriber queue and checks the
// per-topic drop counter and that the surviving messages keep FIFO
// order. It hands the publish burst to the loop goroutine with post (the
// broker is loop-confined) so the same body works for serial and
// RealTime.
func testDropAccounting(t *testing.T, loop engine.Scheduler, post func(func()), run func()) {
	t.Helper()
	b := New(loop, func(string) time.Duration { return time.Millisecond })
	b.SetQueueLimit(4)
	// All broker access happens on the loop goroutine (the broker is
	// loop-confined); done signals once every surviving message, on both
	// topics, has been delivered.
	var got []any
	total := 0
	done := make(chan struct{})
	tick := func() {
		total++
		if total == 5 { // 4 bounded survivors + 1 other
			close(done)
		}
	}
	b.Subscribe("bounded", func(m Message) {
		got = append(got, m.Payload)
		tick()
	})
	b.Subscribe("other", func(Message) { tick() })
	post(func() {
		for i := 0; i < 10; i++ {
			b.Publish("bounded", i) // 4 queued, 6 dropped
		}
		b.Publish("other", "x")
	})
	run()
	<-done
	if len(got) != 4 {
		t.Fatalf("delivered %d messages, want 4", len(got))
	}
	for i := 0; i < 4; i++ {
		if got[i] != i {
			t.Fatalf("survivors out of FIFO order: %v", got)
		}
	}
	st := b.Stats()
	if st.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", st.Dropped)
	}
	if st.Delivered != 5 { // 4 bounded + 1 other
		t.Fatalf("delivered = %d, want 5", st.Delivered)
	}
	byTopic := b.DroppedByTopic()
	if byTopic["bounded"] != 6 {
		t.Fatalf("dropped[bounded] = %d, want 6", byTopic["bounded"])
	}
	if _, ok := byTopic["other"]; ok {
		t.Fatal("unbounded-headroom topic recorded drops")
	}
}

func TestDropAccountingSerial(t *testing.T) {
	loop := engine.NewSerial()
	post := func(fn func()) { loop.After(0, fn) }
	testDropAccounting(t, loop, post, func() { loop.RunFor(time.Second) })
}

func TestDropAccountingRealTime(t *testing.T) {
	loop := engine.NewRealTime()
	defer loop.Close()
	// The wall-clock engine needs a driving goroutine, like the fleet
	// daemon's engine loop.
	go loop.RunFor(10 * time.Second)
	testDropAccounting(t, loop, loop.Post, func() {})
}

// TestQueueDrainsBelowLimit: the bound applies to the queue, not the
// topic lifetime — once a flush drains the queue, later publishes are
// accepted again.
func TestQueueDrainsBelowLimit(t *testing.T) {
	loop := engine.NewSerial()
	b := New(loop, nil)
	b.SetQueueLimit(2)
	n := 0
	b.Subscribe("t", func(Message) { n++ })
	for wave := 0; wave < 3; wave++ {
		b.Publish("t", wave)
		b.Publish("t", wave)
		b.Publish("t", wave) // third in the same step overflows
		loop.RunFor(time.Millisecond)
	}
	if n != 6 {
		t.Fatalf("delivered = %d, want 6", n)
	}
	if st := b.Stats(); st.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", st.Dropped)
	}
}
