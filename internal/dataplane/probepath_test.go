package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"farm/internal/engine"
)

// The probe path below the soil: sampler fire -> PCIe bus -> sink. A
// crossing sample costs the host nothing once the switch and the bus are
// warm, flows that match the same samplers share one set, and the pooled
// completion records fire exactly as a closure per request did.

// TestSampleCrossingAllocs: inject -> sampler fire -> bus transfer ->
// sink allocates nothing on a warmed switch (3 per sample before the
// completion records: the driver's closure, the bus's, the engine's
// timer handle).
func TestSampleCrossingAllocs(t *testing.T) {
	loop := engine.NewSerial()
	sw := NewSwitch("sw0", 2, 16)
	drv := NewEmuDriver(sw, NewBus(loop, DefaultPCIePollBytesPerSec))
	bytes := 0
	stop := drv.StartSampling(Filter{Proto: ProtoTCP}, 1, func(p Packet) { bytes += p.Size })
	defer stop()
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)
	const burst = 4 // several records in flight at once
	cross := func() {
		for i := 0; i < burst; i++ {
			sw.Inject(&p, 1, 2)
		}
		loop.RunFor(time.Millisecond)
	}
	for i := 0; i < 3000; i++ { // the flow's cache entry, the records, the engine's event pool
		cross()
	}
	bytes = 0
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, cross); allocs != 0 {
		t.Fatalf("%.2f allocations per %d crossing samples, want 0", allocs, burst)
	}
	// AllocsPerRun makes one extra warm-up call.
	if want := (runs + 1) * burst * p.Size; bytes != want {
		t.Fatalf("sink saw %d bytes, want %d", bytes, want)
	}
	if drv.SampleDrops() != 0 {
		t.Fatalf("%d samples dropped", drv.SampleDrops())
	}
}

// matchingSamplers is the oracle for Switch.samplerSet: a linear scan.
func matchingSamplers(s *Switch, p Packet, inPort int) []*Sampler {
	var out []*Sampler
	for _, sm := range s.samplers {
		if sm.Filter.Match(&p, inPort) {
			out = append(out, sm)
		}
	}
	return out
}

func sameSamplers(a, b []*Sampler) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cached returns the verdict the flow cache holds for the flow, if any.
func cached(s *Switch, p *Packet, inPort int) (injectVerdict, bool) {
	for _, slot := range waysOf(s, p, inPort) {
		if slot.valid && slot.key == flowKeyOf(p, inPort) {
			return slot.v, true
		}
	}
	return injectVerdict{}, false
}

// TestSamplerSetsInterned: 10 k distinct flows over 12 samplers share
// one slice per distinct sampler set, each equal to the linear scan's
// answer; sampler churn starts a new table that holds none of the old
// slices.
func TestSamplerSetsInterned(t *testing.T) {
	sw := NewSwitch("sw0", 2, 16)
	for _, f := range []Filter{
		{Proto: ProtoICMP}, {Proto: ProtoTCP}, {Proto: ProtoUDP},
		{DstPort: 80}, {DstPort: 443}, {DstPort: 22}, {SrcPort: 53},
		{FlagsSet: FlagSYN}, {InPort: 1},
		{SrcPrefix: pfx("10.1.0.0/16")}, {SrcPrefix: pfx("10.2.0.0/16")}, {DstPrefix: pfx("10.9.0.0/24")},
	} {
		sw.AddSampler(f, 1<<30, func(Packet) {})
	}
	flow := func(i int) (Packet, int) {
		p := Packet{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(1 + i%3), byte(i >> 8), byte(i)}),
			DstIP:   netip.AddrFrom4([4]byte{10, 9, byte(i % 2), 7}),
			SrcPort: uint16(50 + i%5),
			DstPort: []uint16{80, 443, 22, 8080}[i%4],
			Proto:   []Proto{ProtoTCP, ProtoUDP, ProtoAny}[i%3],
			Size:    64,
		}
		if i%7 == 0 {
			p.Flags = FlagSYN
		}
		return p, 1 + i%2
	}
	const flows = 10_000
	slices := map[**Sampler]bool{}
	sets := map[string]bool{}
	empty := 0
	for i := 0; i < flows; i++ {
		p, in := flow(i)
		sw.Inject(&p, in, 0)
		cv, ok := cached(sw, &p, in)
		if !ok {
			t.Fatalf("flow %d: not cached right after its packet", i)
		}
		got := cv.samplers
		want := matchingSamplers(sw, p, in)
		if !sameSamplers(got, want) {
			t.Fatalf("flow %d: cached set %v, linear scan %v", i, got, want)
		}
		if len(got) == 0 {
			if got != nil {
				t.Fatalf("flow %d: empty set is not nil", i)
			}
			empty++
			continue
		}
		slices[&got[0]] = true
		sets[fmt.Sprint(want)] = true
	}
	if empty == 0 || len(sets) < 20 {
		t.Fatalf("weak workload: %d flows without a sampler, %d distinct sets", empty, len(sets))
	}
	if len(slices) != len(sets) || len(sw.sets) != len(sets) {
		t.Fatalf("%d distinct slices and %d table entries for %d distinct sets", len(slices), len(sw.sets), len(sets))
	}

	// Sampler churn moves the generation: the next miss starts a new
	// table, and nothing in it is a slice of the old one.
	tableHoldsOld := func() bool {
		for _, set := range sw.sets {
			if slices[&set[0]] {
				return true
			}
		}
		return false
	}
	p, in := flow(1)
	remove := sw.AddSampler(Filter{}, 1<<30, func(Packet) {})
	sw.Inject(&p, in, 0)
	if sw.setsGen != sw.samplerGen || len(sw.sets) != 1 || tableHoldsOld() {
		t.Fatalf("after AddSampler: table of generation %d (switch at %d) with %d sets, old slices reachable: %v",
			sw.setsGen, sw.samplerGen, len(sw.sets), tableHoldsOld())
	}
	cv, _ := cached(sw, &p, in)
	withAll := cv.samplers
	if !sameSamplers(withAll, matchingSamplers(sw, p, in)) {
		t.Fatalf("after AddSampler: cached set %v, linear scan %v", withAll, matchingSamplers(sw, p, in))
	}
	slices[&withAll[0]] = true
	remove()
	sw.Inject(&p, in, 0)
	if sw.setsGen != sw.samplerGen || len(sw.sets) != 1 || tableHoldsOld() {
		t.Fatalf("after removal: table of generation %d (switch at %d) with %d sets, old slices reachable: %v",
			sw.setsGen, sw.samplerGen, len(sw.sets), tableHoldsOld())
	}
	if cv, _ := cached(sw, &p, in); !sameSamplers(cv.samplers, matchingSamplers(sw, p, in)) {
		t.Fatalf("after removal: cached set %v, linear scan %v", cv.samplers, matchingSamplers(sw, p, in))
	}
}

// TestSamplerSetsBounded: the intern table never outgrows the flow
// cache. 2 048 distinct sampler sets (eleven samplers, each matching on
// its own packet bit) start a fresh table at flowCacheSlots sets; the
// flows cached before the drop keep their sets, and every set stays
// equal to the linear scan's.
func TestSamplerSetsBounded(t *testing.T) {
	sw := NewSwitch("sw0", 2, 16)
	filters := []Filter{
		{SrcPrefix: pfx("10.0.0.0/9")}, {DstPrefix: pfx("10.0.0.0/9")}, {InPort: 1},
	}
	for bit := 0; bit < 8; bit++ {
		filters = append(filters, Filter{FlagsSet: TCPFlags(1 << bit)})
	}
	for _, f := range filters {
		sw.AddSampler(f, 1<<30, func(Packet) {})
	}
	flow := func(i int) (Packet, int) {
		p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 64)
		if i&1 != 0 {
			p.SrcIP = addr("10.200.0.1")
		}
		if i&2 != 0 {
			p.DstIP = addr("10.200.0.2")
		}
		p.Flags = TCPFlags(i >> 3)
		return p, 1 + i>>2&1
	}
	const flows = 1 << 11 // one of them matches no sampler
	full := -1            // the flow whose set filled the table
	var fullSet []*Sampler
	for i := 0; i < flows; i++ {
		p, in := flow(i)
		sw.Inject(&p, in, 0)
		if len(sw.sets) > flowCacheSlots {
			t.Fatalf("flow %d: %d interned sets, bound %d", i, len(sw.sets), flowCacheSlots)
		}
		cv, _ := cached(sw, &p, in)
		if !sameSamplers(cv.samplers, matchingSamplers(sw, p, in)) {
			t.Fatalf("flow %d: cached set %v, linear scan %v", i, cv.samplers, matchingSamplers(sw, p, in))
		}
		if len(sw.sets) == flowCacheSlots {
			full, fullSet = i, cv.samplers
		} else if full >= 0 && i == full+1 {
			// The table was just dropped; the flow cached before keeps
			// the very slice it had.
			q, qin := flow(full)
			if kept, ok := cached(sw, &q, qin); !ok || &kept.samplers[0] != &fullSet[0] {
				t.Fatalf("flow %d: cached %v (cached: %v), want the slice it had before the drop", full, kept.samplers, ok)
			}
		}
	}
	if full < 0 || len(sw.sets) != flows-1-flowCacheSlots {
		t.Fatalf("%d interned sets after %d distinct ones (table full at flow %d), want the table restarted once",
			len(sw.sets), flows-1, full)
	}
}

// The set key is a bitmask over the sampler slice with no width limit:
// past 64 samplers the sets still equal the linear scan's.
func TestSamplerSetsBeyond64(t *testing.T) {
	sw := NewSwitch("sw0", 2, 16)
	const samplers = 70
	fired := make([]int, samplers)
	for i := 0; i < samplers; i++ {
		i := i
		f := Filter{DstPort: uint16(1000 + i%10)}
		if i == 0 || i == 63 || i == 64 || i == samplers-1 {
			f = Filter{Proto: ProtoTCP}
		}
		sw.AddSampler(f, 1, func(Packet) { fired[i]++ })
	}
	rng := rand.New(rand.NewSource(64))
	want := make([]int, samplers)
	for n := 0; n < 2000; n++ {
		p := pkt("10.0.0.1", "10.0.0.2", uint16(rng.Intn(50)), uint16(995+rng.Intn(20)), []Proto{ProtoTCP, ProtoUDP}[rng.Intn(2)], 64)
		if got, lin := sw.samplerSet(&p, 1), matchingSamplers(sw, p, 1); !sameSamplers(got, lin) {
			t.Fatalf("packet %d: %d samplers in the set, %d in the linear scan", n, len(got), len(lin))
		}
		for i, sm := range sw.samplers {
			if sm.Filter.Match(&p, 1) {
				want[i]++
			}
		}
		sw.Inject(&p, 1, 2)
	}
	for i := range fired {
		if fired[i] != want[i] || (i >= 64 && fired[i] == 0) {
			t.Fatalf("sampler %d fired %d times, want %d (> 0)", i, fired[i], want[i])
		}
	}
}

// closureBus is the bus as it was before completion records: one
// closure and one timer per request. It is the reference the pooled
// completions are replayed against.
type closureBus struct {
	sched       engine.Scheduler
	bytesPerSec float64
	busyUntil   time.Duration
}

func (b *closureBus) Request(size int, fn func(latency time.Duration)) {
	now := b.sched.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done := start + time.Duration(float64(size)/b.bytesPerSec*float64(time.Second))
	b.busyUntil = done
	latency := done - now
	if fn != nil {
		b.sched.At(done, func() { fn(latency) })
	}
}

func (b *closureBus) Sample(size int, p Packet, sink func(Packet)) {
	b.Request(size, func(time.Duration) { sink(p) })
}

// closureDriver polls as the driver did before poll records: a closure
// over the request and its callback, put on the bus as a plain request.
type closureDriver struct {
	*closureBus
	sw *Switch
}

func (d *closureDriver) PollPortStats(ports []int, fn func(ports []int, stats []PortStats)) {
	if len(ports) == 0 {
		for p := 1; p <= d.sw.NumPorts(); p++ {
			ports = append(ports, p)
		}
	}
	d.Request(portStatsReqBytes+portStatsRespBytes*len(ports), func(time.Duration) {
		var got []int
		var stats []PortStats
		for _, p := range ports {
			if st, err := d.sw.PortStats(p); err == nil {
				got = append(got, p)
				stats = append(stats, st)
			}
		}
		fn(got, stats)
	})
}

func (d *closureDriver) PollRuleStats(f Filter, fn func(RuleStats, bool)) {
	d.Request(RuleStatsBytes, func(time.Duration) {
		st, ok := d.sw.TCAM().Stats(f)
		fn(st, ok)
	})
}

// pooledDriver is the production bus and driver behind the same methods.
type pooledDriver struct {
	*Bus
	drv *EmuDriver
}

func (d pooledDriver) PollPortStats(ports []int, fn func(ports []int, stats []PortStats)) {
	d.drv.PollPortStats(ports, fn)
}

func (d pooledDriver) PollRuleStats(f Filter, fn func(RuleStats, bool)) {
	d.drv.PollRuleStats(f, fn)
}

// TestBusCompletionOrder replays one seeded interleaving of port and
// rule polls, samples, plain requests and callback-less rule updates on
// the pooled bus and driver and on the closure-per-request reference,
// with a ticker firing in the same virtual nanoseconds as many
// completions and counters moving between requests, and requires the
// same transcript of (virtual time, callback id, latency, packet or
// counters read).
func TestBusCompletionOrder(t *testing.T) {
	type bus interface {
		Request(size int, fn func(latency time.Duration))
		Sample(size int, p Packet, sink func(Packet))
		PollPortStats(ports []int, fn func(ports []int, stats []PortStats))
		PollRuleStats(f Filter, fn func(RuleStats, bool))
	}
	installed, absent := Filter{DstPort: 80}, Filter{DstPort: 443}
	run := func(mk func(engine.Scheduler, *Switch) bus) []string {
		loop := engine.NewSerial()
		sw := NewSwitch("sw0", 6, 16)
		if err := sw.TCAM().AddRule(Rule{Filter: installed, Action: ActAllow}); err != nil {
			t.Fatal(err)
		}
		b := mk(loop, sw)
		var log []string
		note := func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%v ", loop.Now())+fmt.Sprintf(format, args...))
		}
		// Sizes are multiples of 100 B on a 1 B/µs bus and requests are
		// issued on the ticker's grid, so completions tie with ticks
		// (and with each other's successors) all the time. A port poll
		// of n ports is 16 + 32n B: off the grid, so later completions
		// tie with each other instead.
		loop.Every(100*time.Microsecond, func() { note("tick") })
		rng := rand.New(rand.NewSource(2210))
		id := 0
		for step := 0; step < 400; step++ {
			_ = sw.CreditPort(1+rng.Intn(5), 0, 0, 1, uint64(rng.Intn(1000)))
			sw.CreditRule(installed, 1, uint64(rng.Intn(1000)))
			for n := rng.Intn(5); n > 0; n-- {
				id++
				id := id
				size := 100 * (1 + rng.Intn(3))
				switch rng.Intn(5) {
				case 0:
					b.Request(size, func(lat time.Duration) { note("request %d latency %v", id, lat) })
				case 1:
					p := pkt("10.0.0.1", "10.0.0.2", uint16(id), 80, ProtoTCP, size)
					b.Sample(size, p, func(got Packet) { note("sample %d packet %d/%d", id, got.SrcPort, got.Size) })
				case 2:
					var ports []int // every port
					if rng.Intn(2) == 0 {
						ports = []int{5, 1 + rng.Intn(5), 9} // 9 does not exist
					}
					b.PollPortStats(ports, func(ports []int, stats []PortStats) {
						note("ports %d %v %v", id, ports, stats)
					})
				case 3:
					f := installed
					if rng.Intn(3) == 0 {
						f = absent
					}
					b.PollRuleStats(f, func(st RuleStats, ok bool) { note("rule %d %v %v", id, st, ok) })
				default:
					b.Request(size, nil)
				}
			}
			loop.RunFor(time.Duration(rng.Intn(5)) * 100 * time.Microsecond)
		}
		loop.RunFor(time.Second)
		return log
	}
	got := run(func(s engine.Scheduler, sw *Switch) bus {
		b := NewBus(s, 1e6)
		return pooledDriver{Bus: b, drv: NewEmuDriver(sw, b)}
	})
	want := run(func(s engine.Scheduler, sw *Switch) bus {
		return &closureDriver{closureBus: &closureBus{sched: s, bytesPerSec: 1e6}, sw: sw}
	})
	if len(got) != len(want) {
		t.Fatalf("%d transcript lines, reference has %d", len(got), len(want))
	}
	kinds := map[string]int{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: %q, reference %q", i, got[i], want[i])
		}
		kinds[strings.Fields(want[i])[1]]++
	}
	for _, k := range []string{"request", "sample", "ports", "rule"} {
		if kinds[k] < 100 {
			t.Fatalf("weak interleaving: %d %s completions (%v)", kinds[k], k, kinds)
		}
	}
}

// TestBusReentrantRequest: a completion callback may use the bus it is
// completing on. Its record is not reused until it has returned, so a
// request issued from inside a callback completes like any other, and a
// sink that stops its own sampler still gets what was already in flight.
func TestBusReentrantRequest(t *testing.T) {
	loop := engine.NewSerial()
	bus := NewBus(loop, 1e6) // 100 B = 100 µs
	var log []string
	bus.Request(100, func(lat time.Duration) {
		log = append(log, fmt.Sprintf("%v outer %v", loop.Now(), lat))
		// The free list is empty: were the outer record handed out while
		// its callback runs, this request would overwrite it.
		bus.Request(200, func(lat time.Duration) {
			log = append(log, fmt.Sprintf("%v inner %v", loop.Now(), lat))
		})
		bus.Sample(100, Packet{Size: 7}, func(p Packet) {
			log = append(log, fmt.Sprintf("%v sample %d", loop.Now(), p.Size))
		})
	})
	loop.RunFor(time.Second)
	want := []string{"100µs outer 100µs", "300µs inner 200µs", "400µs sample 7"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("transcript %q, want %q", log, want)
	}
	if len(bus.free) != 3 {
		t.Fatalf("%d records on the free list, want the 3 that were in flight", len(bus.free))
	}

	sw := NewSwitch("sw0", 2, 16)
	drv := NewEmuDriver(sw, bus)
	delivered := 0
	var stop func()
	stop = drv.StartSampling(Filter{}, 1, func(Packet) {
		delivered++
		stop()
	})
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)
	for i := 0; i < 3; i++ {
		sw.Inject(&p, 1, 2) // all three are on the bus before the first completes
	}
	loop.RunFor(time.Second)
	sw.Inject(&p, 1, 2) // the sampler is gone
	loop.RunFor(time.Second)
	if delivered != 3 || len(sw.samplers) != 0 {
		t.Fatalf("delivered %d samples with %d samplers left, want 3 and 0", delivered, len(sw.samplers))
	}
	if len(bus.free) != 3 {
		t.Fatalf("%d records on the free list, want 3 (reused, none lost)", len(bus.free))
	}
}

// The free list keeps at most maxFreeCompletions records however many
// were in flight at once.
func TestBusFreeListBounded(t *testing.T) {
	loop := engine.NewSerial()
	bus := NewBus(loop, 1e9)
	done := 0
	for i := 0; i < 2*maxFreeCompletions; i++ {
		bus.Request(64, func(time.Duration) { done++ })
	}
	loop.RunFor(time.Second)
	if done != 2*maxFreeCompletions || len(bus.free) != maxFreeCompletions {
		t.Fatalf("%d completions, %d records kept, want %d and %d", done, len(bus.free), 2*maxFreeCompletions, maxFreeCompletions)
	}
}
