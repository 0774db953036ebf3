package dataplane

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/metrics"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// ref returns a pointer to a copy of p, for handing a literal packet to
// injectFresh.
func ref(p Packet) *Packet { return &p }

func pkt(src, dst string, sport, dport uint16, proto Proto, size int) Packet {
	return Packet{
		SrcIP: addr(src), DstIP: addr(dst),
		SrcPort: sport, DstPort: dport,
		Proto: proto, Size: size,
	}
}

func TestFilterMatch(t *testing.T) {
	p := pkt("10.1.1.4", "10.0.1.9", 1234, 80, ProtoTCP, 100)
	cases := []struct {
		name  string
		f     Filter
		want  bool
		inPrt int
	}{
		{"zero matches all", Filter{}, true, 1},
		{"src prefix hit", Filter{SrcPrefix: pfx("10.1.0.0/16")}, true, 1},
		{"src prefix miss", Filter{SrcPrefix: pfx("10.2.0.0/16")}, false, 1},
		{"dst prefix hit", Filter{DstPrefix: pfx("10.0.1.0/24")}, true, 1},
		{"dst port hit", Filter{DstPort: 80}, true, 1},
		{"dst port miss", Filter{DstPort: 443}, false, 1},
		{"src port hit", Filter{SrcPort: 1234}, true, 1},
		{"proto hit", Filter{Proto: ProtoTCP}, true, 1},
		{"proto miss", Filter{Proto: ProtoUDP}, false, 1},
		{"inport hit", Filter{InPort: 1}, true, 1},
		{"inport miss", Filter{InPort: 2}, false, 1},
		{"combined", Filter{SrcPrefix: pfx("10.1.1.4/32"), DstPort: 80, Proto: ProtoTCP}, true, 1},
	}
	for _, c := range cases {
		if got := c.f.Match(&p, c.inPrt); got != c.want {
			t.Errorf("%s: match = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFilterFlags(t *testing.T) {
	p := pkt("10.0.0.1", "10.0.0.2", 1, 2, ProtoTCP, 40)
	p.Flags = FlagSYN
	if !(Filter{FlagsSet: FlagSYN}).Match(&p, 1) {
		t.Fatal("SYN filter should match SYN packet")
	}
	if (Filter{FlagsSet: FlagSYN | FlagACK}).Match(&p, 1) {
		t.Fatal("SYN+ACK filter should not match pure SYN")
	}
}

func TestFilterKeyCanonical(t *testing.T) {
	f1 := Filter{SrcPrefix: pfx("10.1.0.0/16"), DstPort: 80}
	f2 := Filter{DstPort: 80, SrcPrefix: pfx("10.1.0.0/16")}
	if f1.Key() != f2.Key() {
		t.Fatalf("keys differ: %q vs %q", f1.Key(), f2.Key())
	}
	if (Filter{}).Key() != "any" {
		t.Fatalf("zero filter key = %q", (Filter{}).Key())
	}
	f3 := Filter{DstPort: 443}
	if f1.Key() == f3.Key() {
		t.Fatal("distinct filters share a key")
	}
}

func TestTCAMPriority(t *testing.T) {
	tc := NewTCAM(10)
	low := Rule{Priority: 1, Filter: Filter{Proto: ProtoTCP}, Action: ActAllow}
	high := Rule{Priority: 5, Filter: Filter{DstPort: 80}, Action: ActDrop}
	if err := tc.AddRule(low); err != nil {
		t.Fatal(err)
	}
	if err := tc.AddRule(high); err != nil {
		t.Fatal(err)
	}
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)
	r, ok := tc.Lookup(p, 1)
	if !ok || r.Action != ActDrop {
		t.Fatalf("lookup = %+v, %v; want drop rule", r, ok)
	}
	// Only the matched rule counts.
	if st, _ := tc.Stats(high.Filter); st.Packets != 1 || st.Bytes != 100 {
		t.Fatalf("high stats = %+v", st)
	}
	if st, _ := tc.Stats(low.Filter); st.Packets != 0 {
		t.Fatalf("low stats = %+v, want zero", st)
	}
}

func TestTCAMTieBreakBySeq(t *testing.T) {
	tc := NewTCAM(10)
	first := Rule{Priority: 3, Filter: Filter{Proto: ProtoTCP}, Action: ActAllow, Note: "first"}
	second := Rule{Priority: 3, Filter: Filter{DstPort: 80}, Action: ActDrop, Note: "second"}
	_ = tc.AddRule(first)
	_ = tc.AddRule(second)
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 10)
	r, _ := tc.Lookup(p, 1)
	if r.Note != "first" {
		t.Fatalf("tie broke to %q, want first-installed", r.Note)
	}
}

func TestTCAMCapacityAndReplace(t *testing.T) {
	tc := NewTCAM(2)
	_ = tc.AddRule(Rule{Priority: 1, Filter: Filter{DstPort: 1}})
	_ = tc.AddRule(Rule{Priority: 1, Filter: Filter{DstPort: 2}})
	if err := tc.AddRule(Rule{Priority: 1, Filter: Filter{DstPort: 3}}); err != ErrTCAMFull {
		t.Fatalf("err = %v, want ErrTCAMFull", err)
	}
	// Replacing an existing filter succeeds at capacity.
	if err := tc.AddRule(Rule{Priority: 9, Filter: Filter{DstPort: 2}, Action: ActDrop}); err != nil {
		t.Fatal(err)
	}
	r, ok := tc.GetRule(Filter{DstPort: 2})
	if !ok || r.Priority != 9 || r.Action != ActDrop {
		t.Fatalf("replaced rule = %+v, %v", r, ok)
	}
	if tc.Size() != 2 || tc.Capacity() != 2 {
		t.Fatalf("size=%d capacity=%d", tc.Size(), tc.Capacity())
	}
}

func TestTCAMRemove(t *testing.T) {
	tc := NewTCAM(4)
	f := Filter{DstPort: 80}
	_ = tc.AddRule(Rule{Priority: 1, Filter: f})
	if !tc.RemoveRule(f) {
		t.Fatal("remove should succeed")
	}
	if tc.RemoveRule(f) {
		t.Fatal("second remove should fail")
	}
	if _, ok := tc.GetRule(f); ok {
		t.Fatal("rule still present")
	}
}

// Property: Lookup agrees with a brute-force reference scan on random
// rule tables and packets.
func TestTCAMLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tc := NewTCAM(32)
		nRules := 1 + rng.Intn(10)
		for i := 0; i < nRules; i++ {
			f := Filter{}
			if rng.Intn(2) == 0 {
				f.DstPort = uint16(rng.Intn(3) + 80)
			}
			if rng.Intn(2) == 0 {
				f.Proto = ProtoTCP
			}
			if rng.Intn(3) == 0 {
				f.InPort = rng.Intn(3) + 1
			}
			_ = tc.AddRule(Rule{Priority: rng.Intn(5), Filter: f, Note: "r"})
		}
		for j := 0; j < 20; j++ {
			p := pkt("10.0.0.1", "10.0.0.2", uint16(rng.Intn(1000)+1), uint16(rng.Intn(3)+80), ProtoTCP, 64)
			if rng.Intn(2) == 0 {
				p.Proto = ProtoUDP
			}
			inPort := rng.Intn(3) + 1
			want, wantOK := tc.lookupReference(p, inPort)
			got, gotOK := tc.Lookup(p, inPort)
			if gotOK != wantOK || (gotOK && (got.Priority != want.Priority || got.Filter != want.Filter)) {
				t.Fatalf("trial %d: lookup %+v,%v != reference %+v,%v", trial, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestSwitchInjectCounters(t *testing.T) {
	sw := NewSwitch("sw0", 4, 16, new(metrics.Switch))
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 150)
	injectFresh(sw, &p, 1, 2)
	injectFresh(sw, &p, 1, 2)
	in, _ := sw.PortStats(1)
	out, _ := sw.PortStats(2)
	if in.RxPackets != 2 || in.RxBytes != 300 {
		t.Fatalf("rx = %+v", in)
	}
	if out.TxPackets != 2 || out.TxBytes != 300 {
		t.Fatalf("tx = %+v", out)
	}
	if _, err := sw.PortStats(9); err == nil {
		t.Fatal("expected port range error")
	}
}

func TestSwitchDropRule(t *testing.T) {
	sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
	_ = sw.TCAM().AddRule(Rule{Priority: 1, Filter: Filter{DstPort: 666}, Action: ActDrop})
	bad := pkt("10.0.0.1", "10.0.0.2", 1, 666, ProtoTCP, 100)
	good := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)
	v1 := injectFresh(sw, &bad, 1, 2)
	v2 := injectFresh(sw, &good, 1, 2)
	if !v1.Dropped || v2.Dropped {
		t.Fatalf("verdicts = %+v, %+v", v1, v2)
	}
	if sw.m.RuleDrops != 1 {
		t.Fatalf("dropped = %d", sw.m.RuleDrops)
	}
	// Dropped packets are not transmitted.
	out, _ := sw.PortStats(2)
	if out.TxPackets != 1 {
		t.Fatalf("tx = %+v, want 1 packet", out)
	}
}

func TestSamplerFiresUntilRemoved(t *testing.T) {
	sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
	var got []Packet
	remove := sw.AddSampler(Filter{}, func(p Packet) { got = append(got, p) })
	for i := 0; i < 10; i++ {
		injectFresh(sw, ref(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)), 1, 2)
	}
	if len(got) != 10 {
		t.Fatalf("sampled %d, want every one of 10", len(got))
	}
	remove()
	injectFresh(sw, ref(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)), 1, 2)
	if len(got) != 10 {
		t.Fatal("sampler fired after removal")
	}
}

func TestBusSerializesTransfers(t *testing.T) {
	loop := engine.NewSerial()
	bus := NewBus(loop, 1000) // 1000 B/s -> 100 B takes 100 ms
	var done []time.Duration
	bus.Request(100, func(lat time.Duration) { done = append(done, loop.Now()) })
	bus.Request(100, func(lat time.Duration) { done = append(done, loop.Now()) })
	loop.RunFor(time.Second)
	if len(done) != 2 {
		t.Fatalf("completed %d, want 2", len(done))
	}
	if done[0] != 100*time.Millisecond || done[1] != 200*time.Millisecond {
		t.Fatalf("completions at %v, want 100ms and 200ms", done)
	}
}

func TestBusLatencyIncludesQueueing(t *testing.T) {
	loop := engine.NewSerial()
	bus := NewBus(loop, 1000)
	var lats []time.Duration
	bus.Request(100, func(l time.Duration) { lats = append(lats, l) })
	bus.Request(100, func(l time.Duration) { lats = append(lats, l) })
	loop.RunFor(time.Second)
	if lats[0] != 100*time.Millisecond || lats[1] != 200*time.Millisecond {
		t.Fatalf("latencies = %v", lats)
	}
	snap := bus.Snapshot()
	if snap.DelayMax != 100*time.Millisecond {
		t.Fatalf("max queue delay = %v, want 100ms", snap.DelayMax)
	}
}

// Property: bus conservation — busy time never exceeds capacity * bytes
// relation, i.e. busy == bytes / rate.
func TestBusConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	loop := engine.NewSerial()
	rate := 50000.0
	bus := NewBus(loop, rate)
	total := 0
	for i := 0; i < 100; i++ {
		sz := rng.Intn(2000) + 1
		total += sz
		bus.Request(sz, nil)
		loop.RunFor(time.Duration(rng.Intn(10)) * time.Millisecond)
	}
	snap := bus.Snapshot()
	wantBusy := time.Duration(float64(total) / rate * float64(time.Second))
	diff := snap.Busy - wantBusy
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("busy = %v, want %v", snap.Busy, wantBusy)
	}
	if snap.Bytes != uint64(total) {
		t.Fatalf("bytes = %d, want %d", snap.Bytes, total)
	}
}

// A driver's bus meters into its switch's record, and a window of the
// set reads its utilisation.
func TestBusUtilization(t *testing.T) {
	loop := engine.NewSerial()
	meters := metrics.New(loop, 1)
	drv := NewEmuDriver(NewSwitch("sw0", 2, 16, &meters.Switches[0]), loop, 1000)
	start := meters.Snapshot()
	drv.Bus().Request(500, nil) // 500 ms of service
	loop.RunFor(time.Second)
	u := meters.Since(start).Utilization(0)
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %g, want ~0.5", u)
	}
}

func TestEmuDriverPollPortStats(t *testing.T) {
	loop := engine.NewSerial()
	sw := NewSwitch("sw0", 4, 16, new(metrics.Switch))
	drv := NewEmuDriver(sw, loop, DefaultPCIePollBytesPerSec)
	// Traffic arrives while the poll is in flight; the response reflects
	// state at service time. Port 9 does not exist and is skipped.
	injectFresh(sw, ref(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)), 1, 2)
	var ports []int
	var got []PortStats
	calls := 0
	drv.PollPortStats([]int{2, 9, 1}, func(p []int, st []PortStats) {
		calls++
		// The slices are the driver's; keep copies.
		ports, got = append([]int(nil), p...), append([]PortStats(nil), st...)
	})
	loop.RunFor(10 * time.Millisecond)
	if calls != 1 {
		t.Fatalf("poll completed %d times, want 1", calls)
	}
	if len(ports) != 2 || ports[0] != 2 || ports[1] != 1 || len(got) != 2 {
		t.Fatalf("ports = %v with %d records, want [2 1] in request order", ports, len(got))
	}
	if got[0].TxPackets != 1 || got[1].RxPackets != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestEmuDriverPollAllPorts(t *testing.T) {
	loop := engine.NewSerial()
	sw := NewSwitch("sw0", 8, 16, new(metrics.Switch))
	drv := NewEmuDriver(sw, loop, DefaultPCIePollBytesPerSec)
	_ = sw.CreditPort(3, 0, 0, 5, 500)
	for round := 0; round < 2; round++ { // the second poll reuses the scratch
		var ports []int
		var tx3 uint64
		drv.PollPortStats(nil, func(p []int, st []PortStats) {
			ports = append([]int(nil), p...)
			tx3 = st[2].TxBytes
		})
		loop.RunFor(10 * time.Millisecond)
		if len(ports) != 8 {
			t.Fatalf("round %d: polled %d ports, want 8", round, len(ports))
		}
		for i, p := range ports {
			if p != i+1 {
				t.Fatalf("round %d: ports = %v, want ascending 1..8", round, ports)
			}
		}
		if tx3 != 500 {
			t.Fatalf("round %d: port 3 txBytes = %d, want 500", round, tx3)
		}
	}
}

// TestEmuDriverRuleLifecycle: a rule operation acts when it is called,
// and the driver charges the bus for it: 96 B for a write the table
// took and for any removal, 48 B for a read, nothing for a refused write
// or a look at the shadow.
func TestEmuDriverRuleLifecycle(t *testing.T) {
	loop := engine.NewSerial()
	sw := NewSwitch("sw0", 2, 1, new(metrics.Switch))
	drv := NewEmuDriver(sw, loop, DefaultPCIePollBytesPerSec)
	bus := drv.Bus()
	last := bus.Snapshot()
	charged := func(op string, requests, bytes uint64) {
		t.Helper()
		now := bus.Snapshot()
		if dr, db := now.Requests-last.Requests, now.Bytes-last.Bytes; dr != requests || db != bytes {
			t.Fatalf("%s: bus +%d requests, +%d B; want +%d, +%d B", op, dr, db, requests, bytes)
		}
		last = now
	}
	f := Filter{DstPort: 80}
	if drv.HasRule(f) {
		t.Fatal("empty table has the rule")
	}
	charged("HasRule", 0, 0)
	if err := drv.AddRule(Rule{Priority: 2, Filter: f, Action: ActCount}); err != nil {
		t.Fatalf("add err = %v", err)
	}
	charged("AddRule", 1, 96)
	if !drv.HasRule(f) {
		t.Fatal("added rule is not in the shadow")
	}
	if err := drv.AddRule(Rule{Priority: 1, Filter: Filter{DstPort: 443}}); err != ErrTCAMFull {
		t.Fatalf("add to a full table: err = %v, want ErrTCAMFull", err)
	}
	charged("refused AddRule", 0, 0)
	injectFresh(sw, ref(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 77)), 1, 2)
	var st RuleStats
	var ok bool
	drv.PollRuleStats(f, func(s RuleStats, o bool) { st, ok = s, o })
	loop.RunFor(10 * time.Millisecond)
	if !ok || st.Packets != 1 || st.Bytes != 77 {
		t.Fatalf("rule stats = %+v, %v", st, ok)
	}
	last = bus.Snapshot()
	if r, ok := drv.GetRule(f); !ok || r.Priority != 2 {
		t.Fatalf("GetRule = %+v, %v", r, ok)
	}
	charged("GetRule", 1, 48)
	if !drv.RemoveRule(f) {
		t.Fatal("rule not removed")
	}
	if drv.RemoveRule(f) {
		t.Fatal("absent rule removed")
	}
	charged("two RemoveRules", 2, 192)
}

func TestEmuDriverSamplingDropsUnderBacklog(t *testing.T) {
	loop := engine.NewSerial()
	sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
	// Tiny bus: one 128 B sample takes 128 ms, more than the 100 ms
	// ring holds.
	drv := NewEmuDriver(sw, loop, 1000)
	delivered := 0
	stop := drv.StartSampling(Filter{}, func(Packet) { delivered++ })
	defer stop()
	for i := 0; i < 10; i++ {
		injectFresh(sw, ref(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 1000)), 1, 2)
	}
	loop.RunFor(5 * time.Second)
	if drv.SampleDrops() == 0 {
		t.Fatal("expected sample drops under backlog")
	}
	if delivered+int(drv.SampleDrops()) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", delivered, drv.SampleDrops())
	}
}

func TestPacketFlowKey(t *testing.T) {
	p := pkt("10.0.0.1", "10.0.0.2", 5, 80, ProtoTCP, 64)
	q := pkt("10.0.0.1", "10.0.0.2", 5, 80, ProtoTCP, 9999)
	if p.Flow() != q.Flow() {
		t.Fatal("same 5-tuple should share FlowKey")
	}
	r := pkt("10.0.0.1", "10.0.0.2", 6, 80, ProtoTCP, 64)
	if p.Flow() == r.Flow() {
		t.Fatal("different src ports should differ")
	}
}

// Capacity returns the maximum number of entries.
func (t *TCAM) Capacity() int { return t.capacity }
