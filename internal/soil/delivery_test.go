package soil

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/metrics"
	"farm/internal/netmodel"
)

// Delivery semantics of the shared poll batch: one batch per completion
// for the subscribers due at it that last saw the same completion,
// read-only to all of them, deltas against that completion (against zero
// before a group's first), and no way for one seed to see what another
// did with the records.

// watchSource records what each completion says about port 1.
const watchSource = `
machine Watch {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  list deltas;
  long tx;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      PortStats r = list_get(recs, 0);
      deltas = list_append(deltas, r.dTxBytes);
      tx = r.txBytes;
    }
  }
}
`

// writerSource overwrites a field of the polled record it was handed.
const writerSource = `
machine Writer {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  long wrote;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      PortStats r = list_get(recs, 0);
      r.dTxBytes = 0 - 1;
      r.txBytes = 0 - 1;
      wrote = r.dTxBytes;
    }
  }
}
`

// keeperSource keeps the whole poll result in a machine variable and
// reads the kept one on the next completion; it also keeps the first
// one for good and reads it on every completion.
const keeperSource = `
machine Keeper {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  list last; list first;
  long n; long oldTx; long oldD; long curTx; long firstTx;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      if (n > 0) then {
        PortStats o = list_get(last, 0);
        oldTx = o.txBytes;
        oldD = o.dTxBytes;
      } else {
        first = recs;
      }
      PortStats c = list_get(recs, 0);
      curTx = c.txBytes;
      PortStats f = list_get(first, 0);
      firstTx = f.txBytes;
      last = recs;
      n = n + 1;
    }
  }
}
`

// summerSource is a handler that allocates nothing: a scan loop over
// the records into a machine variable.
const summerSource = `
machine Summer {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  long total;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as recs) do {
      long i = 0;
      while (i < list_len(recs)) {
        PortStats r = list_get(recs, i);
        total = total + r.dTxBytes;
        i = i + 1;
      }
    }
  }
}
`

// snifferSource is a probe handler that allocates nothing: it reads the
// packet's text, number and flag fields, compares and keeps them in
// machine variables, and looks a long key up in a map.
const snifferSource = `
machine Sniffer {
  place all;
  probe pkts = Probe { .ival = 0.01, .what = dstPort 80 };
  map perPort;
  long n; long bytes; long syns; long tcp; long known;
  string lastSrc;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (pkts as p) do {
      n = n + 1;
      bytes = bytes + p.size;
      if (p.syn) then { syns = syns + 1; }
      if (p.proto == "tcp") then { tcp = tcp + 1; }
      if (p.srcIP <> p.dstIP) then { lastSrc = p.srcIP; }
      known = known + map_get(perPort, p.dstPort, 0);
    }
  }
}
`

// reporterSource reports every probe to the harvester.
const reporterSource = `
machine Reporter {
  place all;
  probe pkts = Probe { .ival = 0.01, .what = dstPort 80 };
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (pkts as p) do { send p.size to harvester; }
  }
}
`

// packetKeeperSource keeps the first probe's packet in a machine
// variable and reads the kept one on every later probe.
const packetKeeperSource = `
machine PacketKeeper {
  place all;
  probe pkts = Probe { .ival = 0.01, .what = dstPort 80 };
  packet first;
  long n; long firstPort; long curPort;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (pkts as p) do {
      if (n == 0) then { first = p; }
      n = n + 1;
      firstPort = first.srcPort;
      curPort = p.srcPort;
    }
  }
}
`

func deployMachine(t testing.TB, s *Soil, task, src, machine string) SeedRef {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, machine)
	if err != nil {
		t.Fatal(err)
	}
	ref := SeedRef{Task: task, Machine: machine, Switch: s.Name()}
	alloc := netmodel.Vector{netmodel.ResVCPU: 0.01, netmodel.ResRAM: 1, netmodel.ResPoll: 2000}
	if err := s.DeployCompiled(ref, ref.ID(), mustPrepare(t, cm, nil), alloc); err != nil {
		t.Fatal(err)
	}
	return ref
}

func seedInts(t *testing.T, s *Soil, ref SeedRef, name string) []int64 {
	t.Helper()
	v, ok := s.SeedVar(ref.ID(), name)
	if !ok {
		t.Fatalf("seed %s has no variable %s", ref.ID(), name)
	}
	if n, ok := v.(int64); ok {
		return []int64{n}
	}
	var out []int64
	for _, e := range v.(core.List) {
		out = append(out, e.(int64))
	}
	return out
}

func equalInts(a, b []int64) bool {
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

// creditAndPoll credits port 1's transmit counter and runs one poll
// interval. The clock sits mid-interval between calls, so each call
// contains exactly one fire and its PCIe completion.
func creditAndPoll(loop engine.Scheduler, fab *fabric.Fabric, leaf netmodel.SwitchID, bytes uint64) {
	_ = fab.Switch(leaf).CreditPort(1, 0, 0, 1, bytes)
	loop.RunFor(10 * time.Millisecond)
}

// A seed deployed onto a running group starts from the group's latest
// completion: its first delivery is the delta of the interval since it
// joined, not the port's lifetime counters, and the seeds already there
// cannot tell it joined.
func TestLateJoinerStartsFromLatestCompletion(t *testing.T) {
	run := func(join bool) (first, late []int64, issued uint64) {
		fab, loop := testEnv(t)
		leaf := leafID(t, fab, "leaf0")
		s := New(fab, leaf, DefaultOptions())
		a := deployMachine(t, s, "a", watchSource, "Watch")
		_ = fab.Switch(leaf).CreditPort(1, 0, 0, 1, 5000)
		loop.RunFor(5 * time.Millisecond)
		var b SeedRef
		for i := 1; i <= 8; i++ {
			creditAndPoll(loop, fab, leaf, uint64(100*i))
			if join && i == 5 {
				b = deployMachine(t, s, "b", watchSource, "Watch")
			}
		}
		if join {
			late = seedInts(t, s, b, "deltas")
		}
		return seedInts(t, s, a, "deltas"), late, s.PollsIssued()
	}
	alone, _, issuedAlone := run(false)
	first, late, issued := run(true)
	want := []int64{5100, 200, 300, 400, 500, 600, 700, 800}
	if !equalInts(alone, want) {
		t.Fatalf("single subscriber deltas = %v, want %v", alone, want)
	}
	if !equalInts(first, want) {
		t.Fatalf("deltas of the seed already there = %v, want %v (unaffected by the join)", first, want)
	}
	// Joined after the fifth completion: the sixth is its first interval.
	if wantLate := []int64{600, 700, 800}; !equalInts(late, wantLate) {
		t.Fatalf("late joiner deltas = %v, want %v", late, wantLate)
	}
	if issued != issuedAlone || issued != 8 {
		t.Fatalf("polls issued = %d with the joiner, %d without, want 8 (one shared group)", issued, issuedAlone)
	}
}

// A handler that assigns fields of a polled record works on its own
// copy: the next subscriber of the same completion, and the same seed on
// the next completion, read what the ASIC said.
func TestPolledRecordWritesAreIsolated(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	w := deployMachine(t, s, "a-writer", writerSource, "Writer") // delivered first
	r := deployMachine(t, s, "b-reader", watchSource, "Watch")
	loop.RunFor(5 * time.Millisecond)
	for i := 1; i <= 4; i++ {
		creditAndPoll(loop, fab, leaf, uint64(100*i))
	}
	if got := seedInts(t, s, w, "wrote"); !equalInts(got, []int64{-1}) {
		t.Fatalf("writer read back %v from its own copy, want -1", got)
	}
	if got, want := seedInts(t, s, r, "deltas"), []int64{100, 200, 300, 400}; !equalInts(got, want) {
		t.Fatalf("reader deltas = %v, want %v: it saw the writer's assignment", got, want)
	}
	if got := seedInts(t, s, r, "tx"); !equalInts(got, []int64{1000}) {
		t.Fatalf("reader txBytes = %v, want 1000", got)
	}
	if s.PollsDelivered() != 8 || s.PollsIssued() != 4 {
		t.Fatalf("delivered %d of %d polls, want 8 of 4", s.PollsDelivered(), s.PollsIssued())
	}
}

// A poll result kept in a machine variable is the completion it was: no
// later completion is the old batch refilled, however many follow.
func TestKeptPollResultIsNotOverwritten(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	k := deployMachine(t, s, "keeper", keeperSource, "Keeper")
	other := deployMachine(t, s, "other", watchSource, "Watch") // shares every batch
	loop.RunFor(5 * time.Millisecond)
	const completions = 100
	var wantDeltas []int64
	for i := 1; i <= completions; i++ {
		creditAndPoll(loop, fab, leaf, uint64(100*i))
		wantDeltas = append(wantDeltas, int64(100*i))
		// Completions read 100, 300, 600, ... cumulative.
		cum := int64(50 * i * (i + 1))
		want := map[string]int64{"n": int64(i), "curTx": cum, "firstTx": 100}
		if i > 1 {
			want["oldTx"], want["oldD"] = cum-int64(100*i), int64(100*(i-1))
		}
		for name, w := range want {
			if got := seedInts(t, s, k, name); !equalInts(got, []int64{w}) {
				t.Fatalf("completion %d: %s = %v, want %d", i, name, got, w)
			}
		}
	}
	// The kept value leaves the seed as a plain list of records.
	last, _ := s.SeedVar(k.ID(), "last")
	if l, ok := last.(core.List); !ok || len(l) != fab.Switch(leaf).NumPorts() {
		t.Fatalf("kept poll result reads as %T", last)
	}
	if got := seedInts(t, s, other, "deltas"); !equalInts(got, wantDeltas) {
		t.Fatalf("co-subscriber deltas = %v, want %v", got, wantDeltas)
	}
}

// A seed removed between a poll's issue and its PCIe completion gets no
// delivery; the switch CPU still pays for the records the completion
// carried, and nothing else.
func TestRemoveWithPollInFlight(t *testing.T) {
	for _, aggregation := range []bool{true, false} {
		fab, loop := testEnv(t)
		leaf := leafID(t, fab, "leaf0")
		s := New(fab, leaf, Options{Aggregation: aggregation})
		a := deployMachine(t, s, "a", watchSource, "Watch")
		// The ticker fires at 10 ms; the completion needs the bus
		// transfer on top of that.
		loop.RunFor(10*time.Millisecond + 10*time.Microsecond)
		if s.PollsIssued() != 1 || s.PollsDelivered() != 0 {
			t.Fatalf("issued %d delivered %d before the completion, want 1 and 0", s.PollsIssued(), s.PollsDelivered())
		}
		if err := s.Remove(a.ID()); err != nil {
			t.Fatal(err)
		}
		if len(s.groups) != 0 {
			t.Fatalf("aggregation=%v: %d poll groups left after the last subscriber went", aggregation, len(s.groups))
		}
		busy := fab.CPU(leaf).Busy()
		loop.RunFor(50 * time.Millisecond)
		if s.PollsIssued() != 1 || s.PollsDelivered() != 0 {
			t.Fatalf("issued %d delivered %d after removal, want 1 and 0", s.PollsIssued(), s.PollsDelivered())
		}
		want := time.Duration(fab.Switch(leaf).NumPorts()) * metrics.CostPollPerRecord
		if got := fab.CPU(leaf).Busy() - busy; got != want {
			t.Fatalf("aggregation=%v: orphaned completion charged %v, want %v (records only)", aggregation, got, want)
		}
	}
}

// A seed removed while one of its samples is on the PCIe bus gets no
// delivery: nothing runs, nothing is sent and the switch CPU is charged
// nothing. The transfer itself happened and stays on the bus's account.
func TestRemoveWithSampleInFlight(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	sent := 0
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) { sent++ })
	a := deployMachine(t, s, "a", reporterSource, "Reporter")
	p := dataplane.Packet{SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100}

	// With the seed in place the sample is delivered and reported.
	inject(fab.Switch(leaf), p)
	loop.RunFor(10 * time.Millisecond)
	if s.ProbesDelivered() != 1 || sent != 1 {
		t.Fatalf("%d probes delivered, %d sent with the seed deployed, want 1 and 1", s.ProbesDelivered(), sent)
	}

	// 100 bytes take 100 µs to cross; the seed goes before that.
	inject(fab.Switch(leaf), p)
	loop.RunFor(10 * time.Microsecond)
	if err := s.Remove(a.ID()); err != nil {
		t.Fatal(err)
	}
	busy := fab.CPU(leaf).Busy()
	loop.RunFor(10 * time.Millisecond)
	if s.ProbesDelivered() != 1 || sent != 1 {
		t.Fatalf("%d probes delivered, %d sent after removal, want 1 and 1: the removed seed ran", s.ProbesDelivered(), sent)
	}
	if got := fab.CPU(leaf).Busy() - busy; got != 0 {
		t.Fatalf("orphaned sample charged %v to the switch CPU, want nothing", got)
	}
	if bus := fab.Driver(leaf).Bus().Snapshot(); bus.Requests != 2 || bus.Bytes != 200 {
		t.Fatalf("bus carried %d transfers / %d bytes, want both samples accounted (2 / 200)", bus.Requests, bus.Bytes)
	}
}

// A probe's packet is lent to the handler for the call; a seed that
// keeps it keeps a copy, which the next probe does not overwrite.
func TestKeptProbePacketIsNotOverwritten(t *testing.T) {
	fab, loop := testEnv(t)
	leaf := leafID(t, fab, "leaf0")
	s := New(fab, leaf, DefaultOptions())
	k := deployMachine(t, s, "keeper", packetKeeperSource, "PacketKeeper")
	for port := uint16(1); port <= 3; port++ {
		inject(fab.Switch(leaf), dataplane.Packet{SrcPort: port, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100})
		loop.RunFor(time.Millisecond)
	}
	for name, want := range map[string]int64{"n": 3, "firstPort": 1, "curPort": 3} {
		if got := seedInts(t, s, k, name); !equalInts(got, []int64{want}) {
			t.Fatalf("%s = %v, want %d", name, got, want)
		}
	}
	first, _ := s.SeedVar(k.ID(), "first")
	if pv, ok := first.(core.PacketVal); !ok || pv.SrcPort != 1 {
		t.Fatalf("kept packet reads as %T %v, want the first probe's packet by value", first, first)
	}
}

// oneLeafFabric is one spine and one leaf with the given number of
// hosts on the leaf, on a serial engine.
func oneLeafFabric(tb testing.TB, hosts int) (*fabric.Fabric, engine.Scheduler, netmodel.SwitchID) {
	tb.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 1, Leaves: 1, HostsPerLeaf: hosts})
	if err != nil {
		tb.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	for _, sw := range topo.Switches() {
		if sw.Name == "leaf0" {
			return fab, loop, sw.ID
		}
	}
	tb.Fatal("no leaf0 in the topology")
	return nil, nil, 0
}

// probeBench is a leaf with subs co-located Sniffer seeds, each with its
// own sampler on the same filter, warmed past the first probe.
func probeBench(tb testing.TB, subs int) (*Soil, engine.Scheduler, func()) {
	tb.Helper()
	fab, loop, leaf := oneLeafFabric(tb, 2)
	s := New(fab, leaf, DefaultOptions())
	for i := 0; i < subs; i++ {
		deployMachine(tb, s, fmt.Sprintf("t%d", i), snifferSource, "Sniffer")
	}
	p := dataplane.Packet{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 4242, DstPort: 80, Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN, Size: 100,
	}
	// One packet is one sample per seed: subs transfers of 100 µs each.
	probe := func() {
		inject(fab.Switch(leaf), p)
		loop.RunFor(time.Duration(subs+1) * 100 * time.Microsecond)
	}
	for i := 0; i < 5; i++ {
		probe()
	}
	if want := uint64(5 * subs); s.ProbesDelivered() != want {
		tb.Fatalf("warm-up delivered %d probes, want %d", s.ProbesDelivered(), want)
	}
	return s, loop, probe
}

// TestProbeDeliveryAllocs: a delivered probe — sampler fire, bus
// transfer, throttle, dispatch, a handler reading the packet's fields —
// allocates nothing, with one probe seed on the switch or eight. (Before
// the completion records and the packet lent in place: 3 per crossing
// sample, a boxed packet per delivery, two strings per address read.)
func TestProbeDeliveryAllocs(t *testing.T) {
	const maxAllocs = 0
	for _, subs := range []int{1, 8} {
		s, _, probe := probeBench(t, subs)
		const warm = 3000 // ~2 virtual seconds: let the engine's event pool fill
		for i := 0; i < warm; i++ {
			probe()
		}
		before := s.ProbesDelivered()
		const runs = 100
		allocs := testing.AllocsPerRun(runs, probe)
		// AllocsPerRun makes one extra warm-up call.
		if got, want := s.ProbesDelivered()-before, uint64((runs+1)*subs); got != want {
			t.Fatalf("%d probe seeds: %d deliveries for %d packets, want %d", subs, got, runs+1, want)
		}
		if perProbe := allocs / float64(subs); perProbe > maxAllocs {
			t.Fatalf("%d probe seeds: %.2f allocations per delivered probe, want <= %d", subs, perProbe, maxAllocs)
		}
		for _, v := range []string{"n", "syns", "tcp"} {
			if got, want := seedInts(t, s, SeedRef{Task: "t0", Machine: "Sniffer"}, v), int64(5+warm+runs+1); !equalInts(got, []int64{want}) {
				t.Fatalf("%d probe seeds: %s = %v after %d probes", subs, v, got, want)
			}
		}
	}
}

// BenchmarkProbeDelivery measures one delivered probe (one of 8 seeds
// sampling the same packet), with the sample's bus crossing.
func BenchmarkProbeDelivery(b *testing.B) {
	const subs = 8
	s, _, probe := probeBench(b, subs)
	before := s.ProbesDelivered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += subs {
		probe()
	}
	b.StopTimer()
	if delivered := s.ProbesDelivered() - before; delivered < uint64(b.N) {
		b.Fatalf("%d deliveries in %d iterations", delivered, b.N)
	}
}

// hhDeltaSource is the Fig. 4 heavy-hitter seed: getHH on every
// completion, a report only when the hitter set changes.
const hhDeltaSource = `
machine HHDelta {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  long threshold = 4000;
  list hitters;
  list reported;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as stats) do {
      hitters = getHH(stats, threshold);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
    }
  }
}
`

// pollBench is a leaf with the given port count and subs co-located
// seeds of one machine on one poll group, warmed past every first
// delivery. Each step credits port p with 1000·p bytes — port p is a
// 4000-byte hitter from p = 4 on — or, when rotate says so for the
// step, with the heavy half of the ports moved by one, and runs one
// poll interval.
func pollBench(tb testing.TB, ports, subs int, src, machine string) (s *Soil, step func(rotate bool)) {
	tb.Helper()
	fab, loop, leaf := oneLeafFabric(tb, ports-1)
	if n := fab.Switch(leaf).NumPorts(); n != ports {
		tb.Fatalf("leaf has %d ports, want %d", n, ports)
	}
	s = New(fab, leaf, DefaultOptions())
	for i := 0; i < subs; i++ {
		deployMachine(tb, s, fmt.Sprintf("t%d", i), src, machine)
	}
	shift := 0
	step = func(rotate bool) {
		if rotate {
			shift++
		}
		for p := 1; p <= ports; p++ {
			_ = fab.Switch(leaf).CreditPort(p, 0, 0, 1, uint64(1000*(1+(p-1+shift)%ports)))
		}
		loop.RunFor(10 * time.Millisecond)
	}
	loop.RunFor(5 * time.Millisecond)
	for i := 0; i < 5; i++ {
		step(false)
	}
	if want := uint64(5 * subs); s.PollsDelivered() != want {
		tb.Fatalf("warm-up delivered %d polls, want %d", s.PollsDelivered(), want)
	}
	return s, step
}

// holderSource keeps the poll result and one of its records in machine
// variables, so every completion it is handed is kept.
const holderSource = `
machine Holder {
  place all;
  poll p = Poll { .ival = 10, .what = port ANY };
  list last;
  PortStats r;
  state s {
    util (res) { if (res.vCPU >= 0.01) then { return 1; } }
    when (p as stats) do {
      last = stats;
      r = list_get(stats, 0);
    }
  }
}
`

// TestPollDeliveryAllocs: a completion — fire, bus transfer, batch,
// delivery to every subscriber's handler — allocates nothing, whether
// the handler is a scan loop or a getHH whose answer has not changed,
// however many ports the completion carries and however many seeds share
// it. The bus transfer rides a pooled poll record, the batch is the
// group's, rewritten in place, and the hitter list is the previous
// completion's. A handler that keeps the batch costs the next completion
// a new one, its header and counters.
func TestPollDeliveryAllocs(t *testing.T) {
	const runs = 100
	for _, m := range []struct {
		src, machine string
		maxAllocs    float64
	}{{summerSource, "Summer", 0}, {hhDeltaSource, "HHDelta", 0}, {holderSource, "Holder", 2}} {
		for _, c := range []struct{ ports, subs int }{{8, 1}, {48, 1}, {8, 8}, {48, 8}} {
			s, step := pollBench(t, c.ports, c.subs, m.src, m.machine)
			for i := 0; i < 200; i++ { // let the engine's event pool fill
				step(false)
			}
			before := s.PollsDelivered()
			allocs := testing.AllocsPerRun(runs, func() { step(false) })
			// AllocsPerRun makes one extra warm-up call.
			if got, want := s.PollsDelivered()-before, uint64((runs+1)*c.subs); got != want {
				t.Fatalf("%s, %d ports x %d subscribers: %d deliveries in %d intervals, want %d", m.machine, c.ports, c.subs, got, runs+1, want)
			}
			if allocs > m.maxAllocs {
				t.Fatalf("%s, %d ports x %d subscribers: %.1f allocations per completion, want <= %.0f", m.machine, c.ports, c.subs, allocs, m.maxAllocs)
			}
		}
	}
}

// BenchmarkPollDelivery measures one delivery (a 48-record scan loop in
// one of 8 seeds sharing the completion), with its share of the poll.
func BenchmarkPollDelivery(b *testing.B) {
	const ports, subs = 48, 8
	s, step := pollBench(b, ports, subs, summerSource, "Summer")
	before := s.PollsDelivered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += subs {
		step(false)
	}
	b.StopTimer()
	if delivered := s.PollsDelivered() - before; delivered < uint64(b.N) {
		b.Fatalf("%d deliveries in %d iterations", delivered, b.N)
	}
}

// BenchmarkHHDeltaPoll measures one delivery of the Fig. 4 pipeline: 8
// HHDelta seeds on one 48-port poll group, each calling getHH and
// comparing against what it reported, with the heavy ports moving every
// 25th completion (the bench workload's churn at a 10 ms poll), so one
// completion in 25 sends a report from every seed.
func BenchmarkHHDeltaPoll(b *testing.B) {
	const ports, subs = 48, 8
	s, step := pollBench(b, ports, subs, hhDeltaSource, "HHDelta")
	sent := 0
	s.SetSendFunc(func(SeedRef, core.SendDest, core.Value) { sent++ })
	before := s.PollsDelivered()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i += subs {
		n++
		step(n%25 == 0)
	}
	b.StopTimer()
	if delivered := s.PollsDelivered() - before; delivered < uint64(b.N) {
		b.Fatalf("%d deliveries in %d iterations", delivered, b.N)
	}
	if want := subs * (n / 25); sent != want {
		b.Fatalf("%d reports for %d hitter-set changes x %d seeds, want %d", sent, n/25, subs, want)
	}
}
