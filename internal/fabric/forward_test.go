package fabric

import (
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

// crossLeafPacket is a flow from leaf 0 to leaf 1: three switches.
func crossLeafPacket() dataplane.Packet {
	return dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		SrcPort: 1234, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
}

// Once a flow is warm — its path-table cell filled, its flow-cache
// entries present on every switch of the path, one hop record and the
// engine's events in their pools — sending a packet and carrying it to
// delivery allocates nothing.
func TestSendSteadyStateAllocs(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	p := crossLeafPacket()
	if path, err := f.PathFor(&p); err != nil || len(path) != 3 {
		t.Fatalf("path = %v, %v; want 3 switches", path, err)
	}
	sendAndDeliver := func() {
		if err := f.Send(&p); err != nil {
			t.Fatal(err)
		}
		loop.Drain(16)
	}
	sendAndDeliver()
	before := f.Delivered()
	if allocs := testing.AllocsPerRun(1000, sendAndDeliver); allocs != 0 {
		t.Fatalf("send + deliver allocates %v per packet in steady state, want 0", allocs)
	}
	if got := f.Delivered() - before; got != 1001 { // AllocsPerRun adds one warm-up run
		t.Fatalf("delivered %d packets, want 1001", got)
	}
	if got := len(f.lanes[0].free); got != 1 {
		t.Fatalf("%d hop records after one packet at a time, want 1", got)
	}
}

// A packet keeps the path it was given at Send, even if the topology's
// path table is dropped while it is in flight.
func TestInFlightPacketSurvivesTableInvalidation(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	p := crossLeafPacket()
	if err := f.Send(&p); err != nil {
		t.Fatal(err)
	}
	f.Topology().SetMaxECMP(1)
	loop.RunFor(time.Millisecond)
	if f.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1", f.Delivered())
	}
}

// flood drives every host outside leaf 0 at one victim on leaf 0 for
// the given virtual time, each source ticking on its own leaf's shard,
// and returns the fabric for inspection.
func flood(t *testing.T, sched engine.Scheduler, d time.Duration) *Fabric {
	t.Helper()
	const leaves, hosts = 8, 2
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 2, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	f := New(topo, sched, Options{})
	victim := HostIP(0, 0)
	for l := 1; l < leaves; l++ {
		for h := 0; h < hosts; h++ {
			p := dataplane.Packet{
				SrcIP: HostIP(l, h), DstIP: victim,
				SrcPort: uint16(1000 + l*hosts + h), DstPort: 80,
				Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN, Size: 60,
			}
			src, _ := topo.HostByIP(p.SrcIP)
			// Distinct periods, so arrivals interleave instead of
			// landing on the victim in lockstep.
			period := time.Duration(400+7*(l*hosts+h)) * time.Microsecond
			f.SchedulerFor(src.Leaf).Every(period, func() { f.MustSend(&p) })
		}
	}
	sched.RunFor(d)
	return f
}

// TestShardedFloodBoundedHopRecords floods one leaf from all others on
// the sharded engine with real worker goroutines (the -race gate for
// hop records crossing shards). Forwarding must match the serial run
// switch by switch, and the victim's shard — which only ever receives
// records — must stop hoarding them at maxFreeHops.
func TestShardedFloodBoundedHopRecords(t *testing.T) {
	const virtual = 3 * time.Second
	serial := flood(t, engine.NewSerial(), virtual)
	x := engine.NewSharded(engine.ShardedOptions{Shards: 4, Workers: 4, ForceWorkers: true})
	defer x.Stop()
	sharded := flood(t, x, virtual)

	if serial.Delivered() < 50*maxFreeHops {
		t.Fatalf("flood delivered only %d packets; too few to test the bound", serial.Delivered())
	}
	if s, p := serial.Delivered(), sharded.Delivered(); s != p {
		t.Fatalf("delivered: serial %d, sharded %d", s, p)
	}
	for _, sw := range serial.Topology().Switches() {
		for port := 1; port <= serial.NumPorts(sw.ID); port++ {
			a, _ := serial.Switch(sw.ID).PortStats(port)
			b, _ := sharded.Switch(sw.ID).PortStats(port)
			if a != b {
				t.Fatalf("%s port %d: serial %+v, sharded %+v", sw.Name, port, a, b)
			}
		}
	}

	victimLeaf, _ := sharded.Topology().HostByIP(HostIP(0, 0))
	for i := range sharded.lanes {
		if got := len(sharded.lanes[i].free); got > maxFreeHops {
			t.Fatalf("shard %d retains %d hop records, bound is %d", i, got, maxFreeHops)
		}
	}
	if got := len(sharded.lanes[sharded.ShardOf(victimLeaf.Leaf)].free); got != maxFreeHops {
		t.Fatalf("victim shard retains %d hop records; the flood should have filled it to the bound %d", got, maxFreeHops)
	}
	// On one shard every record comes back to where it is taken from,
	// so the serial run holds no more than were ever in flight at once.
	if got := len(serial.lanes[0].free); got > 64 {
		t.Fatalf("serial run retains %d hop records for ~a dozen packets in flight", got)
	}
}
