package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

// A host the topology gains after New has no port in the fabric: every
// way of sending to or from it is refused as an unknown host, and
// nothing is sent. (It used to index past the fabric's host ports.)
func TestHostAddedAfterNewIsUnknown(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	late := netip.MustParseAddr("10.9.9.9")
	if _, err := f.Topology().AddHost(2, late); err != nil {
		t.Fatal(err)
	}
	known := HostIP(1, 0)
	for _, c := range []struct {
		src, dst netip.Addr
		want     error
	}{
		{late, known, ErrUnknownSource},
		{known, late, ErrUnknownDestination},
	} {
		p := dataplane.Packet{SrcIP: c.src, DstIP: c.dst, SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 10}
		if _, err := f.Resolve(&p); !errors.Is(err, c.want) {
			t.Fatalf("Resolve %v -> %v: error %v, want %v", c.src, c.dst, err, c.want)
		}
		if err := f.Send(&p); !errors.Is(err, c.want) {
			t.Fatalf("Send %v -> %v: error %v, want %v", c.src, c.dst, err, c.want)
		}
		if _, err := f.PathFor(&p); !errors.Is(err, c.want) {
			t.Fatalf("PathFor %v -> %v: error %v, want %v", c.src, c.dst, err, c.want)
		}
	}
	loop.RunFor(time.Second)
	if f.Delivered() != 0 {
		t.Fatalf("delivered %d refused packets", f.Delivered())
	}
}

// TestSendOnMatchesPathFor: a packet sent on a resolved route visits
// exactly the switches PathFor names, in order, for random flows on a
// spine-leaf. The routes are resolved once, before a link is added; the
// link drops the path table and changes some flows' paths, and the same
// routes then follow the new paths — a route holds no path.
func TestSendOnMatchesPathFor(t *testing.T) {
	const spines, leaves, hosts = 3, 4, 3
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	f := New(topo, loop, Options{})
	var visited []netmodel.SwitchID
	for _, sw := range topo.Switches() {
		id := sw.ID
		f.Switch(id).AddSampler(dataplane.Filter{}, 1, func(dataplane.Packet) { visited = append(visited, id) })
	}

	rng := rand.New(rand.NewSource(5))
	pkts := make([]dataplane.Packet, 200)
	routes := make([]Route, len(pkts))
	for i := range pkts {
		src, dst := HostIP(rng.Intn(leaves), rng.Intn(hosts)), HostIP(rng.Intn(leaves), rng.Intn(hosts))
		pkts[i] = dataplane.Packet{
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP}[rng.Intn(2)], Size: 100,
		}
		if routes[i], err = f.Resolve(&pkts[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(phase string) []string {
		paths := make([]string, len(pkts))
		for i := range pkts {
			want, err := f.PathFor(&pkts[i])
			if err != nil {
				t.Fatal(err)
			}
			visited = visited[:0]
			if err := f.SendOn(routes[i], &pkts[i]); err != nil {
				t.Fatal(err)
			}
			loop.Drain(16)
			if fmt.Sprint(visited) != fmt.Sprint(want) {
				t.Fatalf("%s: flow %d visited %v, PathFor %v", phase, i, visited, want)
			}
			paths[i] = want.Key()
		}
		return paths
	}
	before := check("before AddLink")
	// A direct link between the first two leaves: their flows now take
	// it instead of a spine.
	leaf0, _ := topo.HostByIP(HostIP(0, 0))
	leaf1, _ := topo.HostByIP(HostIP(1, 0))
	topo.AddLink(leaf0.Leaf, leaf1.Leaf)
	after := check("after AddLink")
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no flow changed path: the AddLink case is not exercised")
	}
	if f.Delivered() != uint64(2*len(pkts)) {
		t.Fatalf("delivered %d, want %d", f.Delivered(), 2*len(pkts))
	}
}

// refFabric forwards packets over a Fabric's switches the way the
// fabric did before routes carried the flow-cache key: every hop calls
// Switch.Inject, which builds the key again from the packet. It counts
// its own deliveries and drops.
type refFabric struct {
	f                  *Fabric
	delivered, dropped uint64
}

// send is Send with the key built per hop.
func (r *refFabric) send(t *testing.T, pkt dataplane.Packet) {
	t.Helper()
	path, err := r.f.PathFor(&pkt)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := r.f.Topology().HostByIP(pkt.SrcIP)
	dst, _ := r.f.Topology().HostByIP(pkt.DstIP)
	var step func(i int)
	step = func(i int) {
		sw := path[i]
		last := i == len(path)-1
		inPort, outPort := int(r.f.hostPort[src.ID]), int(r.f.hostPort[dst.ID])
		if i > 0 {
			inPort, _ = r.f.PortToward(sw, path[i-1])
		}
		if !last {
			outPort, _ = r.f.PortToward(sw, path[i+1])
		}
		v := r.f.Switch(sw).Inject(&pkt, inPort, outPort)
		switch {
		case v.Dropped:
			r.dropped++
		case last:
			r.delivered++
		default:
			engine.ScheduleOn(r.f.Sched(), DefaultHopLatency, func() { step(i + 1) })
		}
	}
	step(0)
}

// TestCarriedKeyMatchesKeyPerHop sends random flows through SendOn, with
// the key its route carries, and fresh packets through Send, on a
// spine-leaf whose spines hold rules on the ingress port and the TCP
// flags and whose leaves each run a sampler. A twin fabric forwards the
// same packets with the key built per hop. Both must agree on
// deliveries, drops, every rule counter, every sampler delivery in
// order, every port counter and every switch's flow-cache hits and
// misses — before and after a link that changes some flows' paths.
func TestCarriedKeyMatchesKeyPerHop(t *testing.T) {
	const spines, leaves, hosts = 3, 4, 3
	type world struct {
		f     *Fabric
		loop  engine.Scheduler
		fired []string
	}
	build := func() *world {
		topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
		if err != nil {
			t.Fatal(err)
		}
		w := &world{loop: engine.NewSerial()}
		w.f = New(topo, w.loop, Options{})
		for _, sw := range topo.Switches() {
			ds, id := w.f.Switch(sw.ID), sw.ID
			if sw.Role == netmodel.Spine {
				for _, r := range []dataplane.Rule{
					{Priority: 3, Filter: dataplane.Filter{InPort: 1, FlagsSet: dataplane.FlagSYN}, Action: dataplane.ActDrop},
					{Priority: 2, Filter: dataplane.Filter{InPort: 2}, Action: dataplane.ActCount},
					{Priority: 1, Filter: dataplane.Filter{FlagsSet: dataplane.FlagACK}, Action: dataplane.ActCount},
				} {
					if err := ds.TCAM().AddRule(r); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			ds.AddSampler(dataplane.Filter{FlagsSet: dataplane.FlagSYN}, 3, func(p dataplane.Packet) {
				w.fired = append(w.fired, fmt.Sprintf("%d %v %v %v", id, w.loop.Now(), p.Flow(), p.Flags))
			})
		}
		return w
	}
	prod, twin := build(), build()
	ref := &refFabric{f: twin.f}

	rng := rand.New(rand.NewSource(9))
	flags := []dataplane.TCPFlags{0, dataplane.FlagSYN, dataplane.FlagACK, dataplane.FlagSYN | dataplane.FlagACK}
	packet := func() dataplane.Packet {
		return dataplane.Packet{
			SrcIP: HostIP(rng.Intn(leaves), rng.Intn(hosts)), DstIP: HostIP(rng.Intn(leaves), rng.Intn(hosts)),
			SrcPort: uint16(1000 + rng.Intn(8)), DstPort: uint16(80 + rng.Intn(3)),
			Proto: dataplane.ProtoTCP, Flags: flags[rng.Intn(len(flags))], Size: 64 + rng.Intn(64),
		}
	}
	flows := make([]dataplane.Packet, 40)
	routes := make([]Route, len(flows))
	for i := range flows {
		flows[i] = packet()
		var err error
		if routes[i], err = prod.f.Resolve(&flows[i]); err != nil {
			t.Fatal(err)
		}
	}
	round := func() {
		for n := 0; n < 3000; n++ {
			if rng.Intn(2) == 0 {
				i := rng.Intn(len(flows))
				if err := prod.f.SendOn(routes[i], &flows[i]); err != nil {
					t.Fatal(err)
				}
				ref.send(t, flows[i])
			} else {
				p := packet()
				if err := prod.f.Send(&p); err != nil {
					t.Fatal(err)
				}
				ref.send(t, p)
			}
			if n%7 == 0 { // run the clock a little: several packets stay in flight at once
				prod.loop.RunFor(30 * time.Microsecond)
				twin.loop.RunFor(30 * time.Microsecond)
			}
		}
		prod.loop.RunFor(time.Millisecond)
		twin.loop.RunFor(time.Millisecond)
	}
	compare := func(phase string) {
		if prod.f.Delivered() != ref.delivered || prod.f.DroppedInFabric() != ref.dropped {
			t.Fatalf("%s: delivered/dropped %d/%d, key per hop %d/%d", phase,
				prod.f.Delivered(), prod.f.DroppedInFabric(), ref.delivered, ref.dropped)
		}
		if ref.dropped == 0 || len(twin.fired) == 0 {
			t.Fatalf("%s: %d drops, %d sampler deliveries: the rules or the sampler are not exercised", phase, ref.dropped, len(twin.fired))
		}
		if fmt.Sprint(prod.fired) != fmt.Sprint(twin.fired) {
			t.Fatalf("%s: sampler deliveries differ: %d vs %d with the key per hop", phase, len(prod.fired), len(twin.fired))
		}
		for _, sw := range prod.f.Topology().Switches() {
			a, b := prod.f.Switch(sw.ID), twin.f.Switch(sw.ID)
			if a.Dropped() != b.Dropped() || a.CacheStats() != b.CacheStats() {
				t.Fatalf("%s: switch %s drops %d cache %+v, key per hop %d %+v", phase, sw.Name,
					a.Dropped(), a.CacheStats(), b.Dropped(), b.CacheStats())
			}
			for port := 1; port <= a.NumPorts(); port++ {
				pa, _ := a.PortStats(port)
				pb, _ := b.PortStats(port)
				if pa != pb {
					t.Fatalf("%s: switch %s port %d %+v, key per hop %+v", phase, sw.Name, port, pa, pb)
				}
			}
			for _, r := range a.TCAM().Rules() {
				sa, _ := a.TCAM().Stats(r.Filter)
				sb, _ := b.TCAM().Stats(r.Filter)
				if sa != sb {
					t.Fatalf("%s: switch %s rule %v: %+v, key per hop %+v", phase, sw.Name, r.Filter, sa, sb)
				}
			}
		}
	}
	round()
	compare("before AddLink")

	pathsBefore := make([]string, len(flows))
	for i := range flows {
		path, _ := prod.f.PathFor(&flows[i])
		pathsBefore[i] = path.Key()
	}
	// A direct link between the first two leaves: their flows now take
	// it, and arrive at the second leaf on a port the fabric never
	// assigned (in-port 0).
	for _, w := range []*world{prod, twin} {
		leaf0, _ := w.f.Topology().HostByIP(HostIP(0, 0))
		leaf1, _ := w.f.Topology().HostByIP(HostIP(1, 0))
		w.f.Topology().AddLink(leaf0.Leaf, leaf1.Leaf)
	}
	changed := 0
	for i := range flows {
		if path, _ := prod.f.PathFor(&flows[i]); path.Key() != pathsBefore[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no resolved flow changed path: the AddLink case is not exercised")
	}
	round()
	compare("after AddLink")
}
