package fabric

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

// openSpineLeaf builds by hand what netmodel.SpineLeaf builds — spines
// first, then each leaf with its uplinks and its hosts at HostIP — but
// leaves the topology open, so a test can add links before New.
func openSpineLeaf(t *testing.T, spines, leaves, hosts int) *netmodel.Topology {
	t.Helper()
	topo := netmodel.New()
	for s := 0; s < spines; s++ {
		topo.AddSwitch(fmt.Sprintf("spine%d", s), netmodel.Spine, netmodel.Vector{})
	}
	for l := 0; l < leaves; l++ {
		leaf := topo.AddSwitch(fmt.Sprintf("leaf%d", l), netmodel.Leaf, netmodel.Vector{})
		for s := 0; s < spines; s++ {
			topo.AddLink(leaf, netmodel.SwitchID(s))
		}
		for h := 0; h < hosts; h++ {
			if _, err := topo.AddHost(leaf, HostIP(l, h)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return topo
}

// The network is fixed once the fabric is built: a link added after New
// would carry packets that no port of the fabric counts, so adding one
// panics, and so does adding a switch or a host.
func TestTopologyFixedAfterNew(t *testing.T) {
	const spines = 2
	leaf0, leaf1 := netmodel.SwitchID(spines), netmodel.SwitchID(spines+1)
	for _, c := range []struct {
		op     string
		mutate func(*netmodel.Topology)
	}{
		{"AddLink", func(topo *netmodel.Topology) { topo.AddLink(leaf0, leaf1) }},
		{"AddSwitch", func(topo *netmodel.Topology) { topo.AddSwitch("late", netmodel.Spine, netmodel.Vector{}) }},
		{"AddHost", func(topo *netmodel.Topology) { _, _ = topo.AddHost(leaf0, netip.MustParseAddr("10.9.9.9")) }},
	} {
		topo := openSpineLeaf(t, spines, 2, 2)
		loop := engine.NewSerial()
		f := New(topo, loop, Options{})
		func() {
			defer func() {
				if recover() != nil {
					return
				}
				// The mutation went through: show what it costs.
				p := crossLeafPacket()
				path, _ := f.PathFor(&p)
				for i := 0; i < 10; i++ {
					_ = f.Send(&p)
				}
				loop.RunFor(time.Millisecond)
				port, ok := f.PortToward(leaf0, leaf1)
				t.Fatalf("%s after New did not panic; %d packets delivered over %v, PortToward(leaf0, leaf1) = %d, %v",
					c.op, f.Delivered(), path, port, ok)
			}()
			c.mutate(topo)
		}()
	}
}

// TestSendOnMatchesPathFor: a packet sent on a resolved route visits
// exactly the switches PathFor names, in order, for random flows on a
// spine-leaf.
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
		f.Switch(id).AddSampler(dataplane.Filter{}, func(dataplane.Packet) { visited = append(visited, id) })
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
			t.Fatalf("flow %d visited %v, PathFor %v", i, visited, want)
		}
	}
	if f.Delivered() != uint64(len(pkts)) {
		t.Fatalf("delivered %d, want %d", f.Delivered(), len(pkts))
	}
}

// refFabric forwards packets over a Fabric's switches the way the
// fabric did before routes carried the flow-cache key: every hop builds
// the key again from the packet. It counts its own deliveries and drops.
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
		k := dataplane.KeyOf(&pkt)
		v := r.f.Switch(sw).InjectKey(&pkt, &k, inPort, outPort)
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
// misses — on the plain spine-leaf, and on one whose first two leaves
// are also linked directly, where flows between them take that link
// and both of its ends count them.
func TestCarriedKeyMatchesKeyPerHop(t *testing.T) {
	const spines, leaves, hosts = 3, 4, 3
	leaf0, leaf1 := netmodel.SwitchID(spines), netmodel.SwitchID(spines+1)
	type world struct {
		f     *Fabric
		loop  engine.Scheduler
		fired []string
	}
	build := func(leafLink bool) *world {
		topo := openSpineLeaf(t, spines, leaves, hosts)
		if leafLink {
			topo.AddLink(leaf0, leaf1)
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
			ds.AddSampler(dataplane.Filter{FlagsSet: dataplane.FlagSYN}, func(p dataplane.Packet) {
				w.fired = append(w.fired, fmt.Sprintf("%d %v %v %v", id, w.loop.Now(), p.Flow(), p.Flags))
			})
		}
		return w
	}
	for _, leafLink := range []bool{false, true} {
		phase := "spine-leaf"
		if leafLink {
			phase = "spine-leaf with a leaf0-leaf1 link"
		}
		prod, twin := build(leafLink), build(leafLink)
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
			if ma, mb := prod.f.Meters.Switches[sw.ID], twin.f.Meters.Switches[sw.ID]; ma != mb {
				t.Fatalf("%s: switch %s meters %+v, key per hop %+v", phase, sw.Name, ma, mb)
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
		if !leafLink {
			continue
		}
		// Flows between the linked leaves take the link, and its ports
		// count them at both ends.
		direct := 0
		for i := range flows {
			if path, _ := prod.f.PathFor(&flows[i]); len(path) == 2 {
				direct++
			}
		}
		if direct == 0 {
			t.Fatalf("%s: no resolved flow takes the link", phase)
		}
		out, ok0 := prod.f.PortToward(leaf0, leaf1)
		in, ok1 := prod.f.PortToward(leaf1, leaf0)
		if !ok0 || !ok1 {
			t.Fatalf("%s: the link has ports %d, %d", phase, out, in)
		}
		tx, _ := prod.f.Switch(leaf0).PortStats(out)
		rx, _ := prod.f.Switch(leaf1).PortStats(in)
		if tx.TxPackets == 0 || rx.RxPackets == 0 {
			t.Fatalf("%s: leaf0 port %d sent %d packets, leaf1 port %d received %d: the link carries uncounted packets",
				phase, out, tx.TxPackets, in, rx.RxPackets)
		}
	}
}
