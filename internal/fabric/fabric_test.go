package fabric

import (
	"errors"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

func testFabric(t *testing.T, spines, leaves, hosts int) (*Fabric, engine.Scheduler) {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	return New(topo, loop, Options{}), loop
}

// PortToward returns the 1-based port of sw facing neighbour nb, as
// the hop step reads it.
func (f *Fabric) PortToward(sw, nb netmodel.SwitchID) (int, bool) {
	if nb < 0 || int(nb) >= len(f.swPorts) {
		return 0, false
	}
	p := f.swPorts[sw][nb]
	return int(p), p != 0
}

// PathFor returns the ECMP path p's flow takes, as Send picks it.
func (f *Fabric) PathFor(p *dataplane.Packet) (netmodel.Path, error) {
	r, err := f.Resolve(p)
	if err != nil {
		return nil, err
	}
	return f.path(&r)
}

func TestPortAssignment(t *testing.T) {
	f, _ := testFabric(t, 2, 3, 4)
	topo := f.Topology()
	for _, sw := range topo.Switches() {
		nHosts := 0
		for _, h := range topo.Hosts() {
			if h.Leaf == sw.ID {
				nHosts++
			}
		}
		want := nHosts + len(topo.Neighbors(sw.ID))
		if got := f.NumPorts(sw.ID); got != want {
			t.Fatalf("%s: ports = %d, want %d", sw.Name, got, want)
		}
		// All ports distinct and in range.
		seen := map[int]bool{}
		for _, h := range topo.Hosts() {
			if h.Leaf != sw.ID {
				continue
			}
			p, ok := f.HostPort(sw.ID, h.ID)
			if !ok || p < 1 || p > want || seen[p] {
				t.Fatalf("%s host port %d invalid", sw.Name, p)
			}
			seen[p] = true
		}
		for _, nb := range topo.Neighbors(sw.ID) {
			p, ok := f.PortToward(sw.ID, nb)
			if !ok || p < 1 || p > want || seen[p] {
				t.Fatalf("%s uplink port %d invalid", sw.Name, p)
			}
			seen[p] = true
		}
	}
}

func TestSendAcrossLeaves(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	p := dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		SrcPort: 1234, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
	if err := f.Send(&p); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Millisecond)
	if f.Delivered() != 1 {
		t.Fatalf("delivered = %d, want 1", f.Delivered())
	}
	// The packet crossed leaf0 -> a spine -> leaf1: each switch on the
	// path saw it once.
	path, err := f.PathFor(&p)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path = %v, want 3 hops", path)
	}
	for i, sw := range path {
		total := uint64(0)
		for port := 1; port <= f.NumPorts(sw); port++ {
			st, _ := f.Switch(sw).PortStats(port)
			total += st.RxPackets
		}
		if total != 1 {
			t.Fatalf("hop %d (%s) saw %d packets, want 1", i, f.Topology().Switch(sw).Name, total)
		}
	}
}

func TestSendSameLeaf(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	p := dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(0, 1),
		SrcPort: 1, DstPort: 2, Proto: dataplane.ProtoUDP, Size: 64,
	}
	if err := f.Send(&p); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Millisecond)
	if f.Delivered() != 1 {
		t.Fatalf("delivered = %d", f.Delivered())
	}
}

func TestSendUnknownHost(t *testing.T) {
	f, _ := testFabric(t, 1, 1, 1)
	p := dataplane.Packet{SrcIP: HostIP(9, 9), DstIP: HostIP(0, 0), Size: 10}
	if err := f.Send(&p); err == nil {
		t.Fatal("unknown source should error")
	}
}

func TestSendErrorsAreSentinels(t *testing.T) {
	// Two leaves and no spine: both hosts exist, nothing connects them.
	topo := netmodel.New()
	for i := 0; i < 2; i++ {
		leaf := topo.AddSwitch("leaf", netmodel.Leaf, netmodel.Vector{})
		if _, err := topo.AddHost(leaf, HostIP(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	f := New(topo, engine.NewSerial(), Options{})
	for _, c := range []struct {
		src, dst [2]int
		want     error
	}{
		{[2]int{9, 9}, [2]int{0, 0}, ErrUnknownSource},
		{[2]int{0, 0}, [2]int{9, 9}, ErrUnknownDestination},
		{[2]int{0, 0}, [2]int{1, 0}, ErrNoPath},
	} {
		p := dataplane.Packet{SrcIP: HostIP(c.src[0], c.src[1]), DstIP: HostIP(c.dst[0], c.dst[1]), Size: 10}
		if err := f.Send(&p); !errors.Is(err, c.want) {
			t.Fatalf("Send %v -> %v: error %v, want %v", p.SrcIP, p.DstIP, err, c.want)
		}
		if _, err := f.PathFor(&p); !errors.Is(err, c.want) {
			t.Fatalf("PathFor %v -> %v: error %v, want %v", p.SrcIP, p.DstIP, err, c.want)
		}
	}
	if f.Delivered() != 0 || f.Sched().Pending() != 0 {
		t.Fatal("a refused packet must leave nothing behind")
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	f, _ := testFabric(t, 4, 2, 1)
	p := dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		SrcPort: 1234, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
	p1, err := f.PathFor(&p)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := f.PathFor(&p)
	if p1.Key() != p2.Key() {
		t.Fatal("same flow must take the same path")
	}
	// Different flows should (eventually) spread across spines.
	seen := map[string]bool{}
	for sp := uint16(1); sp <= 64; sp++ {
		q := p
		q.SrcPort = sp
		qp, _ := f.PathFor(&q)
		seen[qp.Key()] = true
	}
	if len(seen) < 2 {
		t.Fatal("ECMP did not spread flows across paths")
	}
}

func TestTCAMDropStopsForwarding(t *testing.T) {
	f, loop := testFabric(t, 1, 2, 1)
	p := dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		SrcPort: 5, DstPort: 666, Proto: dataplane.ProtoTCP, Size: 100,
	}
	path, _ := f.PathFor(&p)
	// Install a drop rule at the first hop.
	err := f.Switch(path[0]).TCAM().AddRule(dataplane.Rule{
		Priority: 10, Filter: dataplane.Filter{DstPort: 666}, Action: dataplane.ActDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Send(&p)
	loop.RunFor(time.Millisecond)
	if f.Delivered() != 0 || f.DroppedInFabric() != 1 {
		t.Fatalf("delivered=%d dropped=%d", f.Delivered(), f.DroppedInFabric())
	}
	// Downstream switches never saw the packet.
	for _, sw := range path[1:] {
		for port := 1; port <= f.NumPorts(sw); port++ {
			st, _ := f.Switch(sw).PortStats(port)
			if st.RxPackets != 0 {
				t.Fatalf("switch %v saw dropped packet", sw)
			}
		}
	}
}

func TestControlLatencyMonotoneInHops(t *testing.T) {
	f, _ := testFabric(t, 2, 2, 1)
	topo := f.Topology()
	var spine, leaf netmodel.SwitchID
	for _, s := range topo.Switches() {
		switch s.Role {
		case netmodel.Spine:
			spine = s.ID
		case netmodel.Leaf:
			leaf = s.ID
		}
	}
	// Central attaches at switch 0 (a spine): spine closer than leaf.
	if f.ControlLatency(spine) >= f.ControlLatency(leaf) && spine == netmodel.SwitchID(0) {
		t.Fatalf("central spine latency %v should be < leaf %v",
			f.ControlLatency(spine), f.ControlLatency(leaf))
	}
}

func TestSendToCentralMetersTraffic(t *testing.T) {
	f, loop := testFabric(t, 1, 2, 1)
	var leaf netmodel.SwitchID
	for _, s := range f.Topology().Switches() {
		if s.Role == netmodel.Leaf {
			leaf = s.ID
			break
		}
	}
	delivered := false
	f.SendToCentral(leaf, 256, func() { delivered = true })
	if f.CentralNet.Packets() != 1 || f.CentralNet.Bytes() != 256 {
		t.Fatalf("central meter = %d pkts, %d bytes", f.CentralNet.Packets(), f.CentralNet.Bytes())
	}
	if delivered {
		t.Fatal("delivery must be delayed")
	}
	loop.RunFor(10 * time.Millisecond)
	if !delivered {
		t.Fatal("message never delivered")
	}
	if f.CPU(leaf).Busy() == 0 {
		t.Fatal("serialization cost not charged")
	}
}

func TestSwitchToSwitchLatency(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 1)
	var leaves []netmodel.SwitchID
	for _, s := range f.Topology().Switches() {
		if s.Role == netmodel.Leaf {
			leaves = append(leaves, s.ID)
		}
	}
	var at time.Duration
	f.SendSwitchToSwitch(leaves[0], leaves[1], 64, func() { at = loop.Now() })
	loop.RunFor(10 * time.Millisecond)
	want := DefaultControlBaseLatency + 2*DefaultHopLatency // leaf-spine-leaf = 2 hops
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
	// Same-switch messages are cheaper.
	var local time.Duration
	start := loop.Now()
	f.SendSwitchToSwitch(leaves[0], leaves[0], 64, func() { local = loop.Now() - start })
	loop.RunFor(10 * time.Millisecond)
	if local >= want {
		t.Fatalf("local delivery %v not faster than remote %v", local, want)
	}
}
