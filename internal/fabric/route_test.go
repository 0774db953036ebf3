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
