package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/netmodel"
)

// flowHashReference is the ECMP hash as first written: FNV-1a through
// hash/fnv over the flow formatted by fmt, each address by its String.
func flowHashReference(k dataplane.FlowKey) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s:%d->%s:%d/%s", k.SrcIP, k.SrcPort, k.DstIP, k.DstPort, k.Proto)
	return h.Sum32()
}

// randomAddr draws an address of any class a routable flow can carry:
// IPv4 over the whole space, IPv6, IPv4-mapped IPv6, and IPv6 with a
// zone.
func randomAddr(rng *rand.Rand) netip.Addr {
	var b [16]byte
	rng.Read(b[:])
	v4 := [4]byte(b[12:])
	switch rng.Intn(5) {
	case 0:
		return netip.AddrFrom4([4]byte{10, v4[1], v4[2], v4[3]})
	case 1:
		return netip.AddrFrom4(v4)
	case 2:
		return netip.AddrFrom16(b)
	case 3:
		return netip.AddrFrom16(netip.AddrFrom4(v4).As16())
	}
	return netip.AddrFrom16(b).WithZone([]string{"eth0", "1", "lo"}[rng.Intn(3)])
}

// TestFlowHashMatchesFmt pins the allocation-free ECMP hash to the
// original fmt/fnv formulation byte for byte: if they ever diverge,
// path selection — and with it every experiment's output — would shift.
func TestFlowHashMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ports := []uint16{0, 9, 10, 99, 100, 9999, 10000, 65535}
	for i := 0; i < 20000; i++ {
		k := dataplane.FlowKey{
			SrcIP:   randomAddr(rng),
			DstIP:   randomAddr(rng),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: ports[rng.Intn(len(ports))],
			Proto:   []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP, dataplane.ProtoICMP, dataplane.ProtoAny, dataplane.Proto(rng.Intn(256))}[rng.Intn(5)],
		}
		if want, got := flowHashReference(k), flowHash(k); got != want {
			t.Fatalf("flow %v: hash %08x, fmt reference %08x", k, got, want)
		}
	}
}

// A flow whose hash is 2^31 or more selects paths[hash % len(paths)]: on
// a 32-bit target, int(hash) is negative there, and unless it is a
// multiple of len(paths) the index it made was out of range.
func TestECMPHighHashSelects(t *testing.T) {
	f, loop := testFabric(t, 3, 2, 1)
	p := dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
	h := uint32(0)
	for p.SrcPort = 1; h < 1<<31 || h%3 == 0; p.SrcPort++ {
		h = flowHash(p.Flow())
	}
	p.SrcPort--
	src, _ := f.Topology().HostByIP(p.SrcIP)
	dst, _ := f.Topology().HostByIP(p.DstIP)
	paths := f.Topology().Paths(src.Leaf, dst.Leaf)
	if len(paths) != 3 {
		t.Fatalf("%d paths between the leaves, want 3", len(paths))
	}
	got, err := f.PathFor(&p)
	if err != nil {
		t.Fatal(err)
	}
	if want := paths[h%3]; got[1] != want[1] {
		t.Fatalf("hash %08x: path through %d, want %d", h, got[1], want[1])
	}
	if err := f.Send(&p); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Millisecond)
	if f.Delivered() != 1 {
		t.Fatalf("delivered %d, want 1", f.Delivered())
	}
}

func TestFlowHashAllocationFree(t *testing.T) {
	k := dataplane.FlowKey{
		SrcIP:   netip.MustParseAddr("10.1.0.1"),
		DstIP:   netip.MustParseAddr("10.3.0.7"),
		SrcPort: 40000, DstPort: 443, Proto: dataplane.ProtoTCP,
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = flowHash(k) }); allocs != 0 {
		t.Fatalf("flowHash allocates %v per call, want 0", allocs)
	}
}

// BenchmarkFlowHash compares the seed's fmt+fnv ECMP hash with the
// allocation-free replacement on the packet path.
func BenchmarkFlowHash(b *testing.B) {
	k := dataplane.FlowKey{
		SrcIP:   netip.MustParseAddr("10.1.0.1"),
		DstIP:   netip.MustParseAddr("10.3.0.7"),
		SrcPort: 40000, DstPort: 443, Proto: dataplane.ProtoTCP,
	}
	b.Run("fmt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%v", k)
			_ = h.Sum32()
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = flowHash(k)
		}
	})
}

// BenchmarkFabricSend measures the full per-packet fabric path — ECMP
// selection plus multi-hop Inject through each switch's classifier —
// per delivered packet: the drain is inside the timed region. "warm"
// cycles 64 flows, so every probe after the first hits the flow caches;
// "fresh" is the port scan's shape, a new 5-tuple (the destination port
// advances) with every packet, so every probe misses.
func BenchmarkFabricSend(b *testing.B) {
	pkts := make([]dataplane.Packet, 64)
	for i := range pkts {
		pkts[i] = dataplane.Packet{
			SrcIP: HostIP(i%4, i%4), DstIP: HostIP((i+1)%4, (i+2)%4),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: dataplane.ProtoTCP, Size: 200,
		}
	}
	for _, mode := range []struct {
		name   string
		packet func(i int) *dataplane.Packet
	}{
		{"warm", func(i int) *dataplane.Packet { return &pkts[i%len(pkts)] }},
		{"fresh", func(i int) *dataplane.Packet {
			p := &pkts[i%len(pkts)]
			p.DstPort = uint16(1 + i%65535)
			return p
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 4})
			if err != nil {
				b.Fatal(err)
			}
			loop := engine.NewSerial()
			fab := New(topo, loop, Options{})
			// A monitoring rule on every switch, as deployed tasks would install.
			for _, sw := range topo.Switches() {
				if err := fab.Switch(sw.ID).TCAM().AddRule(dataplane.Rule{
					Priority: 1, Filter: dataplane.Filter{Proto: dataplane.ProtoTCP, DstPort: 80}, Action: dataplane.ActCount,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fab.Send(mode.packet(i)); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 0 {
					loop.RunFor(10 * time.Millisecond) // drain cross-hop events
				}
			}
			loop.RunFor(time.Second)
			if got := fab.Delivered(); got != uint64(b.N) {
				b.Fatalf("delivered %d of %d packets", got, b.N)
			}
		})
	}
}
