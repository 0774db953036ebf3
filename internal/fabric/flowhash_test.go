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

// TestFlowHashMatchesFmt pins the allocation-free ECMP hash to the
// original fmt/fnv formulation byte for byte: if they ever diverge,
// path selection — and with it every experiment's output — would shift.
func TestFlowHashMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		k := dataplane.FlowKey{
			SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			DstIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP, dataplane.ProtoICMP, dataplane.ProtoAny, dataplane.Proto(rng.Intn(256))}[rng.Intn(5)],
		}
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", k)
		if want, got := h.Sum32(), flowHash(k); got != want {
			t.Fatalf("flow %v: hash %08x, fmt reference %08x", k, got, want)
		}
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
// per delivered packet: the drain is inside the timed region.
func BenchmarkFabricSend(b *testing.B) {
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
	pkts := make([]dataplane.Packet, 64)
	for i := range pkts {
		pkts[i] = dataplane.Packet{
			SrcIP: HostIP(i%4, i%4), DstIP: HostIP((i+1)%4, (i+2)%4),
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: dataplane.ProtoTCP, Size: 200,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.MustSend(pkts[i%len(pkts)])
		if i%1024 == 0 {
			loop.RunFor(10 * time.Millisecond) // drain cross-hop events
		}
	}
	loop.RunFor(time.Second)
	if got := fab.Delivered(); got != uint64(b.N) {
		b.Fatalf("delivered %d of %d packets", got, b.N)
	}
}
