package farm_test

import (
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/traffic"
)

// runWorkloadScenario drives the full attack-scenario cocktail — SYN
// flood, port scan (stopped mid-run), super-spreader, DNS reflection,
// SSH brute force, Slowloris, plus a background flow per leaf — on a
// 2-spine/12-leaf fabric for simFor of virtual time. It returns the
// generator's per-ingress-leaf emission digests and the delivered-packet
// count.
func runWorkloadScenario(tb testing.TB, simFor time.Duration) (digests map[netmodel.SwitchID]uint64, delivered uint64) {
	tb.Helper()
	const leaves = 12
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: leaves, HostsPerLeaf: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.NewSerial()
	fab := fabric.New(topo, eng, fabric.Options{})
	gen := traffic.NewGenerator(fab, 11)
	victim := fabric.HostIP(0, 0)
	stopScan := gen.PortScan(fabric.HostIP(1, 0), victim, 2000)
	stops := []func(){
		gen.SYNFlood(victim, 12, 6000),
		gen.SuperSpreader(fabric.HostIP(2, 1), 16, 3000),
		gen.DNSReflection(victim, 6, 3000),
		gen.SSHBruteForce(fabric.HostIP(3, 2), fabric.HostIP(0, 1), 500),
		gen.Slowloris(fabric.HostIP(4, 3), 16, 50),
	}
	for i := 0; i < leaves; i++ {
		stops = append(stops, gen.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(i, 4), Dst: fabric.HostIP((i+1)%leaves, 4),
			SrcPort: uint16(10000 + i), DstPort: 80, PacketSize: 400, Rate: 800,
		}))
	}
	eng.RunFor(simFor / 2)
	stopScan()
	eng.RunFor(simFor - simFor/2)
	for _, s := range stops {
		s()
	}
	return gen.PerSwitchDigest(), fab.Delivered()
}

// TestWorkloadDigestsPinned is the traffic generator's determinism gate
// at fabric scale: the attack cocktail for 2 s must emit, leaf for leaf,
// the digests and deliver the packets recorded when the serial engine
// became the only simulator (the sharded executor matched them at 4 and
// 16 workers before it was removed).
func TestWorkloadDigestsPinned(t *testing.T) {
	want := map[netmodel.SwitchID]uint64{
		2:  0x4c879f13464c05c3,
		3:  0x5a93a3f6ee2f9a79,
		4:  0x93d0dbb74092d700,
		5:  0x176ff8a0404c21f0,
		6:  0xe4cb2bccc91d8b85,
		7:  0x44c07d6241bfa96d,
		8:  0xccc09b351c3f8dbb,
		9:  0x7af27fce213dc0d4,
		10: 0x6d4dc4aab3e14b3e,
		11: 0xbe9142b3d866ba52,
		12: 0x336cafd8b2c6006b,
		13: 0x53d29d5bc1e78f51,
	}
	const wantDelivered = 47682
	got, delivered := runWorkloadScenario(t, 2*time.Second)
	if delivered != wantDelivered {
		t.Errorf("%d packets delivered, want %d", delivered, wantDelivered)
	}
	if len(got) != len(want) {
		t.Fatalf("%d leaves emitted, want %d", len(got), len(want))
	}
	for id, h := range want {
		if got[id] != h {
			t.Errorf("switch %d emission digest %#016x, want %#016x", id, got[id], h)
		}
	}
	t.Logf("%d leaves, %d delivered", len(got), delivered)
}

// BenchmarkWorkload measures pure traffic generation on the serial
// engine.
func BenchmarkWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, delivered := runWorkloadScenario(b, time.Second)
		b.ReportMetric(float64(delivered), "delivered")
	}
}
