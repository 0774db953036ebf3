package traffic

import (
	"testing"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// runScenarioMix drives the full attack-scenario cocktail plus plain
// flows on the serial engine and returns the generator's per-switch
// emission digests and the delivered-packet count. One scenario (the
// port scan) is stopped halfway through the run: cancellation from the
// driving goroutine is part of what the digests pin.
func runScenarioMix(t *testing.T) (map[netmodel.SwitchID]uint64, uint64) {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: 2, Leaves: 6, HostsPerLeaf: 4})
	if err != nil {
		t.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	g := NewGenerator(fab, 42)

	victim := fabric.HostIP(0, 0)
	stopScan := g.PortScan(fabric.HostIP(1, 0), victim, 2000)
	stops := []func(){
		g.SYNFlood(victim, 8, 4000),
		g.SuperSpreader(fabric.HostIP(2, 1), 12, 2000),
		g.DNSReflection(victim, 5, 2000),
		g.SSHBruteForce(fabric.HostIP(3, 2), fabric.HostIP(0, 1), 400),
		g.Slowloris(fabric.HostIP(4, 3), 10, 40),
		g.StartFlow(FlowSpec{
			Src: fabric.HostIP(5, 0), Dst: fabric.HostIP(0, 2),
			SrcPort: 9000, DstPort: 80, PacketSize: 200, Rate: 1500,
		}),
	}
	loop.RunFor(150 * time.Millisecond)
	stopScan() // mid-run cancellation of one scenario
	loop.RunFor(150 * time.Millisecond)
	for _, stop := range stops {
		stop()
	}
	return g.PerSwitchDigest(), fab.Delivered()
}

// TestGeneratorDigestPinned is the generator's determinism gate: the
// scenario mix must reproduce, leaf for leaf, the emission digests and
// the delivered count recorded when the serial engine became the only
// simulator (they equal what the sharded executor produced at every
// worker count before it was removed). A change that moves them changes
// what the generator emits.
func TestGeneratorDigestPinned(t *testing.T) {
	want := map[netmodel.SwitchID]uint64{
		2: 0xb162c3fc5e42a2cb,
		3: 0xcb22720efee6dbe1,
		4: 0xef144efab8ac3262,
		5: 0x5f17bcf1daedd45f,
		6: 0x62dcad091d50b5c9,
		7: 0xfb940382d57d056b,
	}
	const wantDelivered = 3384
	got, delivered := runScenarioMix(t)
	if delivered != wantDelivered {
		t.Errorf("delivered %d packets, want %d", delivered, wantDelivered)
	}
	if len(got) != len(want) {
		t.Fatalf("%d leaves emitted, want %d", len(got), len(want))
	}
	for leaf, h := range want {
		if got[leaf] != h {
			t.Errorf("leaf %d digest %#x, want %#x", leaf, got[leaf], h)
		}
	}
}

// TestGeneratorDigestSameSeedReproduces pins run-to-run reproducibility
// (the cheaper, more local property).
func TestGeneratorDigestSameSeedReproduces(t *testing.T) {
	a, _ := runScenarioMix(t)
	b, _ := runScenarioMix(t)
	if len(a) != len(b) {
		t.Fatalf("leaf sets differ: %d vs %d", len(a), len(b))
	}
	for leaf, h := range a {
		if b[leaf] != h {
			t.Errorf("leaf %d digest differs across identical runs", leaf)
		}
	}
}
