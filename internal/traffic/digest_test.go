package traffic

import (
	"testing"
	"time"

	"farm/internal/dataplane"
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

// FuzzTailFold holds a flow's one-step tail fold to the byte loop it
// replaces: for any digest state — the fuzzed high bytes under each of
// the 256 low bytes — any flow text, up to and past FlowTextCap, and
// any size, flags and app kind, tailFold.fold(h) equals foldTail(h).
func FuzzTailFold(f *testing.F) {
	f.Add(uint64(digestOffset), []byte("10.0.0.1:1->10.1.0.1:80/tcp"), int64(100), byte(dataplane.FlagSYN), byte(0))
	f.Add(uint64(0), []byte{}, int64(0), byte(0), byte(0))
	f.Add(^uint64(0), make([]byte, dataplane.FlowTextCap), int64(-1), byte(0xff), byte(0xff))
	f.Add(uint64(1)<<63, make([]byte, dataplane.FlowTextCap+1), int64(1)<<40, byte(0x12), byte(dataplane.AppDNS))
	f.Add(uint64(0x0123456789abcdef), []byte("[fe80::1%eth0]:65535->[::ffff:10.0.0.1]:0/proto(255)"), int64(3000), byte(0), byte(dataplane.AppHTTP))
	f.Fuzz(func(t *testing.T, h uint64, text []byte, size int64, flags, kind byte) {
		if len(text) > 4*dataplane.FlowTextCap {
			return
		}
		p := dataplane.Packet{Size: int(size), Flags: dataplane.TCPFlags(flags), App: dataplane.AppInfo{Kind: dataplane.AppKind(kind)}}
		tail := newTailFold(&p, text)
		for lo := uint64(0); lo < 256; lo++ {
			at := h&^0xff | lo
			if got, want := tail.fold(at), foldTail(at, &p, text); got != want {
				t.Fatalf("h %#x, %d-byte text %q: table fold %#x, byte loop %#x", at, len(text), text, got, want)
			}
		}
	})
}
