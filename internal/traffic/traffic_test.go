package traffic

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// Burst sends n packets of the flow at once, through the emission path
// the flows use.
func (g *Generator) Burst(spec FlowSpec, n int) {
	d := g.ingress(spec.Src)
	pkt := spec.packet()
	text := pkt.Flow().AppendTo(nil)
	r := g.resolve(&pkt)
	for i := 0; i < n; i++ {
		g.inject(d, &pkt, text, r)
	}
}

func testFabric(t *testing.T, spines, leaves, hosts int) *fabric.Fabric {
	t.Helper()
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return fabric.New(topo, engine.NewSerial(), fabric.Options{})
}

func TestStartFlowRate(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 1)
	stop := g.StartFlow(FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: 100, Rate: 1000,
	})
	fab.Sched().RunFor(100 * time.Millisecond)
	stop()
	// 1000 pkt/s for 100 ms = ~100 packets (jittered).
	if d := fab.Delivered(); d < 80 || d > 120 {
		t.Fatalf("delivered = %d, want ~100", d)
	}
	n := fab.Delivered()
	fab.Sched().RunFor(100 * time.Millisecond)
	if fab.Delivered() > n+1 {
		t.Fatal("flow kept sending after stop")
	}
}

// Once a StartFlow flow is warm — its flow text rendered, its path and
// flow-cache entries filled, its hop record and events pooled — an
// emission allocates nothing: digest fold, send and delivery alike. The
// flow's jitter still lands events in timing-wheel slots that have never
// held so many, and growing such a slot's array is the engine's rare,
// amortized cost; measured per emission, it rounds to 0, while a
// per-emission allocation anywhere on the path does not.
func TestStartFlowEmissionAllocs(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 1)
	stop := g.StartFlow(FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: 100, Rate: 1000,
	})
	defer stop()
	fab.Sched().RunFor(2 * time.Second)
	leaf, _ := fab.Topology().HostByIP(fabric.HostIP(0, 0))
	before, digest := fab.Delivered(), g.PerSwitchDigest()[leaf.Leaf]
	// 1 ms per run is one emission on average, at 1000 packets/s.
	if allocs := testing.AllocsPerRun(500, func() { fab.Sched().RunFor(time.Millisecond) }); allocs != 0 {
		t.Fatalf("a warm emission allocates %v times, want 0", allocs)
	}
	if got := fab.Delivered() - before; got < 400 {
		t.Fatalf("delivered %d packets in 501 ms of a 1000 pkt/s flow", got)
	}
	if after := g.PerSwitchDigest()[leaf.Leaf]; after == digest {
		t.Fatal("emission digest unchanged: the emissions were not folded")
	}
}

func TestBurst(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 1)
	g.Burst(FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 1, DstPort: 80, Proto: dataplane.ProtoTCP,
		PacketSize: 100, Rate: 1,
	}, 25)
	fab.Sched().RunFor(time.Millisecond)
	if fab.Delivered() != 25 {
		t.Fatalf("delivered = %d, want 25", fab.Delivered())
	}
}

// A mistyped address must be visible: the fabric refuses the packets,
// whether the bad end is the source (no leaf, so no digest cell) or the
// destination, and its Send names the end it could not place.
func TestRejectedInjectionsAreCounted(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 1)
	good := FlowSpec{Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0), SrcPort: 1, DstPort: 80, PacketSize: 100, Rate: 1}
	badSrc, badDst := good, good
	badSrc.Src = fabric.HostIP(9, 9)
	badDst.Dst = fabric.HostIP(9, 9)
	g.Burst(good, 5)
	g.Burst(badSrc, 3)
	g.Burst(badDst, 4)
	fab.Sched().RunFor(time.Millisecond)
	if got := fab.Delivered(); got != 5 {
		t.Fatalf("delivered = %d, want 5", got)
	}
	for _, c := range []struct {
		spec FlowSpec
		want error
	}{{badSrc, fabric.ErrUnknownSource}, {badDst, fabric.ErrUnknownDestination}} {
		p := c.spec.packet()
		if err := fab.Send(&p); !errors.Is(err, c.want) {
			t.Fatalf("Send from %v to %v: err = %v, want %v", c.spec.Src, c.spec.Dst, err, c.want)
		}
	}
	// A flow from nowhere keeps ticking beside a good one and delivers
	// nothing.
	badSrc.Rate, good.Rate = 1000, 1000
	stopBad, stopGood := g.StartFlow(badSrc), g.StartFlow(good)
	fab.Sched().RunFor(50 * time.Millisecond)
	stopBad()
	stopGood()
	if got := fab.Delivered() - 5; got < 25 || got > 75 {
		t.Fatalf("delivered %d packets in 50 ms of a 1000 pkt/s flow beside an unroutable one", got)
	}
}

func TestSYNFlood(t *testing.T) {
	fab := testFabric(t, 1, 3, 4)
	g := NewGenerator(fab, 2)
	target := fabric.HostIP(0, 0)
	stop := g.SYNFlood(target, 8, 4000)
	fab.Sched().RunFor(50 * time.Millisecond)
	stop()
	// The target's leaf saw SYNs to the victim.
	host, _ := fab.Topology().HostByIP(target)
	port, _ := fab.HostPort(host.Leaf, host.ID)
	st, _ := fab.Switch(host.Leaf).PortStats(port)
	if st.TxPackets < 100 {
		t.Fatalf("victim port saw %d packets, want >= 100", st.TxPackets)
	}
}

func TestPortScanAdvancesPorts(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 3)
	seen := map[uint16]bool{}
	dstHost, _ := fab.Topology().HostByIP(fabric.HostIP(1, 0))
	fab.Switch(dstHost.Leaf).AddSampler(dataplane.Filter{}, func(p dataplane.Packet) {
		seen[p.DstPort] = true
	})
	stop := g.PortScan(fabric.HostIP(0, 0), fabric.HostIP(1, 0), 1000)
	fab.Sched().RunFor(50 * time.Millisecond)
	stop()
	if len(seen) < 40 {
		t.Fatalf("scanned %d distinct ports, want >= 40", len(seen))
	}
}

func TestSuperSpreaderFanout(t *testing.T) {
	fab := testFabric(t, 1, 4, 4)
	g := NewGenerator(fab, 4)
	src := fabric.HostIP(0, 0)
	dsts := map[string]bool{}
	for _, s := range fab.Topology().Switches() {
		if s.Role != netmodel.Leaf {
			continue
		}
		fab.Switch(s.ID).AddSampler(dataplane.Filter{}, func(p dataplane.Packet) {
			if p.SrcIP == src {
				dsts[p.DstIP.String()] = true
			}
		})
	}
	stop := g.SuperSpreader(src, 10, 2000)
	fab.Sched().RunFor(50 * time.Millisecond)
	stop()
	if len(dsts) < 10 {
		t.Fatalf("spreader reached %d destinations, want >= 10", len(dsts))
	}
}

func TestDNSReflectionMarksResponses(t *testing.T) {
	fab := testFabric(t, 1, 2, 2)
	g := NewGenerator(fab, 5)
	victim := fabric.HostIP(0, 0)
	var dnsSeen int
	host, _ := fab.Topology().HostByIP(victim)
	fab.Switch(host.Leaf).AddSampler(dataplane.Filter{}, func(p dataplane.Packet) {
		if p.DstIP == victim && p.App.Kind == dataplane.AppDNS && p.App.DNSResponse {
			dnsSeen++
		}
	})
	stop := g.DNSReflection(victim, 4, 2000)
	fab.Sched().RunFor(50 * time.Millisecond)
	stop()
	if dnsSeen < 50 {
		t.Fatalf("saw %d DNS responses, want >= 50", dnsSeen)
	}
}

func TestSSHBruteForceFlags(t *testing.T) {
	fab := testFabric(t, 1, 2, 1)
	g := NewGenerator(fab, 6)
	var fails int
	dst := fabric.HostIP(1, 0)
	host, _ := fab.Topology().HostByIP(dst)
	fab.Switch(host.Leaf).AddSampler(dataplane.Filter{DstPort: 22}, func(p dataplane.Packet) {
		if p.App.SSHAuthFail {
			fails++
		}
	})
	stop := g.SSHBruteForce(fabric.HostIP(0, 0), dst, 1000)
	fab.Sched().RunFor(50 * time.Millisecond)
	stop()
	if fails < 40 {
		t.Fatalf("saw %d failed auths, want >= 40", fails)
	}
}

func TestSlowloris(t *testing.T) {
	fab := testFabric(t, 1, 2, 4)
	g := NewGenerator(fab, 7)
	dst := fabric.HostIP(1, 0)
	partial := 0
	host, _ := fab.Topology().HostByIP(dst)
	fab.Switch(host.Leaf).AddSampler(dataplane.Filter{DstPort: 80}, func(p dataplane.Packet) {
		if p.App.HTTPPartial {
			partial++
		}
	})
	stop := g.Slowloris(dst, 10, 100)
	fab.Sched().RunFor(100 * time.Millisecond)
	stop()
	if partial < 50 {
		t.Fatalf("saw %d partial requests, want >= 50", partial)
	}
}

func TestBulkWorkloadDrivesCounters(t *testing.T) {
	fab := testFabric(t, 1, 2, 4)
	w := NewBulkWorkload(fab, BulkConfig{
		Tick: time.Millisecond, BaseRate: 1e5, HeavyRate: 1e8,
		HeavyRatio: 0.25, Seed: 1,
	})
	if w.NumPorts() != 8 {
		t.Fatalf("driven ports = %d, want 8", w.NumPorts())
	}
	heavy := w.HeavyPorts()
	if len(heavy) != 2 {
		t.Fatalf("heavy ports = %d, want 2 (25%% of 8)", len(heavy))
	}
	fab.Sched().RunFor(100 * time.Millisecond)
	w.Stop()
	// Heavy ports must accumulate ~1000x the bytes of base ports.
	heavySet := map[[2]int]bool{}
	for _, h := range heavy {
		heavySet[[2]int{int(h.Switch), h.Port}] = true
	}
	for _, h := range fab.Topology().Hosts() {
		port, _ := fab.HostPort(h.Leaf, h.ID)
		st, _ := fab.Switch(h.Leaf).PortStats(port)
		isHeavy := heavySet[[2]int{int(h.Leaf), port}]
		if isHeavy && st.TxBytes < 5e6 {
			t.Fatalf("heavy port %v/%d only %d bytes", h.Leaf, port, st.TxBytes)
		}
		if !isHeavy && st.TxBytes > 1e5 {
			t.Fatalf("base port %v/%d has %d bytes", h.Leaf, port, st.TxBytes)
		}
	}
}

func TestBulkWorkloadChurn(t *testing.T) {
	fab := testFabric(t, 1, 4, 8)
	w := NewBulkWorkload(fab, BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.25,
		Churn: 50 * time.Millisecond, Seed: 2,
	})
	before := w.HeavyPorts()
	fab.Sched().RunFor(300 * time.Millisecond)
	after := w.HeavyPorts()
	w.Stop()
	if len(before) != len(after) {
		t.Fatalf("heavy count changed: %d -> %d", len(before), len(after))
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("churn did not re-pick the heavy set")
	}
}

// TestBulkHeavyMaskPerEpoch: the heavy flags each switch's churn ticker
// copies out of the epoch's shared mask are what a recomputation of the
// mask for that switch gives, at every epoch, and HeavyPorts lists the
// same ports as the mask it is computed from.
func TestBulkHeavyMaskPerEpoch(t *testing.T) {
	fab := testFabric(t, 1, 4, 8)
	const churn = 50 * time.Millisecond
	w := NewBulkWorkload(fab, BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.25,
		Churn: churn, Seed: 3,
	})
	defer w.Stop()
	seenSets := map[string]bool{}
	for step := 0; step < 12; step++ {
		epoch := w.epochAt(fab.Sched().Now())
		on := heavyMask(w.seed, epoch, len(w.ports), w.ratio)
		for _, bs := range w.switches {
			for j, i := range bs.idx {
				if bs.heavy[j] != on[i] {
					t.Fatalf("epoch %d switch %v port %d: heavy = %v, a recomputation says %v", epoch, bs.id, w.ports[i].Port, bs.heavy[j], on[i])
				}
			}
		}
		var want []PortLoad
		for i, heavy := range on {
			if heavy {
				p := w.ports[i]
				p.BytesPerSec = w.HeavyRate
				want = append(want, p)
			}
		}
		got := w.HeavyPorts()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("epoch %d: HeavyPorts = %v, want %v", epoch, got, want)
		}
		seenSets[fmt.Sprint(got)] = true
		// Mid-epoch, then past the next churn instant.
		fab.Sched().RunFor(churn/2 + time.Duration(step%2)*churn)
	}
	if len(seenSets) < 4 {
		t.Fatalf("%d distinct heavy sets over the run: churn did not move them", len(seenSets))
	}
}

// heavySetBySort is the ranking heavyMask replaced, verbatim: sort every
// port by (hash, index) and take the first ratio*N.
func heavySetBySort(seed, epoch int64, n int, ratio float64) []int {
	k := int(ratio * float64(n))
	if k <= 0 {
		return nil
	}
	key := bulkMix(uint64(seed), uint64(epoch))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := bulkMix(key, uint64(order[a])), bulkMix(key, uint64(order[b]))
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	return order[:k]
}

// TestHeavyMaskMatchesSort pins the selection to the full sort it
// replaced over random (seed, epoch, N, ratio), and selectKth — whose
// tie handling hashed keys never exercise — on slices full of
// duplicates.
func TestHeavyMaskMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		seed, epoch := rng.Int63(), int64(rng.Intn(1000))
		n, ratio := rng.Intn(400), rng.Float64()
		if trial%10 == 0 {
			ratio = []float64{0, 1, 0.05}[trial/10%3]
		}
		want := make([]bool, n)
		for _, i := range heavySetBySort(seed, epoch, n, ratio) {
			want[i] = true
		}
		got := heavyMask(seed, epoch, n, ratio)
		if len(got) != n {
			t.Fatalf("seed %d epoch %d n %d ratio %g: mask of %d ports", seed, epoch, n, ratio, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d epoch %d n %d ratio %g: port %d heavy = %v, sort says %v", seed, epoch, n, ratio, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		a := make([]uint64, 1+rng.Intn(60))
		for i := range a {
			a[i] = uint64(rng.Intn(8))
		}
		sorted := append([]uint64(nil), a...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		k := rng.Intn(len(a))
		if got := selectKth(append([]uint64(nil), a...), k); got != sorted[k] {
			t.Fatalf("selectKth(%v, %d) = %d, want %d", a, k, got, sorted[k])
		}
	}
}

func TestStartFlowPanicsOnBadRate(t *testing.T) {
	fab := testFabric(t, 1, 1, 1)
	g := NewGenerator(fab, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.StartFlow(FlowSpec{Rate: 0})
}

// NumPorts returns the number of driven ports.
func (w *BulkWorkload) NumPorts() int { return len(w.ports) }
