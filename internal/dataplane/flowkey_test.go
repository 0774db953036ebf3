package dataplane

import (
	"math/rand"
	"net/netip"
	"strconv"
	"testing"
	"unsafe"

	"farm/internal/metrics"
)

// flowTextReference is the canonical flow text spelled out through the
// standard library: netip.Addr.String, strconv and Proto.String. The
// zero Addr is the one address whose text differs — String says
// "invalid IP", AppendTo writes nothing — and the flow text has always
// followed AppendTo.
func flowTextReference(k FlowKey) string {
	addr := func(a netip.Addr) string {
		if !a.IsValid() {
			return ""
		}
		return a.String()
	}
	return addr(k.SrcIP) + ":" + strconv.Itoa(int(k.SrcPort)) + "->" +
		addr(k.DstIP) + ":" + strconv.Itoa(int(k.DstPort)) + "/" + k.Proto.String()
}

// fuzzAddr makes an address of the class kind selects from raw's first
// bytes: the zero Addr, IPv4, IPv6, IPv4-mapped IPv6, or IPv6 with
// zone (no zone when zone is empty).
func fuzzAddr(kind uint8, raw []byte, zone string) netip.Addr {
	var b [16]byte
	copy(b[:], raw)
	switch kind % 5 {
	case 1:
		return netip.AddrFrom4([4]byte(b[:4]))
	case 2:
		return netip.AddrFrom16(b)
	case 3:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	case 4:
		return netip.AddrFrom16(b).WithZone(zone)
	}
	return netip.Addr{}
}

// FuzzFlowKeyText holds FlowKey.AppendTo — its IPv4 fast path and its
// fallback alike — to the reference formulation, byte for byte, and
// checks that appending keeps what the buffer already held.
func FuzzFlowKeyText(f *testing.F) {
	octets := []byte{0, 9, 10, 99, 100, 255}
	ports := []uint16{0, 9, 10, 99, 100, 9999, 10000, 65535}
	for i, o := range octets {
		v4 := []byte{o, octets[(i+1)%len(octets)], octets[(i+2)%len(octets)], 255 - o}
		f.Add(uint8(1), v4, "", uint8(1), []byte{10, 0, 0, o}, "", ports[i], ports[len(ports)-1-i], uint8(ProtoTCP))
		f.Add(uint8(3), v4, "", uint8(1), v4, "", ports[i], ports[i+1], uint8(ProtoUDP))
	}
	v6 := netip.MustParseAddr("2001:db8::1").AsSlice()
	f.Add(uint8(2), v6, "", uint8(4), v6, "eth0", uint16(443), uint16(0), uint8(ProtoICMP))
	f.Add(uint8(0), []byte(nil), "", uint8(1), []byte{10, 1, 2, 3}, "", uint16(1), uint16(80), uint8(ProtoAny))
	f.Add(uint8(0), []byte(nil), "", uint8(0), []byte(nil), "", uint16(0), uint16(0), uint8(0))
	f.Add(uint8(4), []byte{0xfe, 0x80, 15: 1}, "", uint8(2), make([]byte, 16), "", uint16(65535), uint16(65535), uint8(255))
	for proto := 0; proto < 256; proto++ {
		f.Add(uint8(1), []byte{10, 0, 0, 1}, "", uint8(1), []byte{10, 0, 0, 2}, "", uint16(40000), uint16(80), uint8(proto))
	}
	f.Fuzz(func(t *testing.T, srcKind uint8, src []byte, srcZone string, dstKind uint8, dst []byte, dstZone string, sport, dport uint16, proto uint8) {
		k := FlowKey{
			SrcIP: fuzzAddr(srcKind, src, srcZone), DstIP: fuzzAddr(dstKind, dst, dstZone),
			SrcPort: sport, DstPort: dport, Proto: Proto(proto),
		}
		want := flowTextReference(k)
		if got := string(k.AppendTo(nil)); got != want {
			t.Fatalf("%#v: AppendTo %q, reference %q", k, got, want)
		}
		if got := string(k.AppendTo([]byte("x"))); got != "x"+want {
			t.Fatalf("%#v: AppendTo after a prefix %q, want %q", k, got, "x"+want)
		}
	})
}

// TestFlowKeyTextAllocationFree: an IPv4 flow renders into a
// FlowTextCap buffer without allocating, whatever its protocol name.
func TestFlowKeyTextAllocationFree(t *testing.T) {
	k := FlowKey{
		SrcIP: addr("255.255.255.255"), DstIP: addr("255.255.255.255"),
		SrcPort: 65535, DstPort: 65535,
	}
	var buf [FlowTextCap]byte
	for _, proto := range []Proto{ProtoTCP, ProtoUDP, ProtoICMP, ProtoAny} {
		k.Proto = proto
		if allocs := testing.AllocsPerRun(100, func() { _ = k.AppendTo(buf[:0]) }); allocs != 0 {
			t.Fatalf("%v: AppendTo allocates %v per call, want 0", k, allocs)
		}
	}
}

// flowKeyByAddr is the flow-cache key the fixed-width flowKey replaced:
// the two addresses as netip.Addr values, compared zone and all.
type flowKeyByAddr struct {
	flow   FlowKey
	flags  TCPFlags
	inPort int32
}

func flowKeyByAddrOf(p *Packet, inPort int) flowKeyByAddr {
	return flowKeyByAddr{flow: p.Flow(), flags: p.Flags, inPort: int32(inPort)}
}

// The key is plain memory: its size is the sum of its fields', so there
// is no padding for the map's hash and equality to step over.
func TestFlowKeyHasNoPadding(t *testing.T) {
	var k flowKey
	fields := unsafe.Sizeof(k.src) + unsafe.Sizeof(k.dst) +
		unsafe.Sizeof(k.srcPort) + unsafe.Sizeof(k.dstPort) + unsafe.Sizeof(k.inPort) +
		unsafe.Sizeof(k.proto) + unsafe.Sizeof(k.flags) +
		unsafe.Sizeof(k.srcClass) + unsafe.Sizeof(k.dstClass)
	if size := unsafe.Sizeof(k); size != fields || size != 44 {
		t.Fatalf("flowKey is %d bytes, its fields %d; want 44 and equal", size, fields)
	}
}

// Addresses that share their As16 bytes but not their class must not
// share a key: an IPv4 address and its IPv4-mapped twin, a zoned
// address and its unzoned twin.
func TestFlowKeyAddressClasses(t *testing.T) {
	twins := [][2]string{
		{"10.0.0.1", "::ffff:10.0.0.1"},
		{"2001:db8::1", "2001:db8::1%eth0"},
		{"::ffff:10.0.0.1", "::ffff:10.0.0.1%eth0"},
		{"0.0.0.0", "::ffff:0.0.0.0"},
	}
	for _, tw := range twins {
		p := pkt(tw[0], "10.9.9.9", 1, 80, ProtoTCP, 64)
		q := pkt(tw[1], "10.9.9.9", 1, 80, ProtoTCP, 64)
		if p.SrcIP.As16() != q.SrcIP.As16() {
			t.Fatalf("%s and %s are not twins", tw[0], tw[1])
		}
		if flowKeyOf(&p, 1) == flowKeyOf(&q, 1) {
			t.Errorf("%s and %s share a flow-cache key", tw[0], tw[1])
		}
		p.SrcIP, p.DstIP = p.DstIP, p.SrcIP
		q.SrcIP, q.DstIP = q.DstIP, q.SrcIP
		if flowKeyOf(&p, 1) == flowKeyOf(&q, 1) {
			t.Errorf("%s and %s share a flow-cache key as destinations", tw[0], tw[1])
		}
	}
	var zero Packet
	if k := flowKeyOf(&zero, 0); k.srcClass != classInvalid || k.dstClass != classInvalid {
		t.Fatalf("zero packet's key has classes %d, %d", k.srcClass, k.dstClass)
	}
}

// TestFlowKeyOracle: whenever two packets get equal keys, every filter
// of a random set matches both or neither — the invariant the cache
// rests on — across every address class, over prefixes of both
// families. And the key is no finer than the netip.Addr key it replaced
// except where that one told zones apart, which no filter can: equal old
// keys mean equal new keys.
func TestFlowKeyOracle(t *testing.T) {
	addrs := []string{
		"10.0.0.1", "10.0.0.2", "10.1.2.3", "0.0.0.0",
		"::ffff:10.0.0.1", "::ffff:10.1.2.3", "::ffff:10.0.0.1%eth0",
		"2001:db8::1", "2001:db8::1%eth0", "2001:db8::1%eth1", "fe80::1%eth0", "::",
	}
	pool := make([]netip.Addr, 0, len(addrs)+1)
	for _, s := range addrs {
		pool = append(pool, addr(s))
	}
	pool = append(pool, netip.Addr{})
	prefixes := []netip.Prefix{
		{}, pfx("10.0.0.0/8"), pfx("10.0.0.1/32"), pfx("0.0.0.0/0"),
		pfx("::ffff:10.0.0.0/104"), pfx("::/0"), pfx("2001:db8::/32"), pfx("fe80::/10"),
	}
	rng := rand.New(rand.NewSource(32))
	filters := make([]Filter, 200)
	for i := range filters {
		filters[i] = Filter{
			SrcPrefix: prefixes[rng.Intn(len(prefixes))],
			DstPrefix: prefixes[rng.Intn(len(prefixes))],
		}
		if rng.Intn(3) == 0 {
			filters[i].DstPort = uint16(79 + rng.Intn(2))
		}
		if rng.Intn(3) == 0 {
			filters[i].Proto = []Proto{ProtoTCP, ProtoUDP}[rng.Intn(2)]
		}
		if rng.Intn(4) == 0 {
			filters[i].FlagsSet = FlagSYN
		}
		if rng.Intn(4) == 0 {
			filters[i].InPort = 1 + rng.Intn(2)
		}
	}
	// redraw replaces each field of p, and its port, with chance 1 in
	// odds, so pairs share most of their fields and often all of them.
	redraw := func(p Packet, in, odds int) (Packet, int) {
		if rng.Intn(odds) == 0 {
			p.SrcIP = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(odds) == 0 {
			p.DstIP = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(odds) == 0 {
			p.DstPort = uint16(79 + rng.Intn(2))
		}
		if rng.Intn(odds) == 0 {
			p.Proto = []Proto{ProtoTCP, ProtoUDP}[rng.Intn(2)]
		}
		if rng.Intn(odds) == 0 {
			p.Flags ^= FlagSYN
		}
		if rng.Intn(odds) == 0 {
			in = 1 + rng.Intn(2)
		}
		p.Size = 64 + rng.Intn(1000)
		return p, in
	}
	equal, zoneOnly := 0, 0
	for i := 0; i < 100000; i++ {
		p, pin := redraw(Packet{SrcPort: 1000}, 1, 1)
		q, qin := redraw(p, pin, 4)
		if flowKeyByAddrOf(&p, pin) == flowKeyByAddrOf(&q, qin) && flowKeyOf(&p, pin) != flowKeyOf(&q, qin) {
			t.Fatalf("%+v in %d and %+v in %d: equal netip.Addr keys, different keys", p, pin, q, qin)
		}
		if flowKeyOf(&p, pin) != flowKeyOf(&q, qin) {
			continue
		}
		equal++
		if p.SrcIP != q.SrcIP || p.DstIP != q.DstIP {
			zoneOnly++
		}
		for _, f := range filters {
			if f.Match(&p, pin) != f.Match(&q, qin) {
				t.Fatalf("%+v in %d and %+v in %d share a key, but %v matches only one", p, pin, q, qin, f)
			}
		}
	}
	if equal < 1000 || zoneOnly < 10 {
		t.Fatalf("weak draw: %d equal-key pairs, %d differing only in a zone", equal, zoneOnly)
	}
}

// A drop rule on 10.0.0.0/8 drops an IPv4 packet and forwards its
// IPv4-mapped twin, sent back to back through one switch in either
// order: the flow cache never hands one the other's verdict.
func TestV4MappedTwinNotDropped(t *testing.T) {
	for _, v4First := range []bool{true, false} {
		sw := NewSwitch("sw", 2, 4, new(metrics.Switch))
		drop := Filter{SrcPrefix: pfx("10.0.0.0/8")}
		if err := sw.TCAM().AddRule(Rule{Priority: 1, Filter: drop, Action: ActDrop}); err != nil {
			t.Fatal(err)
		}
		v4 := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 64)
		mapped := pkt("::ffff:10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 64)
		for i := 0; i < 2; i++ {
			var v, w Verdict
			if v4First {
				v, w = injectFresh(sw, &v4, 1, 2), injectFresh(sw, &mapped, 1, 2)
			} else {
				w, v = injectFresh(sw, &mapped, 1, 2), injectFresh(sw, &v4, 1, 2)
			}
			// The rule counts the IPv4 packet alone: the twin matched no rule.
			if st, _ := sw.TCAM().Stats(drop); !v.Dropped || w.Dropped || st.Packets != uint64(i+1) {
				t.Fatalf("v4 first %v, round %d: IPv4 verdict %+v, mapped verdict %+v, rule counted %d",
					v4First, i, v, w, st.Packets)
			}
		}
		if st := sw.CacheStats(); st.Misses != 2 || st.Hits != 2 {
			t.Fatalf("v4 first %v: cache %+v, want one miss and one hit per packet", v4First, st)
		}
	}
}
