package core

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"farm/internal/dataplane"
)

// Probe packets on the register VM: the soil lends the packet by pointer
// and the VM reads it in place, with address and protocol text interned,
// where the interpreter gets a boxed PacketVal and formats per read. The
// two must stay indistinguishable, and nothing of the lent packet may be
// left in the seed once the handler has returned.

// probeParitySource reads every packet field and keeps packets every
// way a seed can: machine and state variables (directly, through a
// local and as a function's result), lists, sends, map keys.
const probeParitySource = `
function srcPortOf(packet q) { return q.srcPort; }
function hold(packet q) { return q; }
machine Probe {
  place all;
  probe pkts = Probe { .ival = 1, .what = dstPort 80 };
  packet first; packet prev; packet remembered;
  map perPort; map perSrc;
  list kept;
  long n; long sum; long same; long flags; long ports;
  string text;
  bool seen;
  state s {
    when (pkts as p) do {
      n = n + 1;
      sum = sum + p.size + p.srcPort + p.dstPort;
      text = p.srcIP + ">" + p.dstIP + "/" + p.proto + " " + p.flow + " " + p.dnsQName;
      if (p.syn and not p.ack) then { flags = flags + 1; }
      if (p.fin or p.rst or p.dnsResponse or p.sshAuthFail or p.httpPartial) then { flags = flags + 10; }
      if (n == 1) then { first = p; }
      if (p == first) then { same = same + 1; }
      seen = list_contains(kept, p);
      perPort = map_set(perPort, p.dstPort, map_get(perPort, p.dstPort, 0) + 1);
      perSrc = map_set(perSrc, p.srcIP, map_get(perSrc, p.srcIP, 0) + p.size);
      if (map_get(perPort, p.dstPort, 0) == 3) then {
        kept = list_append(kept, p);
        send p to harvester;
      }
      packet q = p;
      ports = ports + srcPortOf(q);
      remembered = hold(q);
      if (n < 0) then { packet early = p; prev = early; }
      prev = q;
      if (n > 25) then { transit cool; }
    }
  }
  state cool {
    packet last; packet held;
    when (enter) do { send [prev, remembered] to harvester; }
    when (pkts as p) do {
      held = hold(p);
      if (n < 0) then { packet early = p; last = early; }
      last = p;
      send [p, p.size] to harvester;
      send str(p) to harvester;
      n = 0;
      transit s;
    }
  }
}
`

func randomPacket(rng *rand.Rand) PacketVal {
	p := PacketVal{
		SrcIP:   netip.AddrFrom4([4]byte{10, byte(rng.Intn(3)), 0, byte(rng.Intn(4))}),
		DstIP:   netip.AddrFrom4([4]byte{10, 9, 0, byte(rng.Intn(2))}),
		SrcPort: uint16(1000 + rng.Intn(4)),
		DstPort: []uint16{22, 53, 80, 443, 8080}[rng.Intn(5)],
		Proto:   []dataplane.Proto{dataplane.ProtoTCP, dataplane.ProtoUDP, dataplane.ProtoICMP, dataplane.ProtoAny, 47}[rng.Intn(5)],
		Flags:   dataplane.TCPFlags(rng.Intn(32)),
		Size:    64 + rng.Intn(1400),
	}
	switch rng.Intn(6) {
	case 0:
		p.App = dataplane.AppInfo{Kind: dataplane.AppDNS, DNSResponse: rng.Intn(2) == 0, DNSQName: fmt.Sprintf("q%d.example", rng.Intn(3))}
	case 1:
		p.App = dataplane.AppInfo{Kind: dataplane.AppSSH, SSHAuthFail: true}
	case 2:
		p.App = dataplane.AppInfo{Kind: dataplane.AppHTTP, HTTPPartial: true}
	case 3:
		p.SrcIP = netip.MustParseAddr("2001:db8::1")
	}
	return p
}

// deliverProbe hands one packet to every back end as the soil would:
// the register VM borrows it through a pointer whose target is
// overwritten as soon as the handler returns, the interpreter gets it
// boxed.
func deliverProbe(t *testing.T, p *backendSet, ctx, trigger string, pkt PacketVal) error {
	t.Helper()
	return p.do(t, ctx, func(r Runner) error {
		if _, vm := r.(*rvmSeed); !vm {
			return r.HandleTrigger(trigger, pkt)
		}
		lent := pkt
		err := r.HandleTrigger(trigger, &lent)
		lent = PacketVal{SrcPort: 0xdead, DstPort: 0xbeef, Size: -1}
		return err
	})
}

// assertNoLentPacket fails if a *PacketVal (rather than a PacketVal)
// is reachable from any of the values.
func assertNoLentPacket(t *testing.T, what string, vs ...any) {
	t.Helper()
	for _, v := range vs {
		switch x := v.(type) {
		case *PacketVal:
			t.Fatalf("%s holds a lent *PacketVal", what)
		case List:
			for _, e := range x {
				assertNoLentPacket(t, what, e)
			}
		case *MapVal:
			for _, k := range x.Keys() {
				e, _ := x.Get(k.(string))
				assertNoLentPacket(t, what, e)
			}
		case map[string]Value:
			for _, e := range x {
				assertNoLentPacket(t, what, e)
			}
		case map[string]map[string]Value:
			for _, e := range x {
				assertNoLentPacket(t, what, e)
			}
		}
	}
}

func TestProbePacketParity(t *testing.T) {
	cm := parityCompile(t, probeParitySource, "Probe")
	p := newBackendSet(t, cm, nil)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	rng := rand.New(rand.NewSource(2210))
	for i := 0; i < 600; i++ {
		ctx := fmt.Sprintf("probe %d", i)
		if err := deliverProbe(t, p, ctx, "pkts", randomPacket(rng)); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if i%17 == 0 {
			diffSet(t, p, ctx)
		}
		if i%97 == 0 {
			// Cross-restore, as the parity storm does: what the VM kept
			// of its packets must restore into the interpreter and back.
			snaps := []Snapshot{p.rs[0].Snapshot(), p.rs[1].Snapshot()}
			assertNoLentPacket(t, ctx+" snapshot", snaps[1].Env, snaps[1].StateVars)
			for j, r := range p.rs {
				if err := r.Restore(snaps[1-j]); err != nil {
					t.Fatalf("%s: cross-restore: %v", ctx, err)
				}
			}
			diffSet(t, p, ctx+" after cross-restore")
		}
	}
	diffSet(t, p, "final")
	if len(p.hs[1].sent) < 20 {
		t.Fatalf("weak storm: %d sends", len(p.hs[1].sent))
	}
	for _, m := range p.hs[1].sent {
		assertNoLentPacket(t, "send payload", m.v)
	}
	for _, name := range []string{"first", "prev", "remembered"} {
		v, _ := p.rs[1].Var(name)
		if pv, ok := v.(PacketVal); !ok || pv.SrcPort == 0xdead || pv.Size < 64 {
			t.Fatalf("%s reads as %T %v: not a private copy of a delivered packet", name, v, v)
		}
	}
}

// Error strings and odd uses of a packet: the handler body runs on one
// probe on both back ends.
func TestProbePacketSnippetParity(t *testing.T) {
	cases := []struct{ name, decls, body string }{
		{"unknown field", "long a;", "a = p.nosuch;"},
		{"condition", "long a;", "if (p) then { a = 1; }"},
		{"not", "bool a;", "a = not p;"},
		{"add", "long a;", "a = p + 1;"},
		{"compare", "bool a;", "a = p < 3;"},
		{"negate", "long a;", "a = -p;"},
		{"field assign", "long a;", "p.size = 3; a = p.size;"},
		{"filter and packet", "filter f;", "f = dstPort 80 and p;"},
		{"filter atom", "filter f;", "f = srcIP p;"},
		{"send destination", "", `send 1 to Probe @ p;`},
		{"list ops", "long a;", "a = list_len(p);"},
		{"map value", "map m; packet q;", `m = map_set(m, "k", p); q = map_get(m, "k", 0);`},
		{"map key", "map m; long a;", "m = map_set(m, p, 1); a = map_get(m, p, 0);"},
		{"equality", "bool a; bool b; bool c;", `a = p == p; b = p == 1; c = p <> "x";`},
		{"zero packet", "packet z; bool a;", "a = p == z;"},
		{"str and log", "string s;", "s = str(p); log_msg(p);"},
		{"exec argument", "string s;", `s = str(exec("cmd", p));`},
		{"interval", "", "pkts.ival = p;"},
		{"retrigger", "", "pkts = p;"},
		{"sketch condition", "list sk; long a;", "sk = sketch_new(64, 3); if (sk) then { a = 1; }"},
		{"distinct condition", "list d; long a;", "d = distinct_new(64); if (not d) then { a = 1; }"},
	}
	pkt := PacketVal{
		SrcIP: netip.MustParseAddr("10.0.0.1"), DstIP: netip.MustParseAddr("10.0.0.2"),
		SrcPort: 4242, DstPort: 80, Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN, Size: 100,
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			src := `
machine Probe {
  place all;
  probe pkts = Probe { .ival = 1, .what = dstPort 80 };
  ` + c.decls + `
  state s {
    when (pkts as p) do {
      ` + c.body + `
    }
  }
}
`
			cm := parityCompile(t, src, "Probe")
			p := newBackendSet(t, cm, nil)
			p.do(t, "start", func(r Runner) error { return r.Start() })
			deliverProbe(t, p, "probe", "pkts", pkt)
			diffSet(t, p, "after probe")
		})
	}
}

// TypeName names every value type, sketches and distinct counters
// included, and shows the Go type of anything it does not know.
func TestTypeNameCoversEveryValue(t *testing.T) {
	sk, err := builtins["sketch_new"](nil, []Value{int64(16), int64(2)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := builtins["distinct_new"](nil, []Value{int64(16)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		v    Value
		want string
	}{
		{sk, "sketch"}, {dc, "distinct"}, {PacketVal{}, "packet"},
		{struct{ X int }{}, "struct { X int }"}, {int32(1), "int32"},
	} {
		if got := TypeName(c.v); got != c.want {
			t.Errorf("TypeName(%T) = %q, want %q", c.v, got, c.want)
		}
		if got := typeNameR(unbox(c.v)); got != c.want {
			t.Errorf("typeNameR(%T) = %q, want %q", c.v, got, c.want)
		}
	}
	if _, err := Truthy(sk); err == nil || err.Error() != "core: sketch is not usable as a condition" {
		t.Fatalf("Truthy(sketch): %v", err)
	}
}

// The interned address text equals netip.Addr.String() and the table
// stays within its bound under a flood of fresh addresses.
func TestAddrTextBoundedAndExact(t *testing.T) {
	cm := parityCompile(t, probeParitySource, "Probe")
	prog, err := Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.NewRunner(nil, newMockHost())
	if err != nil {
		t.Fatal(err)
	}
	m := r.(*rvmSeed)
	if m.addrText != nil {
		t.Fatal("address table built before any address was read")
	}
	check := func(a netip.Addr) {
		t.Helper()
		for i := 0; i < 2; i++ { // a miss, then a hit
			if got := m.addrStr(a); got.k != rkStr || got.asStr() != a.String() {
				t.Fatalf("addrStr(%v) = %q, want %q", a, got.box(), a.String())
			}
		}
		if len(m.addrText) > maxAddrText {
			t.Fatalf("address table holds %d entries, bound is %d", len(m.addrText), maxAddrText)
		}
	}
	for _, s := range []string{"0.0.0.0", "255.255.255.255", "::", "2001:db8::1", "::ffff:10.0.0.1", "fe80::1%eth0"} {
		check(netip.MustParseAddr(s))
	}
	check(netip.Addr{})
	for i := 0; i < 10_000; i++ {
		check(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}))
	}
	if len(m.addrText) == 0 {
		t.Fatal("address table empty after 10 k reads")
	}
	// A repeated read is the interned box: no formatting, no allocation.
	a := netip.MustParseAddr("10.255.0.1")
	m.addrStr(a)
	if allocs := testing.AllocsPerRun(100, func() { m.addrStr(a) }); allocs != 0 {
		t.Fatalf("reading an interned address allocates %.1f", allocs)
	}
	pkt := PacketVal{Proto: 200}
	for proto := 0; proto < 256; proto++ {
		pkt.Proto = dataplane.Proto(proto)
		got, err := m.packetField(&pkt, "proto", 1)
		if err != nil || got.asStr() != pkt.Proto.String() {
			t.Fatalf("proto %d reads %q (%v), want %q", proto, got.box(), err, pkt.Proto.String())
		}
	}
}

// TestFlowTextBoundedAndExact: p.flow reads the flow's canonical text,
// interned per 5-tuple in a table with addrText's bound and wipe.
func TestFlowTextBoundedAndExact(t *testing.T) {
	cm := parityCompile(t, probeParitySource, "Probe")
	prog, err := Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.NewRunner(nil, newMockHost())
	if err != nil {
		t.Fatal(err)
	}
	m := r.(*rvmSeed)
	if m.flowText != nil {
		t.Fatal("flow table built before any flow was read")
	}
	check := func(p PacketVal) {
		t.Helper()
		want := dataplane.Packet(p).Flow().String()
		for i := 0; i < 2; i++ { // a miss, then a hit
			if got, err := m.packetField(&p, "flow", 1); err != nil || got.k != rkStr || got.asStr() != want {
				t.Fatalf("p.flow of %+v = %q (%v), want %q", p, got.box(), err, want)
			}
		}
		if len(m.flowText) > maxAddrText {
			t.Fatalf("flow table holds %d entries, bound is %d", len(m.flowText), maxAddrText)
		}
	}
	check(PacketVal{})
	check(PacketVal{SrcIP: netip.MustParseAddr("2001:db8::1"), DstIP: netip.MustParseAddr("fe80::1%eth0"), SrcPort: 65535, Proto: 200})
	for i := 0; i < 10_000; i++ {
		check(PacketVal{SrcIP: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), DstIP: netip.AddrFrom4([4]byte{10, 1, 0, 1}),
			SrcPort: uint16(i), DstPort: 80, Proto: dataplane.ProtoTCP})
	}
	if len(m.flowText) == 0 {
		t.Fatal("flow table empty after 10 k reads")
	}
	p := PacketVal{SrcIP: netip.MustParseAddr("10.9.9.9"), DstIP: netip.MustParseAddr("10.1.0.1"), DstPort: 443, Proto: dataplane.ProtoTCP}
	m.packetField(&p, "flow", 1)
	if allocs := testing.AllocsPerRun(100, func() { m.packetField(&p, "flow", 1) }); allocs != 0 {
		t.Fatalf("reading an interned flow allocates %.1f", allocs)
	}
}

// A long map key is its decimal text, the same for the natives, their
// boxed twins, keyString and FormatValue, over boundary and random values.
func TestMapLongKeysMatchFormatValue(t *testing.T) {
	keys := []int64{0, 1, -1, 9, 10, 99, 100, 255, 256, 65535, -65536, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		k := int64(rng.Uint64())
		keys = append(keys, k, k>>uint(rng.Intn(63)))
	}
	for _, k := range keys {
		want := FormatValue(k)
		if got := keyString(k); got != want {
			t.Fatalf("keyString(%d) = %q, FormatValue gives %q", k, got, want)
		}
		mv := NewMap()
		mref, key := rref(mv), rint(k)
		if _, err := nvMapSet(nil, []rval{mref, key, rint(7)}, 1); err != nil {
			t.Fatalf("map_set with long key %d: %v", k, err)
		}
		if v, ok := mv.Get(want); !ok || mv.Len() != 1 || v != int64(7) {
			t.Fatalf("map_set(%d) stored under %s, want key %q", k, FormatValue(mv), want)
		}
		if got, err := nvMapGet(nil, []rval{mref, key, rint(-1)}, 1); err != nil || got.i != 7 {
			t.Fatalf("map_get(%d) = %v (%v), want 7", k, got.box(), err)
		}
		if got, err := nvMapHas(nil, []rval{mref, key}, 1); err != nil || got.i != 1 {
			t.Fatalf("map_has(%d) = %v (%v), want true", k, got.box(), err)
		}
		// The boxed twin and a string key of the same text reach the same
		// entry.
		if got, _ := biMapGet(nil, []Value{mv, k, int64(-1)}, 1); got != int64(7) {
			t.Fatalf("boxed map_get(%d) = %v, want 7", k, got)
		}
		if got, _ := nvMapGet(nil, []rval{mref, rstr(want), rint(-1)}, 1); got.i != 7 {
			t.Fatalf("map_get(%q) = %v, want 7", want, got.box())
		}
		if _, err := nvMapDel(nil, []rval{mref, key}, 1); err != nil || mv.Len() != 0 {
			t.Fatalf("map_del(%d) left %s (%v)", k, FormatValue(mv), err)
		}
	}
	// Lookups build the key text on the stack.
	mv := NewMap()
	mv.Set("123456", int64(1))
	args := []rval{rref(mv), rint(123456), rint(0)}
	if allocs := testing.AllocsPerRun(100, func() {
		nvMapGet(nil, args, 1)
		nvMapHas(nil, args[:2], 1)
	}); allocs != 0 {
		t.Fatalf("map_get + map_has with a long key allocate %.1f, want 0", allocs)
	}
	// Every other key type is the text FormatValue gives it, natively and
	// through the boxed twins alike.
	for _, key := range []rval{rfloat(1.5), rbool(true), {k: rkNil}, rref(List{int64(1)})} {
		want := FormatValue(key.box())
		if _, err := nvMapSet(nil, []rval{rref(mv), key, rint(9)}, 1); err != nil {
			t.Fatalf("map_set with a %s key: %v", typeNameR(key), err)
		}
		if v, ok := mv.Get(want); !ok || v != int64(9) {
			t.Fatalf("map_set with a %s key: no entry %q in %s", typeNameR(key), want, FormatValue(mv))
		}
		if got, _ := biMapGet(nil, []Value{mv, key.box(), int64(-1)}, 1); got != int64(9) {
			t.Fatalf("boxed map_get with a %s key = %v, want 9", typeNameR(key), got)
		}
	}
	// A non-map fails with the boxed twin's error string.
	_, err := nvMapGet(nil, []rval{rint(1), rint(1), rint(0)}, 1)
	_, want := biMapGet(nil, []Value{int64(1), int64(1), int64(0)}, 1)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("map_get on a long: %v, want %v", err, want)
	}
}

// mapKeysSource keeps long, negative long, string, float and bool keys
// on one map; a long and the string of its digits are the same key.
const mapKeysSource = `
machine Keys {
  place all;
  poll tick = Poll { .ival = 10, .what = port ANY };
  map m;
  long hits; long sum;
  list ks;
  state s {
    when (tick as v) do {
      m = map_set(m, v, map_get(m, v, 0) + 1);
      m = map_set(m, str(v), map_get(m, str(v), 0) + 100);
      m = map_set(m, 0 - v * 1000, map_get(m, 0 - v * 1000, 0) + 1);
      m = map_set(m, v * 0.5, 1);
      m = map_set(m, v > 0, 2);
      if (map_has(m, v + 1)) then { hits = hits + 1; }
      if (map_has(m, str(v + 1))) then { hits = hits + 10; }
      sum = sum + map_get(m, v - 1, 0 - 1);
      if (v > 6) then { m = map_del(m, v - 6); }
      if (v < 0 - 6) then { m = map_del(m, str(v + 6)); }
      ks = map_keys(m);
    }
  }
}
`

func TestMapKeyParityStorm(t *testing.T) {
	cm := parityCompile(t, mapKeysSource, "Keys")
	p := newBackendSet(t, cm, nil)
	p.do(t, "start", func(r Runner) error { return r.Start() })
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := int64(rng.Intn(25) - 12)
		if i%50 == 0 {
			v = []int64{math.MaxInt64, math.MinInt64, 255, 256}[rng.Intn(4)]
		}
		ctx := fmt.Sprintf("step %d (v=%d)", i, v)
		if err := p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("tick", v) }); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if i%41 == 0 {
			diffSet(t, p, ctx)
		}
	}
	diffSet(t, p, "final")
}
