package dataplane

import (
	"fmt"
	"net/netip"
	"testing"
)

// fuzzFilter maps two bytes onto the filter shapes genFilter draws:
// every index bucket kind, prefixes, ports, flags and their mixes.
func fuzzFilter(a, b byte) Filter {
	var f Filter
	switch a % 6 {
	case 0:
		f.DstPort = uint16(80 + b%3)
		if b&4 != 0 {
			f.Proto = ProtoTCP
		}
	case 1:
		f.Proto = []Proto{ProtoTCP, ProtoUDP, ProtoICMP}[b%3]
		if b&4 != 0 {
			f.FlagsSet = FlagSYN
		}
	case 2:
		f.InPort = 1 + int(b%3)
	case 3:
		f.SrcPrefix = pfx([]string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "::ffff:10.0.0.0/104"}[b%4])
	case 4:
		if b&1 == 0 {
			f.SrcPort = uint16(1000 + int(b%3))
		} else {
			f.FlagsSet = FlagSYN | FlagACK
		}
	case 5:
		f.DstPort = uint16(80 + b%3)
		f.DstPrefix = pfx("10.2.0.0/16")
	}
	return f
}

// fuzzPacket maps three bytes onto a packet and its ingress port, over
// IPv4 sources and their IPv4-mapped twins, so distinct keys that a
// sloppy key would merge share the cache.
func fuzzPacket(a, b, c byte) (Packet, int) {
	srcs := []string{"10.1.1.4", "10.1.2.9", "10.2.0.7", "::ffff:10.1.1.4"}
	p := Packet{
		SrcIP:   addr(srcs[a%4]),
		DstIP:   addr([]string{"10.2.1.1", "10.0.9.9"}[a>>2%2]),
		SrcPort: uint16(1000 + int(b%4)),
		DstPort: uint16(79 + b>>2%5),
		Proto:   []Proto{ProtoTCP, ProtoUDP, ProtoICMP, ProtoAny}[c%4],
		Flags:   []TCPFlags{0, FlagSYN, FlagSYN | FlagACK, FlagFIN}[c>>2%4],
		Size:    64 + int(c),
	}
	return p, int(a >> 3 % 4)
}

// oracleWorld is one switch under the fuzz program: the production path
// or the linear oracle, with the log of every sampler delivery. A world
// with a key injects through InjectKey, with the key built once per
// packet and carried across its in-ports.
type oracleWorld struct {
	sw       *Switch
	inject   func(s *Switch, p *Packet, inPort, outPort int) Verdict
	key      *Key
	removes  []func()
	fired    []string // "sampler/packet" in delivery order
	injected int
}

func (w *oracleWorld) addSampler(f Filter, oneInN int) {
	id := len(w.removes)
	w.removes = append(w.removes, w.sw.AddSampler(f, oneInN, func(Packet) {
		w.fired = append(w.fired, fmt.Sprintf("%d/%d", id, w.injected))
	}))
}

// FuzzInjectOracle runs an arbitrary program of packets, rule churn and
// sampler churn on the fused InjectKey path, with the key built per
// call, and on the linear oracle, followed by a storm of more distinct flows than the flow cache
// has slots, interleaved with repeats of the program's last flows. Each
// packet visits one or more in-ports in turn, as it would the switches of
// a path; a third world injects it through InjectKey with one key built
// per packet, as the fabric does. All three must agree on every verdict
// and, after every packet, on the rules and their counters; at the end,
// on the sampler deliveries in order, the port counters and the drop
// count, and the keyed world must hit and miss the flow cache exactly as
// the world that builds a key per call.
func FuzzInjectOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 9, 4, 1, 2, 3, 2, 0, 1, 4, 5, 6, 7})
	f.Add([]byte{2, 3, 7, 0, 0, 2, 1, 4, 9, 9, 9, 5, 200, 1, 0, 3, 4, 4, 4, 4, 5, 3})
	f.Add([]byte{0, 9, 3, 0, 2, 0, 0, 0, 1, 4, 1, 2, 3, 3, 0, 4, 1, 2, 3, 5, 255})
	f.Add([]byte{4, 1, 2, 3, 2, 3, 0, 0, 4, 1, 2, 3})                 // a sampler added over a cached flow
	f.Add([]byte{0, 2, 0, 4, 2, 2, 1, 0, 196, 9, 1, 2, 197, 0, 5, 6}) // in-port rule and sampler, packets over four in-ports
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			return // the storm is what exercises eviction, not length
		}
		build := func(inject func(s *Switch, p *Packet, inPort, outPort int) Verdict) *oracleWorld {
			return &oracleWorld{sw: NewSwitch("sw", 4, 12), inject: inject}
		}
		fast, slow, keyed := build(injectFresh), build(injectLinear), build(nil)
		keyed.key = new(Key)
		worlds := []*oracleWorld{fast, slow, keyed}
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		// send injects p at each hop's (inPort, outPort) in turn.
		send := func(p *Packet, hops ...hopPorts) {
			*keyed.key = KeyOf(p)
			for _, hp := range hops {
				var v [3]Verdict
				for i, w := range worlds {
					w.injected++
					if w.key != nil {
						v[i] = w.sw.InjectKey(p, w.key, hp.in, hp.out)
					} else {
						v[i] = w.inject(w.sw, p, hp.in, hp.out)
					}
				}
				if !sameVerdict(v[0], v[1], fast.sw, slow.sw) || !sameVerdict(v[2], v[1], keyed.sw, slow.sw) {
					t.Fatalf("packet %d %+v in %d: verdict fast %+v, keyed %+v, linear %+v", fast.injected, *p, hp.in, v[0], v[2], v[1])
				}
			}
		}
		var recent []Packet // the program's packets, replayed in the storm
		var recentHops [][]hopPorts
		for len(prog) > 0 {
			switch op := next(); op % 6 {
			case 0:
				a, b, c := next(), next(), next()
				r := Rule{Priority: int(c % 4), Filter: fuzzFilter(a, b), Action: []Action{ActAllow, ActDrop, ActCount}[c>>2%3]}
				for _, w := range worlds {
					_ = w.sw.TCAM().AddRule(r)
				}
			case 1:
				a, b := next(), next()
				for _, w := range worlds {
					w.sw.TCAM().RemoveRule(fuzzFilter(a, b))
				}
			case 2:
				a, b, c := next(), next(), next()
				for _, w := range worlds {
					w.addSampler(fuzzFilter(a, b), 1+int(c%4))
				}
			case 3:
				i := int(next())
				for _, w := range worlds {
					if len(w.removes) > 0 {
						w.removes[i%len(w.removes)]()
					}
				}
			case 4, 5:
				p, in := fuzzPacket(next(), next(), next())
				hops := []hopPorts{{in, int(op >> 3 % 5)}}
				for n := op >> 6; n > 0; n-- { // up to three more in-ports
					hops = append(hops, hopPorts{(hops[len(hops)-1].in + 1) % 5, int(n)})
				}
				send(&p, hops...)
				recent, recentHops = append(recent, p), append(recentHops, hops)
			}
		}
		// The storm: a fresh source port and destination per packet,
		// every other packet a repeat of the program's flows.
		for i := 0; i < 2*flowCacheSlots+1; i++ {
			if i%2 == 1 && len(recent) > 0 {
				j := i / 2 % len(recent)
				send(&recent[j], recentHops[j]...)
				continue
			}
			p, in := fuzzPacket(byte(i), byte(i>>8), byte(i>>4))
			p.SrcPort = uint16(2000 + i)
			p.DstIP = netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)})
			send(&p, hopPorts{in, 1}, hopPorts{in%4 + 1, 2})
		}
		if fast.sw.CacheStats().Misses <= flowCacheSlots {
			t.Fatalf("cache %+v: the storm did not overflow the slots", fast.sw.CacheStats())
		}
		if fc, kc := fast.sw.CacheStats(), keyed.sw.CacheStats(); fc != kc {
			t.Fatalf("cache: key per call %+v, key per packet %+v", fc, kc)
		}
		agreeWithOracle(t, "fast", fast, slow)
		agreeWithOracle(t, "keyed", keyed, slow)
	})
}

// hopPorts are the ports of one visit of a packet to the switch.
type hopPorts struct{ in, out int }

// agreeWithOracle fails t unless w and the linear world slow hold the
// same drop count, port counters, rules and rule counters, and sampler
// deliveries.
func agreeWithOracle(t *testing.T, name string, w, slow *oracleWorld) {
	t.Helper()
	if w.sw.Dropped() != slow.sw.Dropped() {
		t.Fatalf("dropped: %s %d, linear %d", name, w.sw.Dropped(), slow.sw.Dropped())
	}
	for port := 0; port <= 4; port++ {
		if ws, ss := w.sw.ports[port], slow.sw.ports[port]; ws != ss {
			t.Fatalf("port %d: %s %+v, linear %+v", port, name, ws, ss)
		}
	}
	wr, sr := w.sw.TCAM().Rules(), slow.sw.TCAM().Rules()
	if len(wr) != len(sr) {
		t.Fatalf("rules: %s %d, linear %d", name, len(wr), len(sr))
	}
	for i := range wr {
		ws, _ := w.sw.TCAM().Stats(wr[i].Filter)
		ss, _ := slow.sw.TCAM().Stats(sr[i].Filter)
		if wr[i] != sr[i] || ws != ss {
			t.Fatalf("rule %d: %s %+v %+v, linear %+v %+v", i, name, wr[i], ws, sr[i], ss)
		}
	}
	if len(w.fired) != len(slow.fired) {
		t.Fatalf("sampler deliveries: %s %d, linear %d", name, len(w.fired), len(slow.fired))
	}
	for i := range w.fired {
		if w.fired[i] != slow.fired[i] {
			t.Fatalf("sampler delivery %d: %s %s, linear %s", i, name, w.fired[i], slow.fired[i])
		}
	}
}
