package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"farm/internal/metrics"
)

// benchRules builds a deterministic rule set spreading across all index
// bucket kinds, with priority ties, sized n.
func benchRules(n int) []Rule {
	rng := rand.New(rand.NewSource(1))
	rules := make([]Rule, 0, n)
	for len(rules) < n {
		var f Filter
		switch len(rules) % 5 {
		case 0:
			f.DstPort = uint16(8000 + len(rules))
		case 1:
			f.DstPort = uint16(80 + rng.Intn(4))
			f.Proto = ProtoTCP
		case 2:
			f.Proto = []Proto{ProtoTCP, ProtoUDP, ProtoICMP}[rng.Intn(3)]
			f.SrcPort = uint16(1 + rng.Intn(1000))
		case 3:
			f.InPort = 1 + rng.Intn(8)
			f.SrcPort = uint16(1 + rng.Intn(1000))
		case 4: // wildcard bucket
			f.SrcPrefix = pfx(fmt.Sprintf("10.%d.0.0/16", rng.Intn(200)))
		}
		rules = append(rules, Rule{Priority: rng.Intn(4), Filter: f, Action: ActCount})
	}
	return rules
}

// benchTraffic pre-generates a skewed packet trace: flows drawn from a
// pool with a power-law bias (a few flows dominate, as in real traffic)
// so the flow cache sees a realistic hit pattern.
func benchTraffic(flows, count int) ([]Packet, []int) {
	rng := rand.New(rand.NewSource(2))
	pool := make([]Packet, flows)
	ports := make([]int, flows)
	for i := range pool {
		pool[i] = Packet{
			SrcIP:   addr(fmt.Sprintf("10.%d.%d.%d", rng.Intn(200), rng.Intn(200), 1+rng.Intn(200))),
			DstIP:   addr(fmt.Sprintf("10.%d.%d.%d", rng.Intn(200), rng.Intn(200), 1+rng.Intn(200))),
			SrcPort: uint16(1024 + rng.Intn(30000)),
			DstPort: uint16(80 + rng.Intn(8)),
			Proto:   []Proto{ProtoTCP, ProtoUDP}[rng.Intn(2)],
			Size:    64 + rng.Intn(1400),
		}
		ports[i] = 1 + rng.Intn(8)
	}
	pkts := make([]Packet, count)
	inPorts := make([]int, count)
	for i := range pkts {
		idx := int(float64(flows) * math.Pow(rng.Float64(), 3)) // skew toward low indices
		pkts[i] = pool[idx]
		inPorts[i] = ports[idx]
	}
	return pkts, inPorts
}

// BenchmarkTCAMLookup measures classification ns/op, the bucketed index
// vs. the test oracle's linear scan, at growing table sizes under a
// skewed flow distribution.
func BenchmarkTCAMLookup(b *testing.B) {
	pkts, inPorts := benchTraffic(512, 4096)
	for _, mode := range []struct {
		name   string
		lookup func(t *TCAM, p Packet, inPort int) (Rule, bool)
	}{{"fast", (*TCAM).Lookup}, {"naive", lookupLinear}} {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/rules=%d", mode.name, n), func(b *testing.B) {
				tc := NewTCAM(n)
				for _, r := range benchRules(n) {
					if err := tc.AddRule(r); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % len(pkts)
					mode.lookup(tc, pkts[j], inPorts[j])
				}
			})
		}
	}
}

// BenchmarkSwitchInject measures the full per-packet ASIC pass (ports,
// TCAM, samplers), the fused flow-cached path vs. the test oracle's two
// linear scans.
func BenchmarkSwitchInject(b *testing.B) {
	pkts, inPorts := benchTraffic(512, 4096)
	for _, mode := range injectPaths {
		for _, n := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/rules=%d", mode.name, n), func(b *testing.B) {
				sw := NewSwitch("bench", 8, n, new(metrics.Switch))
				for _, r := range benchRules(n) {
					if err := sw.TCAM().AddRule(r); err != nil {
						b.Fatal(err)
					}
				}
				sink := 0
				sw.AddSampler(Filter{Proto: ProtoTCP}, func(Packet) { sink++ })
				sw.AddSampler(Filter{DstPort: 80}, func(Packet) { sink++ })
				sw.AddSampler(Filter{SrcPrefix: pfx("10.8.0.0/16")}, func(Packet) { sink++ })
				sw.AddSampler(Filter{FlagsSet: FlagSYN}, func(Packet) { sink++ })
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % len(pkts)
					mode.inject(sw, &pkts[j], inPorts[j], (j%7)+1)
				}
			})
		}
	}
}

// BenchmarkTCAMChurn measures management-path rule churn (install +
// remove) at a large table size — O(log n) splices vs. the seed's
// full re-sort per install and O(n) scans.
func BenchmarkTCAMChurn(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			tc := NewTCAM(n + 1)
			for _, r := range benchRules(n) {
				if err := tc.AddRule(r); err != nil {
					b.Fatal(err)
				}
			}
			f := Filter{DstPort: 29999}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.AddRule(Rule{Priority: i % 4, Filter: f, Action: ActCount}); err != nil {
					b.Fatal(err)
				}
				tc.RemoveRule(f)
			}
		})
	}
}
