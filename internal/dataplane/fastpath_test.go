package dataplane

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"farm/internal/metrics"
)

// Lookup returns the highest-priority matching rule for the packet,
// resolved through the bucketed rule index the switch classifies with,
// and counts the match.
func (t *TCAM) Lookup(p Packet, inPort int) (Rule, bool) {
	e := t.index.lookup(&p, inPort)
	if e == nil {
		return Rule{}, false
	}
	e.stats.Packets++
	e.stats.Bytes += uint64(p.Size)
	return e.rule, true
}

// lookupReference is a non-mutating linear scan that validates Lookup's
// priority semantics.
func (t *TCAM) lookupReference(p Packet, inPort int) (Rule, bool) {
	best := -1
	for i, e := range t.entries {
		if !e.rule.Filter.Match(&p, inPort) {
			continue
		}
		if best == -1 ||
			e.rule.Priority > t.entries[best].rule.Priority ||
			(e.rule.Priority == t.entries[best].rule.Priority && e.seq < t.entries[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return Rule{}, false
	}
	return t.entries[best].rule, true
}

// genFilter draws a filter from a small structured pool so that every
// index bucket kind (dport/proto/inport/wildcard), replacement (filter
// collisions) and priority ties all occur frequently.
func genFilter(rng *rand.Rand) Filter {
	var f Filter
	switch rng.Intn(6) {
	case 0: // dport bucket
		f.DstPort = uint16(80 + rng.Intn(3))
		if rng.Intn(2) == 0 {
			f.Proto = ProtoTCP
		}
	case 1: // proto bucket
		f.Proto = []Proto{ProtoTCP, ProtoUDP, ProtoICMP}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			f.FlagsSet = FlagSYN
		}
	case 2: // inport bucket
		f.InPort = 1 + rng.Intn(3)
	case 3: // wildcard bucket: prefix-only
		f.SrcPrefix = pfx([]string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24"}[rng.Intn(3)])
	case 4: // wildcard bucket: sport/flags-only
		if rng.Intn(2) == 0 {
			f.SrcPort = uint16(1000 + rng.Intn(3))
		} else {
			f.FlagsSet = FlagSYN | FlagACK
		}
	case 5: // combined, dport bucket with prefix
		f.DstPort = uint16(80 + rng.Intn(3))
		f.DstPrefix = pfx("10.2.0.0/16")
	}
	return f
}

func genPacket(rng *rand.Rand) (Packet, int) {
	srcs := []string{"10.1.1.4", "10.1.2.9", "10.2.0.7", "10.3.3.3"}
	p := Packet{
		SrcIP:   addr(srcs[rng.Intn(len(srcs))]),
		DstIP:   addr([]string{"10.2.1.1", "10.0.9.9"}[rng.Intn(2)]),
		SrcPort: uint16(1000 + rng.Intn(4)),
		DstPort: uint16(79 + rng.Intn(5)), // includes ports no rule names
		Proto:   []Proto{ProtoTCP, ProtoUDP, ProtoICMP, ProtoAny}[rng.Intn(4)],
		Size:    64 + rng.Intn(1400),
	}
	if rng.Intn(3) == 0 {
		p.Flags = []TCPFlags{FlagSYN, FlagSYN | FlagACK, FlagFIN}[rng.Intn(3)]
	}
	return p, rng.Intn(4) // inPort 0..3: 0 exercises the "no inport" path
}

// checkTCAMInvariants verifies the incremental structures agree with
// each other after arbitrary churn: entries strictly match-ordered,
// byFilter and the bucket index holding exactly the live entries, and
// every entry in the bucket its filter maps to.
func checkTCAMInvariants(t *testing.T, tc *TCAM) {
	t.Helper()
	for i := 1; i < len(tc.entries); i++ {
		if !entryLess(tc.entries[i-1], tc.entries[i]) {
			t.Fatalf("entries out of match order at %d", i)
		}
	}
	if len(tc.byFilter) != len(tc.entries) {
		t.Fatalf("byFilter size %d != entries %d", len(tc.byFilter), len(tc.entries))
	}
	indexed := 0
	for k, bucket := range tc.index.buckets {
		if len(bucket) == 0 {
			t.Fatalf("empty bucket %v retained", k)
		}
		for i, e := range bucket {
			if bucketFor(e.rule.Filter) != k {
				t.Fatalf("entry %v in wrong bucket %v", e.rule.Filter, k)
			}
			if i > 0 && !entryLess(bucket[i-1], e) {
				t.Fatalf("bucket %v out of match order", k)
			}
			if tc.byFilter[e.rule.Filter] != e {
				t.Fatalf("bucket entry %v not live in byFilter", e.rule.Filter)
			}
			indexed++
		}
	}
	if indexed != len(tc.entries) {
		t.Fatalf("index holds %d entries, table %d", indexed, len(tc.entries))
	}
}

// lookupLinear and injectLinear are the pre-index, pre-flow-cache
// classifier — first match in the match-ordered entry list, then a
// second scan over every sampler — kept here as the oracle the indexed,
// flow-cached production path is checked against. They mutate the same
// counters Lookup and InjectKey do.
func lookupLinear(t *TCAM, p Packet, inPort int) (Rule, bool) {
	if e := entryLinear(t, &p, inPort); e != nil {
		return e.rule, true
	}
	return Rule{}, false
}

func entryLinear(t *TCAM, p *Packet, inPort int) *tcamEntry {
	for _, e := range t.entries {
		if e.rule.Filter.Match(p, inPort) {
			e.stats.Packets++
			e.stats.Bytes += uint64(p.Size)
			return e
		}
	}
	return nil
}

func injectLinear(s *Switch, p *Packet, inPort, outPort int) Verdict {
	if inPort >= 1 && inPort < len(s.ports) {
		s.ports[inPort].RxPackets++
		s.ports[inPort].RxBytes += uint64(p.Size)
	}
	var v Verdict
	if e := entryLinear(s.tcam, p, inPort); e != nil {
		if e.rule.Action == ActDrop {
			v.Dropped = true
			s.m.RuleDrops++
		}
	}
	for _, sm := range s.samplers {
		if !sm.removed && sm.Filter.Match(p, inPort) {
			sm.fn(*p)
		}
	}
	if !v.Dropped && outPort >= 1 && outPort < len(s.ports) {
		s.ports[outPort].TxPackets++
		s.ports[outPort].TxBytes += uint64(p.Size)
	}
	return v
}

// injectFresh is the production inject path for a caller that carries
// no key: p's key is built for this call, then InjectKey.
func injectFresh(s *Switch, p *Packet, inPort, outPort int) Verdict {
	k := KeyOf(p)
	return s.InjectKey(p, &k, inPort, outPort)
}

// injectPaths names the production inject path and its oracle for tests
// that pin a behaviour on both.
var injectPaths = []struct {
	name   string
	inject func(s *Switch, p *Packet, inPort, outPort int) Verdict
}{
	{"fast", injectFresh},
	{"naive", injectLinear},
}

// TestTCAMFastPathProperty interleaves rule churn with lookups and pins
// the bucketed index to the lookupReference oracle across >= 10k
// randomized steps, including replacements at capacity and priority
// ties.
func TestTCAMFastPathProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	tc := NewTCAM(16)
	lookups, churn := 0, 0
	for step := 0; step < 12000; step++ {
		switch rng.Intn(8) {
		case 0, 1:
			r := Rule{
				Priority: rng.Intn(4), // few levels: ties are common
				Filter:   genFilter(rng),
				Action:   []Action{ActAllow, ActDrop, ActCount}[rng.Intn(3)],
				Note:     fmt.Sprintf("r%d", step),
			}
			if err := tc.AddRule(r); err != nil && tc.Size() < tc.Capacity() {
				t.Fatalf("step %d: AddRule: %v", step, err)
			}
			churn++
		case 2:
			// Replacement targeting an installed filter — exercised at
			// capacity too, where plain adds fail.
			if len(tc.entries) > 0 {
				e := tc.entries[rng.Intn(len(tc.entries))]
				r := Rule{Priority: rng.Intn(4), Filter: e.rule.Filter, Action: ActRateLimit, Note: fmt.Sprintf("repl%d", step)}
				if err := tc.AddRule(r); err != nil {
					t.Fatalf("step %d: replace: %v", step, err)
				}
				churn++
			}
		case 3:
			if len(tc.entries) > 0 && rng.Intn(2) == 0 {
				tc.RemoveRule(tc.entries[rng.Intn(len(tc.entries))].rule.Filter)
			} else {
				tc.RemoveRule(genFilter(rng)) // often a miss
			}
			churn++
		default:
			p, inPort := genPacket(rng)
			want, wantOK := tc.lookupReference(p, inPort)
			got, gotOK := tc.Lookup(p, inPort)
			if gotOK != wantOK || got != want {
				t.Fatalf("step %d: Lookup = %+v,%v; reference = %+v,%v", step, got, gotOK, want, wantOK)
			}
			lookups++
		}
		if step%500 == 0 {
			checkTCAMInvariants(t, tc)
		}
	}
	checkTCAMInvariants(t, tc)
	if lookups < 5000 || churn < 2000 {
		t.Fatalf("weak interleaving: %d lookups, %d churn ops", lookups, churn)
	}
}

// sameVerdict reports whether two switches that were handed the same
// packet agree on it: the same drop, and the same rules with the same
// counters, so the same rule, if any, counted the packet.
func sameVerdict(v, w Verdict, a, b *Switch) bool {
	if v != w || len(a.tcam.entries) != len(b.tcam.entries) {
		return false
	}
	for i, e := range a.tcam.entries {
		if f := b.tcam.entries[i]; e.rule != f.rule || e.stats != f.stats {
			return false
		}
	}
	return true
}

// overwrote reports whether a valid slot's key changed between two
// waysOf copies of the same slots: one flow evicted another.
func overwrote(before, after [2]flowSlot) bool {
	for i := range before {
		if before[i].valid && after[i].key != before[i].key {
			return true
		}
	}
	return false
}

// waysOf copies the two slots p's key may live in (zero slots before the
// switch's first packet).
func waysOf(s *Switch, p *Packet, inPort int) [2]flowSlot {
	if s.flowCache == nil {
		return [2]flowSlot{}
	}
	k := flowKeyOf(p, inPort)
	a, b := s.flowCache.ways(&k)
	return [2]flowSlot{*a, *b}
}

// TestSwitchFastPathEquivalence drives two switches — the production
// fused path vs. the linear oracle — through an identical schedule of
// packets, rule churn and sampler churn, and requires byte-identical
// observable behaviour: verdicts, per-rule counters, sampler delivery
// sequences, port counters and drop counts. The packets span more
// flows than the cache has slots, so flows evict each other.
func TestSwitchFastPathEquivalence(t *testing.T) {
	const samplers = 4
	type world struct {
		sw      *Switch
		inject  func(s *Switch, p *Packet, inPort, outPort int) Verdict
		fired   [samplers][]int // packet indices delivered per sampler
		removes [samplers]func()
		last    Verdict
		evicted int // injects that overwrote another flow's slot
	}
	build := func(path int) *world {
		w := &world{sw: NewSwitch("sw", 4, 12, new(metrics.Switch)), inject: injectPaths[path].inject}
		filters := []Filter{{}, {DstPort: 80}, {Proto: ProtoUDP}, {SrcPrefix: pfx("10.1.0.0/16")}}
		for i := 0; i < samplers; i++ {
			i := i
			w.removes[i] = w.sw.AddSampler(filters[i], func(Packet) {
				w.fired[i] = append(w.fired[i], len(w.fired[i]))
			})
		}
		return w
	}
	fastW, slowW := build(0), build(1)

	rng := rand.New(rand.NewSource(99))
	var ops []func(w *world) // one schedule, applied to both worlds
	for i := 0; i < 6000; i++ {
		switch rng.Intn(10) {
		case 0:
			r := Rule{Priority: rng.Intn(3), Filter: genFilter(rng), Action: []Action{ActAllow, ActDrop, ActCount}[rng.Intn(3)]}
			ops = append(ops, func(w *world) { _ = w.sw.TCAM().AddRule(r) })
		case 1:
			f := genFilter(rng)
			ops = append(ops, func(w *world) { w.sw.TCAM().RemoveRule(f) })
		case 2:
			if rng.Intn(10) == 0 { // rare: sampler removal mid-stream
				idx := rng.Intn(samplers)
				ops = append(ops, func(w *world) { w.removes[idx]() })
			}
		default:
			p, inPort := genPacket(rng)
			outPort := rng.Intn(4)
			ops = append(ops, func(w *world) {
				before := waysOf(w.sw, &p, inPort)
				w.last = w.inject(w.sw, &p, inPort, outPort)
				if overwrote(before, waysOf(w.sw, &p, inPort)) {
					w.evicted++
				}
			})
		}
	}
	for i, op := range ops {
		fastW.last, slowW.last = Verdict{}, Verdict{}
		op(slowW)
		op(fastW)
		if !sameVerdict(fastW.last, slowW.last, fastW.sw, slowW.sw) {
			t.Fatalf("op %d: verdict fast %+v, linear %+v", i, fastW.last, slowW.last)
		}
	}

	if fastW.sw.m.RuleDrops != slowW.sw.m.RuleDrops {
		t.Fatalf("dropped: fast %d, linear %d", fastW.sw.m.RuleDrops, slowW.sw.m.RuleDrops)
	}
	for port := 1; port <= 4; port++ {
		fs, _ := fastW.sw.PortStats(port)
		ss, _ := slowW.sw.PortStats(port)
		if fs != ss {
			t.Fatalf("port %d stats diverged: %+v vs %+v", port, fs, ss)
		}
	}
	fr, sr := fastW.sw.TCAM().Rules(), slowW.sw.TCAM().Rules()
	if len(fr) != len(sr) {
		t.Fatalf("rule counts diverged: %d vs %d", len(fr), len(sr))
	}
	for i := range fr {
		if fr[i] != sr[i] {
			t.Fatalf("rule %d diverged: %+v vs %+v", i, fr[i], sr[i])
		}
		fst, _ := fastW.sw.TCAM().Stats(fr[i].Filter)
		sst, _ := slowW.sw.TCAM().Stats(sr[i].Filter)
		if fst != sst {
			t.Fatalf("rule %v counters diverged: %+v vs %+v", fr[i].Filter, fst, sst)
		}
	}
	for i := 0; i < samplers; i++ {
		if len(fastW.fired[i]) != len(slowW.fired[i]) {
			t.Fatalf("sampler %d deliveries diverged: %d vs %d", i, len(fastW.fired[i]), len(slowW.fired[i]))
		}
	}
	if st := fastW.sw.CacheStats(); st.Hits == 0 || fastW.evicted == 0 {
		t.Fatalf("fused flow cache: %+v, %d evictions; want hits and evictions", st, fastW.evicted)
	}
}

func TestFlowCacheInvalidationOnChurn(t *testing.T) {
	sw := NewSwitch("sw", 2, 8, new(metrics.Switch))
	tc := sw.TCAM()
	low := Rule{Priority: 1, Filter: Filter{Proto: ProtoTCP}, Action: ActAllow, Note: "low"}
	if err := tc.AddRule(low); err != nil {
		t.Fatal(err)
	}
	p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100)
	// inject sends p and names the rules whose packet counter it moved.
	inject := func() (Verdict, string) {
		before := map[string]uint64{}
		for _, r := range tc.Rules() {
			st, _ := tc.Stats(r.Filter)
			before[r.Note] = st.Packets
		}
		v := injectFresh(sw, &p, 1, 2)
		var moved []string
		for _, r := range tc.Rules() {
			if st, _ := tc.Stats(r.Filter); st.Packets != before[r.Note] {
				moved = append(moved, r.Note)
			}
		}
		return v, strings.Join(moved, ",")
	}
	if v, moved := inject(); v.Dropped || moved != "low" {
		t.Fatalf("verdict = %+v, counted by %q", v, moved)
	}
	// Warm cache, then install a higher-priority rule for the same flow:
	// the next packet must see it despite the cached verdict.
	high := Rule{Priority: 9, Filter: Filter{DstPort: 80}, Action: ActDrop, Note: "high"}
	if err := tc.AddRule(high); err != nil {
		t.Fatal(err)
	}
	if v, moved := inject(); !v.Dropped || moved != "high" {
		t.Fatalf("post-churn verdict = %+v, counted by %q; cache not invalidated", v, moved)
	}
	// Removal invalidates too.
	tc.RemoveRule(high.Filter)
	if v, moved := inject(); v.Dropped || moved != "low" {
		t.Fatalf("post-remove verdict = %+v, counted by %q", v, moved)
	}
	if tc.gen != 3 {
		t.Fatalf("generation = %d, want 3 (two installs + one removal)", tc.gen)
	}
	if st := sw.CacheStats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("cache stats = %+v, want every probe invalidated by churn", st)
	}
}

// TestFlowCacheFreshTuplesAllocFree: once a switch has seen a packet,
// its flow cache is a fixed table. Ten times as many fresh 5-tuples as
// it has slots — each a miss that overwrites a slot — allocate nothing.
func TestFlowCacheFreshTuplesAllocFree(t *testing.T) {
	sw := NewSwitch("sw", 2, 4, new(metrics.Switch))
	_ = sw.TCAM().AddRule(Rule{Priority: 1, Filter: Filter{Proto: ProtoTCP}})
	sw.AddSampler(Filter{DstPort: 80}, func(Packet) {})
	p := pkt("10.0.0.1", "10.0.0.2", 0, 80, ProtoTCP, 64)
	injectFresh(sw, &p, 1, 2)
	const tuples = 10 * flowCacheSlots
	n := 0
	allocs := testing.AllocsPerRun(1, func() { // one warm-up run, one measured
		for i := 0; i < tuples; i++ {
			n++
			p.SrcPort = uint16(n)
			p.DstIP = netip.AddrFrom4([4]byte{10, 1, byte(n >> 8), byte(n)})
			injectFresh(sw, &p, 1, 2)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations for %d fresh tuples, want 0", allocs, tuples)
	}
	if st := sw.CacheStats(); st.Hits != 0 || st.Misses != 2*tuples+1 {
		t.Fatalf("cache %+v, want a miss per packet", st)
	}
}

// TestStatsIsByExactFilter: the soil polls a rule by its exact filter,
// and Stats answers with that rule's own counters even where another
// installed filter is broader or narrower.
func TestStatsIsByExactFilter(t *testing.T) {
	tc := NewTCAM(8)
	broad := Filter{Proto: ProtoTCP}
	narrow := Filter{Proto: ProtoTCP, DstPort: 80}
	_ = tc.AddRule(Rule{Priority: 2, Filter: narrow, Action: ActCount})
	_ = tc.AddRule(Rule{Priority: 1, Filter: broad, Action: ActCount})
	tc.Lookup(pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 100), 1) // narrow wins
	tc.Lookup(pkt("10.0.0.1", "10.0.0.2", 1, 443, ProtoTCP, 50), 1) // broad wins
	if st, ok := tc.Stats(broad); !ok || st.Packets != 1 || st.Bytes != 50 {
		t.Fatalf("broad = %+v, %v, want the broad rule's own counters", st, ok)
	}
	if st, ok := tc.Stats(narrow); !ok || st.Packets != 1 || st.Bytes != 100 {
		t.Fatalf("narrow = %+v, %v", st, ok)
	}
	if _, ok := tc.Stats(Filter{Proto: ProtoUDP}); ok {
		t.Fatal("Stats answered for a filter no rule has")
	}
}

func TestFilterKeyCachedAndAllocationFree(t *testing.T) {
	f := Filter{SrcPrefix: pfx("10.77.0.0/16"), DstPort: 8080, Proto: ProtoTCP, FlagsSet: FlagSYN, InPort: 2}
	want := "src=10.77.0.0/16;dport=8080;proto=6;flags=2;in=2"
	if got := f.Key(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	// After the first call the key is cached: repeated calls allocate
	// nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		if f.Key() != want {
			t.Fatal("cached key changed")
		}
	}); allocs != 0 {
		t.Fatalf("cached Key allocates %v per call, want 0", allocs)
	}
	if (Filter{}).Key() != "any" {
		t.Fatal("zero filter key")
	}
}

// Only matching packets are sampled, each one of them, across
// interleaved matching and non-matching packets.
func TestSamplerCadenceInterleaved(t *testing.T) {
	for _, path := range injectPaths {
		sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
		var got []uint16
		sw.AddSampler(Filter{DstPort: 80}, func(p Packet) { got = append(got, p.SrcPort) })
		var want []uint16
		matching := 0
		for i := 0; i < 30; i++ {
			if i%2 == 0 { // even injections match; odd ones must not be sampled
				matching++
				want = append(want, uint16(matching))
				path.inject(sw, ref(pkt("10.0.0.1", "10.0.0.2", uint16(matching), 80, ProtoTCP, 64)), 1, 2)
			} else {
				path.inject(sw, ref(pkt("10.0.0.1", "10.0.0.2", uint16(1000+i), 443, ProtoTCP, 64)), 1, 2)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: sampled %v, want %v", path.name, got, want)
		}
	}
}

// Satellite: removal via the returned remove func mid-stream stops
// delivery immediately and leaves other samplers firing — including
// when the removal happens after the flow cache is warm.
func TestSamplerRemoveMidStream(t *testing.T) {
	for _, path := range injectPaths {
		sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
		var a, b int
		removeA := sw.AddSampler(Filter{}, func(Packet) { a++ })
		sw.AddSampler(Filter{}, func(Packet) { b++ })
		p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 64)
		for i := 0; i < 10; i++ { // warm the flow cache
			path.inject(sw, &p, 1, 2)
		}
		if a != 10 || b != 10 {
			t.Fatalf("%s: pre-removal a=%d b=%d, want 10, 10", path.name, a, b)
		}
		removeA()
		removeA() // double removal is a no-op
		for i := 0; i < 10; i++ {
			path.inject(sw, &p, 1, 2)
		}
		if a != 10 {
			t.Fatalf("%s: removed sampler fired: a=%d", path.name, a)
		}
		if b != 20 {
			t.Fatalf("%s: surviving sampler stopped: b=%d, want 20", path.name, b)
		}
	}
}

// A sampler removing itself (or a peer) from inside its callback must
// take effect for the same packet's remaining samplers.
func TestSamplerRemoveDuringCallback(t *testing.T) {
	for _, path := range injectPaths {
		sw := NewSwitch("sw0", 2, 16, new(metrics.Switch))
		var first, second int
		var removeSecond func()
		sw.AddSampler(Filter{}, func(Packet) {
			first++
			if first == 3 {
				removeSecond()
			}
		})
		removeSecond = sw.AddSampler(Filter{}, func(Packet) { second++ })
		p := pkt("10.0.0.1", "10.0.0.2", 1, 80, ProtoTCP, 64)
		for i := 0; i < 6; i++ {
			path.inject(sw, &p, 1, 2)
		}
		// second fires for packets 1 and 2 only: on packet 3 the first
		// sampler removes it before it is reached.
		if first != 6 || second != 2 {
			t.Fatalf("%s: first=%d second=%d, want 6, 2", path.name, first, second)
		}
	}
}
