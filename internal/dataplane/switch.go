package dataplane

import (
	"fmt"

	"farm/internal/metrics"
)

// Action is what a TCAM rule does to matching packets.
type Action int

const (
	ActAllow Action = iota + 1
	ActDrop
	ActRateLimit // forwards but marks the flow rate-limited
	ActMirror    // forwards and copies to the management CPU
	ActCount     // forwards; exists only for its counters
	ActSetQoS    // forwards with altered QoS class
)

func (a Action) String() string {
	switch a {
	case ActAllow:
		return "allow"
	case ActDrop:
		return "drop"
	case ActRateLimit:
		return "rate-limit"
	case ActMirror:
		return "mirror"
	case ActCount:
		return "count"
	case ActSetQoS:
		return "set-qos"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule is one TCAM entry: a ternary filter with an action. Higher
// Priority wins; ties resolve to the earlier-installed rule.
type Rule struct {
	Priority int
	Filter   Filter
	Action   Action
	Note     string // free-form, e.g. the installing task's name
}

// RuleStats are the per-rule match counters.
type RuleStats struct {
	Packets uint64
	Bytes   uint64
}

type tcamEntry struct {
	rule  Rule
	seq   int
	stats RuleStats
}

// TCAM is a priority-matched ternary rule table with per-rule counters.
//
// Following iSTAMP's division (§II-B-b), the monitoring TCAM modelled
// here is the slice the soil carves out for M&M; forwarding rules live
// outside it and are unaffected by monitoring rule churn.
type TCAM struct {
	capacity int
	// entries is kept in match order (priority desc, seq asc) at all
	// times; AddRule/RemoveRule splice at binary-searched positions.
	entries []*tcamEntry
	// byFilter indexes entries by exact filter for the management-path
	// operations (install/remove/poll), which address rules by filter.
	byFilter map[Filter]*tcamEntry
	seq      int

	// Classifier state (docs/dataplane.md): the bucketed rule index and
	// the generation counter bumped on every rule churn, which stamps the
	// verdicts in Switch.InjectKey's flow cache.
	index ruleIndex
	gen   uint64
}

// NewTCAM returns a TCAM with the given entry capacity.
func NewTCAM(capacity int) *TCAM {
	return &TCAM{
		capacity: capacity,
		byFilter: make(map[Filter]*tcamEntry),
		index:    newRuleIndex(),
	}
}

// Size returns the current number of entries.
func (t *TCAM) Size() int { return len(t.entries) }

// ErrTCAMFull is returned by AddRule when the table is at capacity.
var ErrTCAMFull = fmt.Errorf("dataplane: TCAM full")

// AddRule installs a rule. Installing a rule with a filter identical to
// an existing rule replaces it (preserving its counters would be
// surprising; counters reset).
func (t *TCAM) AddRule(r Rule) error {
	if old, ok := t.byFilter[r.Filter]; ok {
		// Replace in place: keep the original installation sequence (so
		// tie-breaking order is stable), but re-position for the possibly
		// changed priority — O(log n) splices, no full re-sort.
		repl := &tcamEntry{rule: r, seq: old.seq}
		t.entries = removeSorted(t.entries, old)
		t.index.remove(old)
		t.entries = insertSorted(t.entries, repl)
		t.index.add(repl)
		t.byFilter[r.Filter] = repl
		t.gen++
		return nil
	}
	if len(t.entries) >= t.capacity {
		return ErrTCAMFull
	}
	e := &tcamEntry{rule: r, seq: t.seq}
	t.seq++
	t.entries = insertSorted(t.entries, e)
	t.index.add(e)
	t.byFilter[r.Filter] = e
	t.gen++
	return nil
}

// RemoveRule removes the rule with exactly the given filter. It reports
// whether a rule was removed.
func (t *TCAM) RemoveRule(f Filter) bool {
	e, ok := t.byFilter[f]
	if !ok {
		return false
	}
	delete(t.byFilter, f)
	t.entries = removeSorted(t.entries, e)
	t.index.remove(e)
	t.gen++
	return true
}

// GetRule returns the rule with exactly the given filter.
func (t *TCAM) GetRule(f Filter) (Rule, bool) {
	if e, ok := t.byFilter[f]; ok {
		return e.rule, true
	}
	return Rule{}, false
}

// Rules returns all installed rules in match order.
func (t *TCAM) Rules() []Rule {
	out := make([]Rule, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.rule
	}
	return out
}

// Stats returns the counters of the rule with exactly the given filter.
func (t *TCAM) Stats(f Filter) (RuleStats, bool) {
	if e, ok := t.byFilter[f]; ok {
		return e.stats, true
	}
	return RuleStats{}, false
}

// PortStats are per-port traffic counters.
type PortStats struct {
	RxPackets uint64
	RxBytes   uint64
	TxPackets uint64
	TxBytes   uint64
}

// Sampler copies every matching packet to a callback: the ASIC's mirror
// to the management CPU behind FARM's probe triggers.
type Sampler struct {
	Filter  Filter
	fn      func(Packet)
	removed bool
}

// Verdict reports what the ASIC did with an injected packet: whether a
// drop rule matched it. The matching rule's Stats count the packet.
type Verdict struct {
	Dropped bool
}

// Switch is the emulated ASIC of one switch: ports, TCAM, samplers.
// It is not safe for concurrent use; in simulation everything runs on
// the single-threaded event loop.
type Switch struct {
	name     string
	ports    []PortStats // 1-based; index 0 unused
	tcam     *TCAM
	samplers []*Sampler
	// m is the switch's meter record, which its driver and bus share.
	m *metrics.Switch

	// Fused inject path: one flow cache holding the TCAM verdict and the
	// matching sampler set together, each half stamped with its own
	// generation (rule churn vs. sampler churn) so either kind of churn
	// invalidates only lazily, on the next probe of a stale flow. The
	// table is allocated by the first InjectKey: a switch that never sees
	// a packet pays nothing for it.
	samplerGen uint64
	flowCache  *flowCache

	// Interned sampler sets of generation setsGen: every flow matched by
	// the same samplers shares one slice, keyed by the set itself as a
	// bitmask over s.samplers (bit i = s.samplers[i] matches).
	sets    map[string][]*Sampler
	setsGen uint64
	setKey  []byte // scratch for the mask of the flow being classified
}

// injectVerdict is one memoized fused classification. Slots hold it by
// value and sampler sets are interned, so a miss (the port scan's fresh
// 5-tuple per packet) allocates nothing unless it is the first to see
// its sampler set.
type injectVerdict struct {
	tcamGen    uint64
	samplerGen uint64
	e          *tcamEntry // nil = no rule matches
	samplers   []*Sampler // the samplers whose filter matches this flow; shared, never written
}

// NewSwitch returns a switch with numPorts ports and the given
// monitoring-TCAM capacity, metering into m.
func NewSwitch(name string, numPorts, tcamCapacity int, m *metrics.Switch) *Switch {
	return &Switch{
		name:  name,
		ports: make([]PortStats, numPorts+1),
		tcam:  NewTCAM(tcamCapacity),
		m:     m,
	}
}

// CacheStats returns hit/miss counters of the fused inject flow cache.
func (s *Switch) CacheStats() metrics.CacheMeter { return s.m.Cache }

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) - 1 }

// TCAM exposes the monitoring TCAM.
func (s *Switch) TCAM() *TCAM { return s.tcam }

// PortStats returns counters for a 1-based port.
func (s *Switch) PortStats(port int) (PortStats, error) {
	if port < 1 || port >= len(s.ports) {
		return PortStats{}, fmt.Errorf("dataplane: switch %s has no port %d", s.name, port)
	}
	return s.ports[port], nil
}

// AddSampler registers a packet sampler and returns a remove function.
// Removal is effective immediately — even for a packet mid-InjectKey, the
// removed sampler no longer fires.
func (s *Switch) AddSampler(f Filter, fn func(Packet)) (remove func()) {
	sm := &Sampler{Filter: f, fn: fn}
	s.samplers = append(s.samplers, sm)
	s.samplerGen++
	return func() {
		if sm.removed {
			return
		}
		sm.removed = true
		s.samplerGen++
		for i, cur := range s.samplers {
			if cur == sm {
				s.samplers = append(s.samplers[:i], s.samplers[i+1:]...)
				return
			}
		}
	}
}

// CreditPort adds traffic to a port's counters in bulk without per-packet
// processing. Large-scale workloads (thousands of ports, Fig. 4) use this
// to drive counter-polling tasks cheaply; per-packet features (TCAM
// matching, sampling) require InjectKey.
func (s *Switch) CreditPort(port int, rxPackets, rxBytes, txPackets, txBytes uint64) error {
	if port < 1 || port >= len(s.ports) {
		return fmt.Errorf("dataplane: switch %s has no port %d", s.name, port)
	}
	s.ports[port].RxPackets += rxPackets
	s.ports[port].RxBytes += rxBytes
	s.ports[port].TxPackets += txPackets
	s.ports[port].TxBytes += txBytes
	return nil
}

// CreditRule adds matches to the rule with exactly the given filter,
// the bulk analogue of TCAM counting.
func (s *Switch) CreditRule(f Filter, packets, bytes uint64) bool {
	if e, ok := s.tcam.byFilter[f]; ok {
		e.stats.Packets += packets
		e.stats.Bytes += bytes
		return true
	}
	return false
}

// InjectKey passes a packet through the ASIC: ingress counters, TCAM
// classification (counting and possibly dropping), samplers, egress
// counters. inPort/outPort are 1-based; outPort 0 means locally
// destined.
//
// The caller builds p's key once, with KeyOf, and carries it from
// switch to switch: the fabric builds it when it resolves a flow and
// passes it to every hop. k must be KeyOf(p) or a key built from a
// packet with p's match fields (the 5-tuple and the TCP flags);
// InjectKey sets its ingress port, the one field that differs from hop
// to hop.
//
// TCAM and samplers are evaluated in one fused pass: a single
// flow-cache probe yields both the winning rule and the matching
// sampler set for a repeat flow; only a cold or churn-invalidated flow
// pays the indexed TCAM lookup plus the per-sampler filter scan.
//
// InjectKey borrows p and k for the call: it reads the packet in place
// and keeps no reference to either. A sampler that fires gets its own
// copy of the packet.
func (s *Switch) InjectKey(p *Packet, k *Key, inPort, outPort int) Verdict {
	if inPort >= 1 && inPort < len(s.ports) {
		s.ports[inPort].RxPackets++
		s.ports[inPort].RxBytes += uint64(p.Size)
	}
	k.fk.inPort = int32(inPort)
	v := s.classifyFused(p, &k.fk, inPort)
	if !v.Dropped && outPort >= 1 && outPort < len(s.ports) {
		s.ports[outPort].TxPackets++
		s.ports[outPort].TxBytes += uint64(p.Size)
	}
	return v
}

// samplerSet returns the samplers whose filter matches the packet, in
// registration order, as the one slice every flow with that set shares.
// The table belongs to the current sampler generation: bit positions
// index s.samplers, which only changes together with samplerGen.
func (s *Switch) samplerSet(p *Packet, inPort int) []*Sampler {
	if len(s.samplers) == 0 {
		return nil
	}
	if s.setsGen != s.samplerGen {
		clear(s.sets)
		s.setsGen = s.samplerGen
	}
	need := (len(s.samplers) + 7) / 8
	if cap(s.setKey) < need {
		s.setKey = make([]byte, need)
	}
	key := s.setKey[:need]
	clear(key)
	n := 0
	for i, sm := range s.samplers {
		if sm.Filter.Match(p, inPort) {
			key[i>>3] |= 1 << (i & 7)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if set, ok := s.sets[string(key)]; ok {
		return set
	}
	set := make([]*Sampler, 0, n)
	for i, sm := range s.samplers {
		if key[i>>3]&(1<<(i&7)) != 0 {
			set = append(set, sm)
		}
	}
	switch {
	case s.sets == nil:
		s.sets = make(map[string][]*Sampler)
	case len(s.sets) >= flowCacheSlots:
		// The cache holds at most one distinct set per slot, so the slot
		// count bounds the table too, whatever the filters are. Cached
		// slots keep their (immutable) slices: all a drop loses is
		// sharing with them.
		clear(s.sets)
	}
	s.sets[string(key)] = set
	return set
}

// classifyFused is the classify+sample step: one flow-cache probe covering
// TCAM verdict and sampler set, recomputed lazily when either the rule
// or the sampler generation moved. k is p's key at inPort.
func (s *Switch) classifyFused(p *Packet, k *flowKey, inPort int) Verdict {
	if s.flowCache == nil {
		s.flowCache = new(flowCache)
	}
	slot, ok := s.flowCache.probe(k)
	cv := &slot.v
	if !ok || cv.tcamGen != s.tcam.gen || cv.samplerGen != s.samplerGen {
		s.m.Cache.Misses++
		*cv = injectVerdict{
			tcamGen:    s.tcam.gen,
			samplerGen: s.samplerGen,
			e:          s.tcam.index.lookup(p, inPort),
			samplers:   s.samplerSet(p, inPort),
		}
	} else {
		s.m.Cache.Hits++
	}
	var v Verdict
	if e := cv.e; e != nil {
		e.stats.Packets++
		e.stats.Bytes += uint64(p.Size)
		if e.rule.Action == ActDrop {
			v.Dropped = true
			s.m.RuleDrops++
		}
	}
	for _, sm := range cv.samplers {
		if !sm.removed { // or removed after this verdict was cached
			sm.fn(*p)
		}
	}
	return v
}
