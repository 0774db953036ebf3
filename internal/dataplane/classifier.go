// Fast classification layer: the per-packet hot path of the emulated
// ASIC (see docs/dataplane.md).
//
// Real switch ASICs classify at line rate through indexed lookup
// structures; a linear TCAM scan per packet would make per-packet
// experiments measure classification cost instead of the monitoring
// behaviour under test. This file provides the two lower tiers of the
// three-tier classifier:
//
//   - a static rule index (ruleIndex): TCAM entries partitioned into
//     buckets by the exact-match discriminators DstPort, Proto and
//     InPort, each bucket kept in match order, so a lookup scans only
//     the (at most four) candidate buckets instead of every entry;
//   - a generation-stamped flow cache (flowCache): the winning entry and
//     the matching sampler set memoized per (5-tuple, Flags, inPort) in
//     a fixed table of flowCacheSlots slots, invalidated wholesale by
//     bumping a generation counter on any rule or sampler churn.
//
// The top tier, the fused Switch.Inject pass, lives in switch.go.
package dataplane

import (
	"encoding/binary"
	"net/netip"
	"sort"
)

// entryLess orders TCAM entries in match order: higher priority first,
// ties broken by installation sequence (earlier wins). (Priority, seq)
// is unique per live entry — seq is never shared — so this is a strict
// total order and binary searches resolve exact positions.
func entryLess(a, b *tcamEntry) bool {
	if a.rule.Priority != b.rule.Priority {
		return a.rule.Priority > b.rule.Priority
	}
	return a.seq < b.seq
}

// insertSorted inserts e at its binary-searched position in a
// match-ordered slice.
func insertSorted(s []*tcamEntry, e *tcamEntry) []*tcamEntry {
	i := sort.Search(len(s), func(i int) bool { return entryLess(e, s[i]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// removeSorted removes e from a match-ordered slice, locating it by
// binary search on its (priority, seq) key.
func removeSorted(s []*tcamEntry, e *tcamEntry) []*tcamEntry {
	i := sort.Search(len(s), func(i int) bool { return !entryLess(s[i], e) })
	for i < len(s) && s[i] != e { // defensive; the order key is unique
		i++
	}
	if i == len(s) {
		return s
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	return s[:len(s)-1]
}

// bucketKey identifies one partition of the rule index.
type bucketKey struct {
	kind uint8
	val  uint32
}

const (
	bWildcard uint8 = iota // rules with no exact discriminator
	bDstPort
	bProto
	bInPort
)

// bucketFor assigns a filter to its index bucket by its most selective
// exact discriminator: DstPort, then Proto, then InPort. Filters with
// none of the three (prefix-, SrcPort- or flags-only, and the zero
// filter) land in the wildcard bucket, which every lookup scans.
func bucketFor(f Filter) bucketKey {
	switch {
	case f.DstPort != 0:
		return bucketKey{bDstPort, uint32(f.DstPort)}
	case f.Proto != ProtoAny:
		return bucketKey{bProto, uint32(f.Proto)}
	case f.InPort != 0:
		return bucketKey{bInPort, uint32(f.InPort)}
	}
	return bucketKey{bWildcard, 0}
}

// ruleIndex is the static rule index: every live entry is in exactly
// one bucket, each bucket in match order. Maintained incrementally on
// AddRule/RemoveRule — inserts and removals are O(log b) in the bucket
// size, never a full re-sort.
type ruleIndex struct {
	buckets map[bucketKey][]*tcamEntry
}

func newRuleIndex() ruleIndex {
	return ruleIndex{buckets: make(map[bucketKey][]*tcamEntry)}
}

func (ix *ruleIndex) add(e *tcamEntry) {
	k := bucketFor(e.rule.Filter)
	ix.buckets[k] = insertSorted(ix.buckets[k], e)
}

func (ix *ruleIndex) remove(e *tcamEntry) {
	k := bucketFor(e.rule.Filter)
	s := removeSorted(ix.buckets[k], e)
	if len(s) == 0 {
		delete(ix.buckets, k)
	} else {
		ix.buckets[k] = s
	}
}

// scanBucket returns the best match in one bucket, given the best match
// found so far. Buckets are in match order, so the scan stops at the
// first match — and early, as soon as no remaining entry can beat best.
func (ix *ruleIndex) scanBucket(k bucketKey, p *Packet, inPort int, best *tcamEntry) *tcamEntry {
	for _, e := range ix.buckets[k] {
		if best != nil && !entryLess(e, best) {
			break
		}
		if e.rule.Filter.Match(p, inPort) {
			return e
		}
	}
	return best
}

// lookup returns the highest-priority entry matching the packet, or nil.
// A matching rule's bucket discriminator necessarily equals the packet's
// corresponding field, so only the packet's own candidate buckets (plus
// the wildcard bucket) can hold a match.
func (ix *ruleIndex) lookup(p *Packet, inPort int) *tcamEntry {
	best := ix.scanBucket(bucketKey{bWildcard, 0}, p, inPort, nil)
	if p.DstPort != 0 {
		best = ix.scanBucket(bucketKey{bDstPort, uint32(p.DstPort)}, p, inPort, best)
	}
	if p.Proto != ProtoAny {
		best = ix.scanBucket(bucketKey{bProto, uint32(p.Proto)}, p, inPort, best)
	}
	if inPort != 0 {
		best = ix.scanBucket(bucketKey{bInPort, uint32(inPort)}, p, inPort, best)
	}
	return best
}

// flowKey is the flow-cache key: everything a Filter can match on. Two
// packets with equal flowKeys classify identically (Size and App are
// not matchable), so the verdict can be memoized per flowKey.
//
// An address is kept as its 16-byte As16 form plus its addrClass. Those
// are all a Filter can tell apart: netip.Prefix.Contains compares the
// address bits within one family, rejects the other family (so 10.0.0.1
// and ::ffff:10.0.0.1 differ) and rejects every zoned address, whatever
// the zone. The fields are laid out with no padding and no blank field,
// so the map hashes and compares the key as 44 bytes of plain memory.
type flowKey struct {
	src, dst           [16]byte
	srcPort, dstPort   uint16
	inPort             int32
	proto              Proto
	flags              TCPFlags
	srcClass, dstClass addrClass
}

// addrClass is the part of an address that its As16 bytes drop.
type addrClass uint8

const (
	classInvalid addrClass = iota // the zero netip.Addr
	classV4
	classV6
	classV6Zone // IPv6 with a zone
)

func classOf(a netip.Addr) addrClass {
	switch {
	case a.Is4():
		return classV4
	case !a.IsValid():
		return classInvalid
	case a.Zone() != "":
		return classV6Zone
	}
	return classV6
}

func flowKeyOf(p *Packet, inPort int) flowKey {
	return flowKey{
		src: p.SrcIP.As16(), dst: p.DstIP.As16(),
		srcPort: p.SrcPort, dstPort: p.DstPort,
		inPort: int32(inPort),
		proto:  p.Proto, flags: p.Flags,
		srcClass: classOf(p.SrcIP), dstClass: classOf(p.DstIP),
	}
}

// flowCacheSlots is the size of a switch's flow cache: a fixed
// exact-match table, as on the ASIC, never grown and never wiped.
// flowCacheBits is its log2, the hash bits one probe uses.
const (
	flowCacheBits  = 10
	flowCacheSlots = 1 << flowCacheBits
)

// flowCache is the exact-match flow cache, two-way: a key may live in
// either of the two slots its hash names (OVS's EMC probes two the same
// way). A slot is valid once written; a miss overwrites one of its two.
type flowCache [flowCacheSlots]flowSlot

// flowSlot is one cached flow: the full key, compared on every probe,
// and its fused verdict, which carries its own generation stamps.
type flowSlot struct {
	key flowKey
	// valid: the slot has been written. used: it has hit since it was
	// written or last passed over for eviction (a one-bit clock, so a
	// fresh 5-tuple that never repeats evicts its like, not a live flow).
	valid, used bool
	v           injectVerdict
}

// probe returns the slot for k: the one holding it (hit), or the one a
// miss overwrites, already holding k, for the caller to fill. The victim
// is an unwritten slot if either is, else one that has not hit since
// its last pass, else the first; every choice depends on the key and
// the probe sequence alone, so hits and misses repeat run to run.
func (c *flowCache) probe(k *flowKey) (slot *flowSlot, hit bool) {
	a, b := c.ways(k)
	if a.valid && a.key == *k {
		a.used = true
		return a, true
	}
	if b.valid && b.key == *k {
		b.used = true
		return b, true
	}
	victim := a
	switch {
	case !a.valid:
	case !b.valid:
		victim = b
	case a.used && !b.used: // a is passed over: its second chance
		a.used = false
		victim = b
	default:
		b.used = false
	}
	victim.key, victim.valid, victim.used = *k, true, false
	return victim, false
}

// ways returns the two slots k may live in, named by disjoint bit
// fields of its hash (the two may coincide).
func (c *flowCache) ways(k *flowKey) (a, b *flowSlot) {
	h := k.hash()
	return &c[h>>(64-flowCacheBits)], &c[h>>(64-2*flowCacheBits)&(flowCacheSlots-1)]
}

// hash folds the key's 44 bytes, eight at a time, through a
// multiply-xorshift mix; the slots come from the top bits of the result.
// It is a pure function of the key — maphash is seeded per process — so
// which flows share a slot is the same in every run.
func (k *flowKey) hash() uint64 {
	le := binary.LittleEndian
	h := mix(0, uint64(k.proto)|uint64(k.flags)<<8|uint64(k.srcClass)<<16|uint64(k.dstClass)<<24)
	h = mix(h, uint64(k.srcPort)|uint64(k.dstPort)<<16|uint64(uint32(k.inPort))<<32)
	h = mix(h, le.Uint64(k.src[:8]))
	h = mix(h, le.Uint64(k.src[8:]))
	h = mix(h, le.Uint64(k.dst[:8]))
	h = mix(h, le.Uint64(k.dst[8:]))
	return h * mixMul
}

// mixMul is 2^64 over the golden ratio, the usual odd multiplier.
const mixMul = 0x9e3779b97f4a7c15

func mix(h, w uint64) uint64 {
	h = (h ^ w) * mixMul
	return h ^ h>>29
}

// CacheStats reports flow-cache effectiveness.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}
