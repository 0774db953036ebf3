// Package dataplane emulates a data center switch ASIC: ports with
// traffic counters, a priority TCAM with match/action rules, packet
// sampling, and the PCIe bus connecting the ASIC to the switch's
// management CPU.
//
// This is the substitution for the Tofino/Trident hardware the paper
// deploys on (§V-A): FARM's switch-local components only ever observe
// the ASIC through statistics polling, packet samples, and TCAM rule
// updates, and this package exposes exactly that surface. The PCIe bus
// is modelled as a rate-limited channel because its limited polling
// capacity (8 Mbps vs. the ASIC's 100 Gbps — a 1:12500 ratio, Fig. 8)
// is the key bottleneck FARM's polling aggregation addresses.
package dataplane

import (
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
)

// Proto is an IP protocol.
type Proto uint8

const (
	ProtoAny  Proto = 0
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
	ProtoICMP Proto = 1
)

func (p Proto) String() string {
	switch p {
	case ProtoAny:
		return "any"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// TCPFlags is a TCP flag bitmask.
type TCPFlags uint8

const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// Has reports whether all flags in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// AppKind tags application-level packet content that payload-inspecting
// M&M tasks (DNS reflection, SSH brute force, Slowloris) react to.
type AppKind uint8

const (
	AppNone AppKind = iota
	AppDNS
	AppSSH
	AppHTTP
)

// AppInfo carries the payload hints the Tab. I tasks inspect. On real
// hardware these come from parsing sampled packet payloads; the
// generators set them directly.
type AppInfo struct {
	Kind AppKind
	// DNS
	DNSResponse bool
	DNSQName    string
	// SSH
	SSHAuthFail bool
	// HTTP
	HTTPPartial bool // incomplete request header (Slowloris signature)
}

// Packet is a single packet as seen by the ASIC.
type Packet struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
	Flags   TCPFlags
	Size    int // total bytes on the wire
	App     AppInfo
}

// FlowKey identifies the 5-tuple flow of a packet.
type FlowKey struct {
	SrcIP   netip.Addr
	DstIP   netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Flow returns the packet's 5-tuple.
func (p Packet) Flow() FlowKey {
	return FlowKey{SrcIP: p.SrcIP, DstIP: p.DstIP, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// FlowTextCap is a buffer size that takes any IPv4 flow's AppendTo
// without growing: the longest IPv4 text is 44 bytes before the
// protocol ("255.255.255.255:65535->255.255.255.255:65535"), and the
// longest protocol name, "/proto(255)", adds 11.
const FlowTextCap = 64

// AppendTo appends the flow's canonical text form,
// "src:sport->dst:dport/proto", to b and returns the extended slice —
// the allocation-free building block for per-packet consumers. The
// fabric's ECMP hash and the generator's emission digest feed these
// exact bytes to FNV-1a, so the encoding must stay stable: addresses as
// netip.Addr.AppendTo writes them (String, except that the zero Addr
// writes nothing), ports in decimal, the protocol as Proto.String names
// it. FuzzFlowKeyText holds it to that reference. A flow between two
// IPv4 addresses is written octet by octet and digit by digit into a
// stack buffer; any other flow goes through netip and strconv, and any
// protocol but tcp and udp through Proto.String.
func (k FlowKey) AppendTo(b []byte) []byte {
	if k.SrcIP.Is4() && k.DstIP.Is4() {
		var t v4Text
		n := t.putAddr(0, k.SrcIP.As4())
		t[n] = ':'
		n = t.putDecimal(n+1, k.SrcPort)
		t[n], t[n+1] = '-', '>'
		n = t.putAddr(n+2, k.DstIP.As4())
		t[n] = ':'
		n = t.putDecimal(n+1, k.DstPort)
		b = append(b, t[:n]...)
	} else {
		b = k.SrcIP.AppendTo(b)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
		b = append(b, '-', '>')
		b = k.DstIP.AppendTo(b)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(k.DstPort), 10)
	}
	switch k.Proto {
	case ProtoTCP:
		return append(b, "/tcp"...)
	case ProtoUDP:
		return append(b, "/udp"...)
	}
	b = append(b, '/')
	return append(b, k.Proto.String()...)
}

// v4Text holds an IPv4 flow's text up to the protocol.
type v4Text [44]byte

// putAddr writes a's dotted quad at t[n:] and returns the index after it.
func (t *v4Text) putAddr(n int, a [4]byte) int {
	n = t.putOctet(n, a[0])
	t[n] = '.'
	n = t.putOctet(n+1, a[1])
	t[n] = '.'
	n = t.putOctet(n+1, a[2])
	t[n] = '.'
	return t.putOctet(n+1, a[3])
}

func (t *v4Text) putOctet(n int, v byte) int {
	switch {
	case v >= 100:
		t[n], t[n+1], t[n+2] = '0'+v/100, '0'+v/10%10, '0'+v%10
		return n + 3
	case v >= 10:
		t[n], t[n+1] = '0'+v/10, '0'+v%10
		return n + 2
	}
	t[n] = '0' + v
	return n + 1
}

// putDecimal writes v in decimal at t[n:] and returns the index after it.
func (t *v4Text) putDecimal(n int, v uint16) int {
	end := n + 1
	for x := v; x >= 10; x /= 10 {
		end++
	}
	for i := end - 1; i > n; i-- {
		t[i] = byte('0' + v%10)
		v /= 10
	}
	t[n] = byte('0' + v)
	return end
}

func (k FlowKey) String() string {
	return string(k.AppendTo(make([]byte, 0, FlowTextCap)))
}

// Filter is a ternary match over packet headers and ingress port. The
// zero value matches everything ("port ANY" in Almanac terms).
type Filter struct {
	SrcPrefix netip.Prefix // invalid (zero) = any
	DstPrefix netip.Prefix // invalid (zero) = any
	SrcPort   uint16       // 0 = any
	DstPort   uint16       // 0 = any
	Proto     Proto        // 0 = any
	FlagsSet  TCPFlags     // all listed flags must be set
	InPort    int          // 0 = any; ports are 1-based
}

// IsZero reports whether f matches everything.
func (f Filter) IsZero() bool { return f == Filter{} }

// Match reports whether packet p arriving on inPort matches f. It only
// reads p.
func (f Filter) Match(p *Packet, inPort int) bool {
	if f.SrcPrefix.IsValid() && !f.SrcPrefix.Contains(p.SrcIP) {
		return false
	}
	if f.DstPrefix.IsValid() && !f.DstPrefix.Contains(p.DstIP) {
		return false
	}
	if f.SrcPort != 0 && f.SrcPort != p.SrcPort {
		return false
	}
	if f.DstPort != 0 && f.DstPort != p.DstPort {
		return false
	}
	if f.Proto != ProtoAny && f.Proto != p.Proto {
		return false
	}
	if f.FlagsSet != 0 && !p.Flags.Has(f.FlagsSet) {
		return false
	}
	if f.InPort != 0 && f.InPort != inPort {
		return false
	}
	return true
}

// keyCache memoizes Filter.Key results. The soil encodes the polling
// subject of every poll wiring through Key, and seeds churn rules with
// recurring filters, so the steady state is all hits. Bounded: highly
// dynamic filter populations (per-attacker /32 blocks) stop being
// cached once the cache is full rather than growing it forever.
//
// The cache is the whole process's: the soils of simulations that run
// at once in one process key their poll subjects from their own engine
// goroutines (two fleet services, a leader and a standby, each on its
// drive goroutine; seeder.TestConcurrentSimulations runs two), hence a
// sync.Map and an atomic size.
var (
	keyCache     sync.Map // Filter -> string
	keyCacheSize atomic.Int64
)

const keyCacheCap = 4096

// Key returns a canonical encoding of the filter. Two filters with equal
// keys poll the same ASIC state; this is the φ_enc polling-subject
// encoding used for aggregation (§III-B-c). Built allocation-free by
// strconv appends and cached on first use.
func (f Filter) Key() string {
	if f.IsZero() {
		return "any"
	}
	if v, ok := keyCache.Load(f); ok {
		return v.(string)
	}
	b := make([]byte, 0, 64)
	if f.SrcPrefix.IsValid() {
		b = append(b, "src="...)
		b = f.SrcPrefix.AppendTo(b)
		b = append(b, ';')
	}
	if f.DstPrefix.IsValid() {
		b = append(b, "dst="...)
		b = f.DstPrefix.AppendTo(b)
		b = append(b, ';')
	}
	if f.SrcPort != 0 {
		b = append(b, "sport="...)
		b = strconv.AppendUint(b, uint64(f.SrcPort), 10)
		b = append(b, ';')
	}
	if f.DstPort != 0 {
		b = append(b, "dport="...)
		b = strconv.AppendUint(b, uint64(f.DstPort), 10)
		b = append(b, ';')
	}
	if f.Proto != ProtoAny {
		b = append(b, "proto="...)
		b = strconv.AppendUint(b, uint64(f.Proto), 10)
		b = append(b, ';')
	}
	if f.FlagsSet != 0 {
		b = append(b, "flags="...)
		b = strconv.AppendUint(b, uint64(f.FlagsSet), 10)
		b = append(b, ';')
	}
	if f.InPort != 0 {
		b = append(b, "in="...)
		b = strconv.AppendInt(b, int64(f.InPort), 10)
		b = append(b, ';')
	}
	s := string(b[:len(b)-1]) // drop the trailing ';'
	if keyCacheSize.Load() < keyCacheCap {
		if _, loaded := keyCache.LoadOrStore(f, s); !loaded {
			keyCacheSize.Add(1)
		}
	}
	return s
}

func (f Filter) String() string { return "filter(" + f.Key() + ")" }
