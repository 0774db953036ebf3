// Package fabric ties the pieces of the emulated data center together:
// it instantiates one emulated ASIC (dataplane.Switch), PCIe bus, driver
// and meter record (metrics.Set) per topology switch, routes generated
// packets hop-by-hop along ECMP paths, and models control-plane
// communication latency between switches and centralized components.
//
// New finishes the topology it is given (netmodel.Topology.Finish): the
// network is fixed from then on, so the ports New numbers from the
// topology's sorted adjacency, the host ports and the control latencies
// it fills from the topology's hop counts stay true for the fabric's
// life, and every link a packet crosses is one a port counts.
//
// A packet is sent in two steps. Resolve does the per-flow work once:
// both hosts, their leaves and ports, the ECMP hash of the 5-tuple and
// the flow-cache key every switch classifies by, into a Route. SendOn
// does the per-packet work: it picks the path from the topology's path
// table by that hash and forwards along it, handing the key to each
// switch. Send is the two together, for a packet whose match fields are
// new.
//
// Every switch and the centralized components (seeder, harvesters,
// collectors) run on the one scheduler the fabric is built over. Anything
// that crosses switches — packet hops, control messages to and from the
// central components, seed-to-seed sends — is scheduled on it after the
// modelled latency, without a Timer handle (engine.ScheduleOn).
package fabric

import (
	"errors"
	"net/netip"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/metrics"
	"farm/internal/netmodel"
)

// Options configures fabric construction.
type Options struct {
	// BusBytesPerSec is the PCIe polling capacity per switch;
	// 0 means dataplane.DefaultPCIePollBytesPerSec.
	BusBytesPerSec float64
}

// Default latency constants for an intra-DC fabric: the per-switch-hop
// propagation+forwarding delay, and the fixed software overhead of any
// control-plane message.
const (
	DefaultHopLatency         = 50 * time.Microsecond
	DefaultControlBaseLatency = 100 * time.Microsecond
)

// centralAt is the switch the centralized components (seeder,
// harvesters, collectors) attach behind: switch 0, a spine under the
// SpineLeaf builder.
const centralAt netmodel.SwitchID = 0

// Fabric is the assembled emulated data center over a finished
// topology; the per-switch state below is indexed by the dense SwitchID.
type Fabric struct {
	topo  *netmodel.Topology
	sched engine.Scheduler

	switches []*dataplane.Switch
	drivers  []*dataplane.EmuDriver
	// swPorts[sw][nb] is the 1-based port of sw facing switch nb, 0 if
	// they are not linked; hostPort[h] the port of h on its leaf.
	swPorts  [][]int32
	hostPort []int32
	numPorts []int

	// Meters is the meter set the switches, their drivers and soils, the
	// fabric and the seeder record into; CentralNet is its meter of all
	// traffic into centralized components (Fig. 4's collector bottleneck).
	Meters     *metrics.Set
	CentralNet *metrics.NetMeter

	// ctrlLatency[sw] is the one-way control latency from sw to centralAt.
	ctrlLatency []time.Duration

	// free holds the hop records of finished packets for reuse.
	free []*hop
}

// New assembles a fabric over the topology, scheduling onto sched.
func New(topo *netmodel.Topology, sched engine.Scheduler, opts Options) *Fabric {
	topo.Finish()
	n := topo.NumSwitches()
	meters := metrics.New(sched, n)
	f := &Fabric{
		topo:        topo,
		sched:       sched,
		switches:    make([]*dataplane.Switch, n),
		drivers:     make([]*dataplane.EmuDriver, n),
		Meters:      meters,
		swPorts:     make([][]int32, n),
		hostPort:    make([]int32, len(topo.Hosts())),
		numPorts:    make([]int, n),
		CentralNet:  &meters.NetMeter,
		ctrlLatency: make([]time.Duration, n),
	}

	// Port assignment: hosts first (in host-ID order), then neighbor
	// switches (in the finished topology's ascending adjacency order).
	nHosts := make([]int32, n) // hosts numbered so far, per switch
	for _, h := range topo.Hosts() {
		nHosts[h.Leaf]++
		f.hostPort[h.ID] = nHosts[h.Leaf]
	}
	for _, sw := range topo.Switches() {
		port := nHosts[sw.ID]
		f.swPorts[sw.ID] = make([]int32, n)
		for _, nb := range topo.Neighbors(sw.ID) {
			port++
			f.swPorts[sw.ID][nb] = port
		}
		f.numPorts[sw.ID] = int(port)

		tcamCap := int(sw.Capacity[netmodel.ResTCAM])
		if tcamCap <= 0 {
			tcamCap = 1024
		}
		ds := dataplane.NewSwitch(sw.Name, int(port), tcamCap, &meters.Switches[sw.ID])
		f.switches[sw.ID] = ds
		f.drivers[sw.ID] = dataplane.NewEmuDriver(ds, sched, opts.BusBytesPerSec)
		f.ctrlLatency[sw.ID] = controlLatency(topo.Hops(centralAt, sw.ID))
	}
	return f
}

// Sched returns the scheduler driving the fabric. Every component
// schedules on it, and runs (RunFor/RunUntil/Step/Drain) go through it.
func (f *Fabric) Sched() engine.Scheduler { return f.sched }

// Topology returns the underlying topology.
func (f *Fabric) Topology() *netmodel.Topology { return f.topo }

// Switch returns the emulated ASIC of a switch.
func (f *Fabric) Switch(id netmodel.SwitchID) *dataplane.Switch { return f.switches[id] }

// Driver returns the ASIC driver of a switch.
func (f *Fabric) Driver(id netmodel.SwitchID) *dataplane.EmuDriver { return f.drivers[id] }

// CPU returns the management CPU meter of a switch.
func (f *Fabric) CPU(id netmodel.SwitchID) *metrics.CPUMeter { return &f.Meters.Switches[id].CPU }

// NumPorts returns the port count of a switch.
func (f *Fabric) NumPorts(id netmodel.SwitchID) int { return f.numPorts[id] }

// HostPort returns the 1-based port a host attaches to on its leaf.
func (f *Fabric) HostPort(sw netmodel.SwitchID, h netmodel.HostID) (int, bool) {
	if h < 0 || int(h) >= len(f.hostPort) || f.topo.Hosts()[h].Leaf != sw {
		return 0, false
	}
	return int(f.hostPort[h]), true
}

// Delivered returns the number of packets that reached their last hop.
func (f *Fabric) Delivered() uint64 { return f.Meters.Delivered }

// DroppedInFabric returns packets dropped by TCAM rules en route.
func (f *Fabric) DroppedInFabric() uint64 { return f.Meters.DroppedInFabric }

// The reasons Send and Resolve refuse a packet. They are
// returned bare (nothing is formatted per packet); match them with
// errors.Is.
var (
	ErrUnknownSource      = errors.New("fabric: unknown source host")
	ErrUnknownDestination = errors.New("fabric: unknown destination host")
	ErrNoPath             = errors.New("fabric: no path between source and destination leaf")
)

// Route is what a flow's packets share on their way through the
// fabric: the leaves and host ports at either end, the ECMP hash of the
// 5-tuple, and the flow-cache key of the match fields (the 5-tuple and
// the TCP flags). Resolve computes it once per flow; SendOn uses it for
// every packet of the flow. A flow whose packets vary their TCP flags
// has a new key per packet and sends through Send. A route holds no
// path: SendOn reads it from the path table per packet, as Send does.
type Route struct {
	srcLeaf, dstLeaf netmodel.SwitchID
	srcPort, dstPort int32 // the host-facing ports on those leaves
	hash             uint32
	key              dataplane.Key
}

// Resolve looks up both hosts of p's flow, hashes its 5-tuple and
// builds its flow-cache key. Resolve only reads p.
func (f *Fabric) Resolve(p *dataplane.Packet) (Route, error) {
	s, ok := f.topo.HostByIP(p.SrcIP)
	if !ok {
		return Route{}, ErrUnknownSource
	}
	d, ok := f.topo.HostByIP(p.DstIP)
	if !ok {
		return Route{}, ErrUnknownDestination
	}
	return Route{
		srcLeaf: s.Leaf, dstLeaf: d.Leaf,
		srcPort: f.hostPort[s.ID], dstPort: f.hostPort[d.ID],
		hash: flowHash(p.Flow()),
		key:  dataplane.KeyOf(p),
	}, nil
}

// path picks r's ECMP path from the topology's path table,
// deterministically by flow hash. The path is table memory: read-only.
// The modulus is taken in uint32, so a hash of 2^31 or more selects the
// same path on 32- and 64-bit targets.
func (f *Fabric) path(r *Route) (netmodel.Path, error) {
	paths := f.topo.Paths(r.srcLeaf, r.dstLeaf)
	if len(paths) == 0 {
		return nil, ErrNoPath
	}
	return paths[r.hash%uint32(len(paths))], nil
}

// flowHash is the ECMP path selector: FNV-1a over the flow's canonical
// text bytes. Byte-identical to the previous
// fmt.Fprintf(fnv.New32a(), "%v", flow) — path selection, and with it
// every experiment output, is unchanged (TestFlowHashMatchesFmt pins
// this) — but without the hasher and fmt allocations on the per-packet
// path.
func flowHash(k dataplane.FlowKey) uint32 {
	var arr [dataplane.FlowTextCap]byte
	b := k.AppendTo(arr[:0])
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// hop is the forwarding state of one packet in flight: which packet, on
// which path, at which switch. A packet occupies one record from SendOn
// to delivery or drop, and one event per switch-to-switch hop, always
// scheduled with the same prebuilt fire — so forwarding allocates
// nothing once the records it needs exist. The record owns its copy of
// the packet and of its route's key; each switch on the path borrows
// both for one InjectKey, which sets the key's ingress port.
type hop struct {
	f    *Fabric
	fire func() // h.step, bound once
	p    dataplane.Packet
	key  dataplane.Key
	path netmodel.Path
	i    int // index into path of the switch about to see the packet
	// The host-facing ports at either end of the path.
	srcPort, dstPort int
}

// Send injects a packet at its source host's leaf and forwards it
// hop-by-hop along its ECMP path, applying each switch's TCAM. The
// packet is dropped mid-path if a rule says so.
//
// Send is Resolve then SendOn; a flow that sends many packets resolves
// once and calls SendOn per packet. Send builds the packet's key once,
// for every switch on the path.
func (f *Fabric) Send(p *dataplane.Packet) error {
	r, err := f.Resolve(p)
	if err != nil {
		return err
	}
	return f.SendOn(r, p)
}

// SendOn is Send for a packet of a flow Resolve already resolved: it
// takes the flow's path from the path table and sends p along
// it. r must be Resolve's answer for a packet with p's match fields:
// the 5-tuple and the TCP flags, which r's key carries to every switch.
// A caller that varies the flags between packets of a flow must use
// Send.
//
// SendOn borrows p: it copies the packet into the hop record that
// carries it and keeps no reference, so the caller may reuse p at once.
func (f *Fabric) SendOn(r Route, p *dataplane.Packet) error {
	path, err := f.path(&r)
	if err != nil {
		return err
	}
	var h *hop
	if n := len(f.free); n > 0 {
		h, f.free = f.free[n-1], f.free[:n-1]
	} else {
		h = &hop{f: f}
		h.fire = h.step
	}
	h.p, h.key, h.path, h.i = *p, r.key, path, 0
	h.srcPort, h.dstPort = int(r.srcPort), int(r.dstPort)
	h.step()
	return nil
}

// step passes the packet through the switch it has reached and either
// schedules the next hop or, at the end of the path or on a drop,
// returns the record to the free list.
func (h *hop) step() {
	f, path, i := h.f, h.path, h.i
	sw := path[i]
	last := i == len(path)-1
	inPort, outPort := h.srcPort, h.dstPort
	if i > 0 {
		inPort = int(f.swPorts[sw][path[i-1]])
	}
	if !last {
		outPort = int(f.swPorts[sw][path[i+1]])
	}
	v := f.switches[sw].InjectKey(&h.p, &h.key, inPort, outPort)
	switch {
	case v.Dropped:
		f.Meters.DroppedInFabric++
	case last:
		f.Meters.Delivered++
	default:
		h.i = i + 1
		engine.ScheduleOn(f.sched, DefaultHopLatency, h.fire)
		return
	}
	f.free = append(f.free, h)
}

// HostIP returns the address of the hostIndex-th host on the leaf with
// the given index, under the builders' addressing (netmodel.HostIP).
func HostIP(leafIndex, hostIndex int) netip.Addr {
	return netmodel.HostIP(leafIndex, hostIndex)
}

// controlLatency is the one-way latency of a control-plane message
// over a shortest path of the given number of hops; an unreachable
// peer (-1) is taken to be 3 hops away.
func controlLatency(hops int) time.Duration {
	if hops < 0 {
		hops = 3
	}
	return DefaultControlBaseLatency + time.Duration(hops)*DefaultHopLatency
}

// ControlLatency returns the one-way latency for a control-plane message
// from a switch's CPU to the centralized components.
func (f *Fabric) ControlLatency(from netmodel.SwitchID) time.Duration {
	return f.ctrlLatency[from]
}

// SwitchLatency returns the one-way control-plane latency between two
// switch CPUs.
func (f *Fabric) SwitchLatency(a, b netmodel.SwitchID) time.Duration {
	if a == b {
		return DefaultControlBaseLatency / 2
	}
	return controlLatency(f.topo.Hops(a, b))
}

// MTU is the payload capacity used to convert message sizes into
// packet counts on the central links.
const MTU = 1400

// SendToCentral models a control message from a switch to a centralized
// component: it meters the bytes (and MTU-derived packet count) on the
// central links, charges serialization cost to the switch CPU, and
// delivers fn after the control latency.
func (f *Fabric) SendToCentral(from netmodel.SwitchID, bytes int, fn func()) {
	pkts := (bytes + MTU - 1) / MTU
	if pkts < 1 {
		pkts = 1
	}
	f.CentralNet.CentralPackets += uint64(pkts)
	f.CentralNet.CentralBytes += uint64(bytes)
	f.CPU(from).Charge(time.Duration(bytes) * metrics.CostSerializePerByte)
	engine.ScheduleOn(f.sched, f.ControlLatency(from), fn)
}

// SendFromCentral models a control message from a centralized component
// to a switch CPU; fn is delivered after the control latency.
func (f *Fabric) SendFromCentral(to netmodel.SwitchID, fn func()) {
	engine.ScheduleOn(f.sched, f.ControlLatency(to), fn)
}

// SendSwitchToSwitch models a control message between two switch CPUs
// (seed-to-seed communication, §II-C-b); fn is delivered after the
// switch-to-switch latency.
func (f *Fabric) SendSwitchToSwitch(from, to netmodel.SwitchID, bytes int, fn func()) {
	f.CPU(from).Charge(time.Duration(bytes) * metrics.CostSerializePerByte)
	engine.ScheduleOn(f.sched, f.SwitchLatency(from, to), fn)
}
