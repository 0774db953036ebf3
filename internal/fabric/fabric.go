// Package fabric ties the pieces of the emulated data center together:
// it instantiates one emulated ASIC (dataplane.Switch), PCIe bus, driver,
// and CPU meter per topology switch, routes generated packets hop-by-hop
// along ECMP paths, and models control-plane communication latency
// between switches and centralized components.
//
// A packet is sent in two steps. Resolve does the per-flow work once:
// both hosts, their leaves and ports, and the ECMP hash of the 5-tuple,
// into a Route. SendOn does the per-packet work: it picks the path from
// the topology's current path table by that hash and forwards along it.
// Send is the two together, for a packet whose 5-tuple is new.
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
	"sort"
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

// cpuCores is the management CPU core count per switch.
const cpuCores = 4

// centralAt is the switch the centralized components (seeder,
// harvesters, collectors) attach behind: switch 0, a spine under the
// SpineLeaf builder.
const centralAt netmodel.SwitchID = 0

// Fabric is the assembled emulated data center. It is a snapshot of
// the topology's switches, links and hosts at New; the per-switch
// state below is indexed by the dense SwitchID.
type Fabric struct {
	topo  *netmodel.Topology
	sched engine.Scheduler
	costs metrics.CostModel

	switches []*dataplane.Switch
	drivers  []*dataplane.EmuDriver
	cpus     []*metrics.CPUMeter
	// swPorts[sw][nb] is the 1-based port of sw facing switch nb, 0 if
	// they are not linked; hostPort[h] the port of h on its leaf.
	swPorts  [][]int32
	hostPort []int32
	numPorts []int

	// CentralNet meters all traffic into centralized components: the
	// collector-bottleneck measurement of Fig. 4.
	CentralNet *metrics.NetMeter

	hopDist []int // hops to centralAt, -1 = unreachable

	// delivered and dropped count packets that reached their last hop
	// and packets a TCAM rule dropped en route; free holds the hop
	// records of finished packets for reuse.
	delivered uint64
	dropped   uint64
	free      []*hop
}

// New assembles a fabric over the topology, scheduling onto sched.
func New(topo *netmodel.Topology, sched engine.Scheduler, opts Options) *Fabric {
	n := topo.NumSwitches()
	f := &Fabric{
		topo:       topo,
		sched:      sched,
		costs:      metrics.DefaultCostModel(),
		switches:   make([]*dataplane.Switch, n),
		drivers:    make([]*dataplane.EmuDriver, n),
		cpus:       make([]*metrics.CPUMeter, n),
		swPorts:    make([][]int32, n),
		hostPort:   make([]int32, len(topo.Hosts())),
		numPorts:   make([]int, n),
		CentralNet: metrics.NewNetMeter(sched),
		hopDist:    make([]int, n),
	}

	// Port assignment: hosts first (in host-ID order), then neighbor
	// switches (in ID order).
	hostsBySwitch := make([][]netmodel.HostID, n)
	for _, h := range topo.Hosts() {
		hostsBySwitch[h.Leaf] = append(hostsBySwitch[h.Leaf], h.ID)
	}
	for _, sw := range topo.Switches() {
		port := 1
		for _, h := range hostsBySwitch[sw.ID] {
			f.hostPort[h] = int32(port)
			port++
		}
		nbs := append([]netmodel.SwitchID(nil), topo.Neighbors(sw.ID)...)
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
		f.swPorts[sw.ID] = make([]int32, n)
		for _, nb := range nbs {
			f.swPorts[sw.ID][nb] = int32(port)
			port++
		}
		f.numPorts[sw.ID] = port - 1

		tcamCap := int(sw.Capacity[netmodel.ResTCAM])
		if tcamCap <= 0 {
			tcamCap = 1024
		}
		ds := dataplane.NewSwitch(sw.Name, port-1, tcamCap)
		f.switches[sw.ID] = ds
		bus := dataplane.NewBus(sched, opts.BusBytesPerSec)
		f.drivers[sw.ID] = dataplane.NewEmuDriver(ds, bus)
		f.cpus[sw.ID] = metrics.NewCPUMeter(sched, cpuCores)
	}

	// BFS hop distance to the central attachment point.
	for i := range f.hopDist {
		f.hopDist[i] = -1
	}
	f.hopDist[centralAt] = 0
	queue := []netmodel.SwitchID{centralAt}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range topo.Neighbors(cur) {
			if f.hopDist[nb] < 0 {
				f.hopDist[nb] = f.hopDist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return f
}

// Sched returns the scheduler driving the fabric. Every component
// schedules on it, and runs (RunFor/RunUntil/Step/Drain) go through it.
func (f *Fabric) Sched() engine.Scheduler { return f.sched }

// Topology returns the underlying topology.
func (f *Fabric) Topology() *netmodel.Topology { return f.topo }

// Costs returns the CPU cost model.
func (f *Fabric) Costs() metrics.CostModel { return f.costs }

// Switch returns the emulated ASIC of a switch.
func (f *Fabric) Switch(id netmodel.SwitchID) *dataplane.Switch { return f.switches[id] }

// Driver returns the ASIC driver of a switch.
func (f *Fabric) Driver(id netmodel.SwitchID) *dataplane.EmuDriver { return f.drivers[id] }

// CPU returns the management CPU meter of a switch.
func (f *Fabric) CPU(id netmodel.SwitchID) *metrics.CPUMeter { return f.cpus[id] }

// NumPorts returns the port count of a switch.
func (f *Fabric) NumPorts(id netmodel.SwitchID) int { return f.numPorts[id] }

// HostPort returns the 1-based port a host attaches to on its leaf.
func (f *Fabric) HostPort(sw netmodel.SwitchID, h netmodel.HostID) (int, bool) {
	if h < 0 || int(h) >= len(f.hostPort) || f.topo.Hosts()[h].Leaf != sw {
		return 0, false
	}
	return int(f.hostPort[h]), true
}

// PortToward returns the 1-based port of sw facing neighbor nb.
func (f *Fabric) PortToward(sw, nb netmodel.SwitchID) (int, bool) {
	if nb < 0 || int(nb) >= len(f.swPorts) {
		return 0, false
	}
	p := f.swPorts[sw][nb]
	return int(p), p != 0
}

// Delivered returns the number of packets that reached their last hop.
func (f *Fabric) Delivered() uint64 { return f.delivered }

// DroppedInFabric returns packets dropped by TCAM rules en route.
func (f *Fabric) DroppedInFabric() uint64 { return f.dropped }

// The reasons Send, Resolve and PathFor refuse a packet. They are
// returned bare (nothing is formatted per packet); match them with
// errors.Is.
var (
	ErrUnknownSource      = errors.New("fabric: unknown source host")
	ErrUnknownDestination = errors.New("fabric: unknown destination host")
	ErrNoPath             = errors.New("fabric: no path between source and destination leaf")
)

// Route is what a flow's packets share on their way through the
// fabric: the leaves and host ports at either end and the ECMP hash of
// the 5-tuple. Resolve computes it once per flow; SendOn uses it for
// every packet of the flow. It holds no path: SendOn reads the path
// table per packet, so a topology change reaches a resolved flow
// exactly as it reaches Send.
type Route struct {
	srcLeaf, dstLeaf netmodel.SwitchID
	srcPort, dstPort int32 // the host-facing ports on those leaves
	hash             uint32
}

// Resolve looks up both hosts of p's flow and hashes its 5-tuple. A
// host is known if it was in the topology when the fabric was built;
// one added later has no port here, and is refused like an unknown
// address. Resolve only reads p.
func (f *Fabric) Resolve(p *dataplane.Packet) (Route, error) {
	s, ok := f.topo.HostByIP(p.SrcIP)
	if !ok || int(s.ID) >= len(f.hostPort) {
		return Route{}, ErrUnknownSource
	}
	d, ok := f.topo.HostByIP(p.DstIP)
	if !ok || int(d.ID) >= len(f.hostPort) {
		return Route{}, ErrUnknownDestination
	}
	return Route{
		srcLeaf: s.Leaf, dstLeaf: d.Leaf,
		srcPort: f.hostPort[s.ID], dstPort: f.hostPort[d.ID],
		hash: flowHash(p.Flow()),
	}, nil
}

// path picks r's ECMP path from the topology's current path table,
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

// PathFor returns the ECMP path a flow takes between two hosts,
// selected deterministically by flow hash. Callers must not modify the
// path (see netmodel.Topology.Paths). PathFor only reads p.
func (f *Fabric) PathFor(p *dataplane.Packet) (netmodel.Path, error) {
	r, err := f.Resolve(p)
	if err != nil {
		return nil, err
	}
	return f.path(&r)
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
// the packet; each switch on the path borrows it for one Inject.
type hop struct {
	f    *Fabric
	fire func() // h.step, bound once
	p    dataplane.Packet
	path netmodel.Path
	i    int // index into path of the switch about to see the packet
	// The host-facing ports at either end of the path.
	srcPort, dstPort int
}

// Send injects a packet at its source host's leaf and forwards it
// hop-by-hop along its ECMP path, applying each switch's TCAM. The
// packet is dropped mid-path if a rule says so. The path is fixed here:
// a packet in flight is not rerouted by a later topology change.
//
// Send is Resolve then SendOn; a flow that sends many packets resolves
// once and calls SendOn per packet.
func (f *Fabric) Send(p *dataplane.Packet) error {
	r, err := f.Resolve(p)
	if err != nil {
		return err
	}
	return f.SendOn(r, p)
}

// SendOn is Send for a packet of a flow Resolve already resolved: it
// takes the flow's path from the current path table and sends p along
// it. r must be Resolve's answer for a packet with p's 5-tuple.
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
	h.p, h.path, h.i = *p, path, 0
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
	v := f.switches[sw].Inject(&h.p, inPort, outPort)
	switch {
	case v.Dropped:
		f.dropped++
	case last:
		f.delivered++
	default:
		h.i = i + 1
		engine.ScheduleOn(f.sched, DefaultHopLatency, h.fire)
		return
	}
	h.path = nil // don't pin a dropped path table
	f.free = append(f.free, h)
}

// MustSend is Send for callers holding pre-validated addresses.
func (f *Fabric) MustSend(p *dataplane.Packet) {
	if err := f.Send(p); err != nil {
		panic(err)
	}
}

// HostIP returns the i-th host IP on the given leaf index under the
// SpineLeaf addressing scheme (convenience for generators/tests).
func HostIP(leafIndex, hostIndex int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(leafIndex), byte(hostIndex / 250), byte(hostIndex%250 + 1)})
}

// ControlLatency returns the one-way latency for a control-plane message
// from a switch's CPU to the centralized components.
func (f *Fabric) ControlLatency(from netmodel.SwitchID) time.Duration {
	hops := f.hopDist[from]
	if hops < 0 {
		hops = 3
	}
	return DefaultControlBaseLatency + time.Duration(hops)*DefaultHopLatency
}

// SwitchLatency returns the one-way control-plane latency between two
// switch CPUs.
func (f *Fabric) SwitchLatency(a, b netmodel.SwitchID) time.Duration {
	if a == b {
		return DefaultControlBaseLatency / 2
	}
	paths := f.topo.Paths(a, b)
	hops := 3
	if len(paths) > 0 {
		hops = len(paths[0]) - 1
	}
	return DefaultControlBaseLatency + time.Duration(hops)*DefaultHopLatency
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
	f.CentralNet.Add(pkts, bytes)
	f.cpus[from].Charge(time.Duration(bytes) * f.costs.SerializePerByte)
	engine.ScheduleOn(f.sched, f.ControlLatency(from), fn)
}

// SendFromCentral models a control message from a centralized component
// to a switch CPU; fn is delivered after the control latency.
func (f *Fabric) SendFromCentral(to netmodel.SwitchID, bytes int, fn func()) {
	engine.ScheduleOn(f.sched, f.ControlLatency(to), fn)
}

// SendSwitchToSwitch models a control message between two switch CPUs
// (seed-to-seed communication, §II-C-b); fn is delivered after the
// switch-to-switch latency.
func (f *Fabric) SendSwitchToSwitch(from, to netmodel.SwitchID, bytes int, fn func()) {
	f.cpus[from].Charge(time.Duration(bytes) * f.costs.SerializePerByte)
	engine.ScheduleOn(f.sched, f.SwitchLatency(from, to), fn)
}
