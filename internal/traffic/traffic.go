// Package traffic generates workloads for the emulated data center:
// per-packet flows, the attack patterns behind the Tab. I use cases, and
// bulk counter-credit workloads that scale to thousands of ports.
//
// This substitutes for the production SAP traffic the paper evaluates
// against. The evaluation parameterizes workloads by heavy-hitter ratio,
// churn rate, and flow counts (§VI-B); the generators expose exactly
// those knobs, seeded deterministically for reproducible runs.
package traffic

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// FlowSpec describes one generated flow.
type FlowSpec struct {
	Src, Dst   netip.Addr
	SrcPort    uint16
	DstPort    uint16
	Proto      dataplane.Proto
	Flags      dataplane.TCPFlags
	PacketSize int
	Rate       float64 // packets per second
	App        dataplane.AppInfo
}

func (s FlowSpec) packet() dataplane.Packet {
	return dataplane.Packet{
		SrcIP: s.Src, DstIP: s.Dst,
		SrcPort: s.SrcPort, DstPort: s.DstPort,
		Proto: s.Proto, Flags: s.Flags,
		Size: s.PacketSize, App: s.App,
	}
}

// Generator drives workloads onto a fabric. Seeded deterministically:
// the same seed yields the same per-switch packet sequence.
//
// Every flow is homed on its ingress leaf — the leaf its source host
// attaches to — whose emission digest it folds into. Emission-time
// randomness (jitter, start phase, random destination picks) comes from
// per-flow splitmix streams keyed by (seed, flow creation index), never
// a shared *rand.Rand, so the sequence a leaf emits is a pure function
// of the seed and the order scenarios were constructed in.
// Construction-time randomness (which hosts a scenario picks) uses one
// seeded source, drawn while building scenarios.
//
// Scenario stop funcs follow the engine's ownership contract: call them
// from the driving goroutine between runs, or from a callback.
type Generator struct {
	fab   *fabric.Fabric
	seed  int64
	setup *rand.Rand
	// nextFlow numbers flows in creation order; it keys each flow's
	// splitmix stream.
	nextFlow uint64
	// digests holds one per-leaf emission digest cell, built up front so
	// emission never mutates the map.
	digests map[netmodel.SwitchID]*ingressDigest
	// offFabric counts the rejected packets of flows whose source is no
	// host of the fabric: they have no leaf, so no cell.
	offFabric uint64
}

// NewGenerator returns a generator over the fabric.
func NewGenerator(fab *fabric.Fabric, seed int64) *Generator {
	g := &Generator{
		fab:     fab,
		seed:    seed,
		setup:   rand.New(rand.NewSource(seed)),
		digests: make(map[netmodel.SwitchID]*ingressDigest),
	}
	for _, sw := range fab.Topology().Switches() {
		g.digests[sw.ID] = &ingressDigest{h: digestOffset}
	}
	return g
}

// Rand exposes the generator's construction-time random source, for
// scenario setup; emission-time draws come from per-flow streams.
func (g *Generator) Rand() *rand.Rand { return g.setup }

// stream allocates the next flow's RNG stream.
func (g *Generator) stream() stream {
	id := g.nextFlow
	g.nextFlow++
	return stream{state: bulkMix(uint64(g.seed), id)}
}

// ingress resolves a source address to its ingress leaf's emission
// digest cell. Unroutable sources (fab.Send rejects their packets, and
// Rejected counts them) have no cell.
func (g *Generator) ingress(src netip.Addr) *ingressDigest {
	if h, ok := g.fab.Topology().HostByIP(src); ok {
		return g.digests[h.Leaf]
	}
	return nil
}

// inject folds the packet into its ingress leaf's emission digest cell d
// and sends it. text is the packet's canonical flow text
// (FlowKey.AppendTo) and r its flow's route (fabric.Resolve): a flow
// whose 5-tuple never changes renders and resolves once, a scenario that
// makes a fresh tuple per packet renders per packet and passes a nil r,
// so the fabric resolves per packet. A flow whose route did not resolve
// passes nil too, and is refused per packet for the same reason.
func (g *Generator) inject(d *ingressDigest, p *dataplane.Packet, text []byte, r *fabric.Route) {
	if d != nil {
		d.fold(g.fab.Sched().Now(), p, text)
	}
	var err error
	if r != nil {
		err = g.fab.SendOn(*r, p)
	} else {
		err = g.fab.Send(p)
	}
	if err != nil {
		if d != nil {
			d.rejected++
		} else {
			g.offFabric++
		}
	}
}

// Rejected returns how many injected packets the fabric refused to
// send (fabric.ErrUnknownSource, ErrUnknownDestination, ErrNoPath): a
// scenario with a mistyped address shows up here instead of silently
// emitting nothing.
func (g *Generator) Rejected() uint64 {
	n := g.offFabric
	for _, d := range g.digests {
		n += d.rejected
	}
	return n
}

// PerSwitchDigest returns, per ingress leaf, a digest of every packet
// the generator injected there: emission time, 5-tuple, size, flags,
// and app kind, folded in emission order. This is the generator's
// determinism contract made checkable — the same seed must produce
// byte-identical digests (the traffic tests and the root package's
// TestWorkloadDigestsPinned hold them to recorded values). Leaves that
// emitted nothing are omitted.
func (g *Generator) PerSwitchDigest() map[netmodel.SwitchID]uint64 {
	out := make(map[netmodel.SwitchID]uint64, len(g.digests))
	for id, d := range g.digests {
		if d.h != digestOffset {
			out[id] = d.h
		}
	}
	return out
}

// StartFlow emits spec's packets until stop is called, at the given
// mean rate with uniform +/-50% inter-packet jitter. The jitter (and a
// random start phase) keeps concurrent flows interleaving like real
// traffic; strictly periodic flows would alias with periodic samplers
// and rate limiters.
func (g *Generator) StartFlow(spec FlowSpec) (stop func()) {
	if spec.Rate <= 0 {
		panic(fmt.Sprintf("traffic: flow rate must be positive, got %g", spec.Rate))
	}
	d, sched := g.ingress(spec.Src), g.fab.Sched()
	pkt := spec.packet()
	text := pkt.Flow().AppendTo(nil)
	r := g.resolve(&pkt)
	rng := g.stream()
	interval := float64(time.Second) / spec.Rate
	stopped := false
	var emit func()
	schedule := func(scale float64) {
		d := time.Duration(interval * scale)
		if d <= 0 {
			d = time.Nanosecond
		}
		engine.ScheduleOn(sched, d, emit)
	}
	emit = func() {
		if stopped {
			return
		}
		g.inject(d, &pkt, text, r)
		schedule(0.5 + rng.float64())
	}
	schedule(rng.float64()) // random start phase
	return func() { stopped = true }
}

// Burst sends n packets of the flow immediately.
func (g *Generator) Burst(spec FlowSpec, n int) {
	d := g.ingress(spec.Src)
	pkt := spec.packet()
	text := pkt.Flow().AppendTo(nil)
	r := g.resolve(&pkt)
	for i := 0; i < n; i++ {
		g.inject(d, &pkt, text, r)
	}
}

// resolve returns the route of p's flow, or nil if the fabric refuses
// it: inject then sends through Send, which refuses each packet and
// says why.
func (g *Generator) resolve(p *dataplane.Packet) *fabric.Route {
	r, err := g.fab.Resolve(p)
	if err != nil {
		return nil
	}
	return &r
}

// --- Per-flow RNG streams and the emission digest ---

// stream is a splitmix64 generator seeded per flow with
// bulkMix(seed, flow index) — the same pure-function construction
// BulkWorkload uses for its heavy sets. State is owned by the flow's
// closure; nothing is shared.
type stream struct{ state uint64 }

func (s *stream) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// float64 draws a uniform value in [0, 1).
func (s *stream) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn draws a uniform value in [0, n).
func (s *stream) intn(n int) int {
	return int(s.next() % uint64(n))
}

// FNV-1a parameters for the emission digest.
const (
	digestOffset uint64 = 14695981039346656037
	digestPrime  uint64 = 1099511628211
)

// ingressDigest accumulates one leaf's emission digest and its count of
// packets the fabric refused.
type ingressDigest struct {
	h        uint64
	rejected uint64
}

// fold adds one emission: its time, the packet's flow text, size, flags
// and app kind.
func (d *ingressDigest) fold(at time.Duration, p *dataplane.Packet, text []byte) {
	h := foldUint(d.h, uint64(at))
	for _, c := range text {
		h ^= uint64(c)
		h *= digestPrime
	}
	h = foldUint(h, uint64(p.Size))
	h ^= uint64(p.Flags)
	h *= digestPrime
	h ^= uint64(p.App.Kind)
	h *= digestPrime
	d.h = h
}

func foldUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= digestPrime
		v >>= 8
	}
	return h
}

// --- Attack / scenario generators (Tab. I workloads) ---

// SYNFlood floods target with TCP SYNs from nSources spoofed hosts at
// the aggregate rate. The sources are picked from existing hosts so the
// packets route.
func (g *Generator) SYNFlood(target netip.Addr, nSources int, rate float64) (stop func()) {
	hosts := g.fab.Topology().Hosts()
	specs := make([]FlowSpec, 0, nSources)
	for i := 0; i < nSources; i++ {
		src := hosts[g.setup.Intn(len(hosts))].IP
		if src == target {
			continue
		}
		specs = append(specs, FlowSpec{
			Src: src, Dst: target,
			SrcPort: uint16(g.setup.Intn(60000) + 1024), DstPort: 80,
			Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN,
			PacketSize: 60, Rate: rate / float64(nSources),
		})
	}
	return g.startAll(specs)
}

// PortScan probes sequential destination ports on target from src. The
// scan ticks on src's ingress leaf.
func (g *Generator) PortScan(src, target netip.Addr, portsPerSec float64) (stop func()) {
	d := g.ingress(src)
	next := uint16(1)
	interval := time.Duration(float64(time.Second) / portsPerSec)
	tk := g.fab.Sched().Every(interval, func() {
		p := dataplane.Packet{
			SrcIP: src, DstIP: target,
			SrcPort: 40000, DstPort: next,
			Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN, Size: 60,
		}
		var text [dataplane.FlowTextCap]byte
		g.inject(d, &p, p.Flow().AppendTo(text[:0]), nil)
		next++
		if next == 0 {
			next = 1
		}
	})
	return tk.Stop
}

// SuperSpreader has src contact fanout distinct destinations at rate
// connections/s (one SYN each, to port 443).
func (g *Generator) SuperSpreader(src netip.Addr, fanout int, rate float64) (stop func()) {
	hosts := g.fab.Topology().Hosts()
	dsts := make([]netip.Addr, 0, fanout)
	for _, h := range g.setup.Perm(len(hosts)) {
		ip := hosts[h].IP
		if ip != src {
			dsts = append(dsts, ip)
		}
		if len(dsts) == fanout {
			break
		}
	}
	d := g.ingress(src)
	rng := g.stream()
	i := 0
	interval := time.Duration(float64(time.Second) / rate)
	tk := g.fab.Sched().Every(interval, func() {
		// Random destination order: real spreaders do not round-robin
		// in lockstep with samplers.
		dst := dsts[rng.intn(len(dsts))]
		p := dataplane.Packet{
			SrcIP: src, DstIP: dst,
			SrcPort: uint16(30000 + i%1000), DstPort: 443,
			Proto: dataplane.ProtoTCP, Flags: dataplane.FlagSYN, Size: 60,
		}
		var text [dataplane.FlowTextCap]byte
		g.inject(d, &p, p.Flow().AppendTo(text[:0]), nil)
		i++
	})
	return tk.Stop
}

// DNSReflection emits large DNS responses from reflector hosts toward
// the victim (amplification attack signature: UDP src port 53, big
// payload, responses without matching queries).
func (g *Generator) DNSReflection(victim netip.Addr, nReflectors int, rate float64) (stop func()) {
	hosts := g.fab.Topology().Hosts()
	specs := make([]FlowSpec, 0, nReflectors)
	for i := 0; i < nReflectors; i++ {
		refl := hosts[g.setup.Intn(len(hosts))].IP
		if refl == victim {
			continue
		}
		specs = append(specs, FlowSpec{
			Src: refl, Dst: victim,
			SrcPort: 53, DstPort: uint16(g.setup.Intn(60000) + 1024),
			Proto: dataplane.ProtoUDP, PacketSize: 3000,
			Rate: rate / float64(nReflectors),
			App:  dataplane.AppInfo{Kind: dataplane.AppDNS, DNSResponse: true, DNSQName: "any.example."},
		})
	}
	return g.startAll(specs)
}

// SSHBruteForce emits failed SSH authentication attempts from src to dst.
func (g *Generator) SSHBruteForce(src, dst netip.Addr, rate float64) (stop func()) {
	return g.StartFlow(FlowSpec{
		Src: src, Dst: dst,
		SrcPort: 51000, DstPort: 22,
		Proto: dataplane.ProtoTCP, Flags: dataplane.FlagPSH | dataplane.FlagACK,
		PacketSize: 120, Rate: rate,
		App: dataplane.AppInfo{Kind: dataplane.AppSSH, SSHAuthFail: true},
	})
}

// Slowloris opens many slow, incomplete HTTP requests against dst.
func (g *Generator) Slowloris(dst netip.Addr, nConns int, perConnRate float64) (stop func()) {
	hosts := g.fab.Topology().Hosts()
	specs := make([]FlowSpec, 0, nConns)
	for i := 0; i < nConns; i++ {
		src := hosts[g.setup.Intn(len(hosts))].IP
		if src == dst {
			continue
		}
		specs = append(specs, FlowSpec{
			Src: src, Dst: dst,
			SrcPort: uint16(20000 + i), DstPort: 80,
			Proto: dataplane.ProtoTCP, Flags: dataplane.FlagPSH | dataplane.FlagACK,
			PacketSize: 40, Rate: perConnRate,
			App: dataplane.AppInfo{Kind: dataplane.AppHTTP, HTTPPartial: true},
		})
	}
	return g.startAll(specs)
}

func (g *Generator) startAll(specs []FlowSpec) (stop func()) {
	stops := make([]func(), 0, len(specs))
	for _, s := range specs {
		stops = append(stops, g.StartFlow(s))
	}
	return func() {
		for _, st := range stops {
			st()
		}
	}
}

// --- Bulk counter workloads ---

// PortLoad is the offered load of one switch port in a bulk workload.
type PortLoad struct {
	Switch netmodel.SwitchID
	Port   int
	// BytesPerSec of traffic transmitted on the port.
	BytesPerSec float64
	PacketSize  int
}

// BulkWorkload drives port counters directly at a configurable tick,
// scaling to thousands of ports with one event per switch per tick.
// Heavy-hitter experiments flip a fraction of ports to a heavy rate and
// re-pick that set periodically (churn), matching the paper's production
// observations (1-10% of ports heavy, ratio changing up to once a
// minute).
//
// Each switch's ports are credited by a ticker of its own, and the heavy
// set for a churn epoch is a pure function of (seed, epoch) — a seeded
// ranking every switch recomputes locally.
type BulkWorkload struct {
	fab *fabric.Fabric

	Tick      time.Duration
	BaseRate  float64 // bytes/s on a normal port
	HeavyRate float64 // bytes/s on a heavy port
	PktSize   int

	seed  int64
	ratio float64
	churn time.Duration

	ports    []PortLoad // all driven ports, base rates, in host order
	switches []*bulkSwitch
	tickers  []engine.Ticker
}

// bulkSwitch is the per-switch slice of a BulkWorkload.
type bulkSwitch struct {
	id    netmodel.SwitchID
	idx   []int  // global port indices driven on this switch
	heavy []bool // parallel to idx: heavy in this epoch
}

// BulkConfig configures NewBulkWorkload.
type BulkConfig struct {
	Tick       time.Duration // counter update granularity; default 1ms
	BaseRate   float64       // bytes/s per normal port; default 1e5
	HeavyRate  float64       // bytes/s per heavy port; default 1e8
	PacketSize int           // default 1000
	HeavyRatio float64       // fraction of ports heavy
	Churn      time.Duration // re-pick heavy set every Churn; 0 = never
	Seed       int64
}

// NewBulkWorkload creates a bulk workload over every host-facing port of
// every leaf switch in the fabric.
func NewBulkWorkload(fab *fabric.Fabric, cfg BulkConfig) *BulkWorkload {
	if cfg.Tick == 0 {
		cfg.Tick = time.Millisecond
	}
	if cfg.BaseRate == 0 {
		cfg.BaseRate = 1e5
	}
	if cfg.HeavyRate == 0 {
		cfg.HeavyRate = 1e8
	}
	if cfg.PacketSize == 0 {
		cfg.PacketSize = 1000
	}
	w := &BulkWorkload{
		fab:       fab,
		Tick:      cfg.Tick,
		BaseRate:  cfg.BaseRate,
		HeavyRate: cfg.HeavyRate,
		PktSize:   cfg.PacketSize,
		seed:      cfg.Seed,
		ratio:     cfg.HeavyRatio,
		churn:     cfg.Churn,
	}
	topo := fab.Topology()
	bySwitch := map[netmodel.SwitchID]*bulkSwitch{}
	for _, h := range topo.Hosts() {
		if port, ok := fab.HostPort(h.Leaf, h.ID); ok {
			bs := bySwitch[h.Leaf]
			if bs == nil {
				bs = &bulkSwitch{id: h.Leaf}
				bySwitch[h.Leaf] = bs
				w.switches = append(w.switches, bs)
			}
			bs.idx = append(bs.idx, len(w.ports))
			w.ports = append(w.ports, PortLoad{Switch: h.Leaf, Port: port, BytesPerSec: cfg.BaseRate, PacketSize: cfg.PacketSize})
		}
	}
	sort.Slice(w.switches, func(i, j int) bool { return w.switches[i].id < w.switches[j].id })

	sched := fab.Sched()
	epoch := w.epochAt(sched.Now())
	for _, bs := range w.switches {
		bs := bs
		bs.heavy = w.heavyFor(bs, epoch)
		w.tickers = append(w.tickers, sched.Every(cfg.Tick, func() { w.tick(bs) }))
		if cfg.Churn > 0 {
			w.tickers = append(w.tickers, sched.Every(cfg.Churn, func() {
				bs.heavy = w.heavyFor(bs, w.epochAt(sched.Now()))
			}))
		}
	}
	return w
}

// epochAt maps virtual time to a churn epoch. All switches churn at the
// same instants, so the epoch they compute is identical.
func (w *BulkWorkload) epochAt(now time.Duration) int64 {
	if w.churn <= 0 {
		return 0
	}
	return int64(now / w.churn)
}

// bulkMix is a splitmix64-style hash step used to rank ports per epoch.
func bulkMix(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// heavyMask returns the heavy port set of an epoch, indexed by global
// port: the ratio*n lowest-ranked ports under a (seed, epoch)-keyed hash,
// ties broken by index. It is a pure function, so every switch (and
// HeavyPorts) derives the same set without shared state. Each port is
// hashed once; the cut is the rank-th smallest key, found by selection on
// a scratch copy instead of sorting the ports.
func heavyMask(seed, epoch int64, n int, ratio float64) []bool {
	on := make([]bool, n)
	rank := min(int(ratio*float64(n)), n)
	if rank <= 0 {
		return on
	}
	key := bulkMix(uint64(seed), uint64(epoch))
	keys := make([]uint64, 2*n)
	keys, scratch := keys[:n], keys[n:]
	for i := range keys {
		keys[i] = bulkMix(key, uint64(i))
	}
	copy(scratch, keys)
	cut := selectKth(scratch, rank-1)
	// Everything below the cut is in; keys equal to it take the places
	// that are left, in index order.
	atCut := rank
	for _, k := range keys {
		if k < cut {
			atCut--
		}
	}
	for i, k := range keys {
		if k < cut {
			on[i] = true
		} else if k == cut && atCut > 0 {
			on[i] = true
			atCut--
		}
	}
	return on
}

// selectKth returns the k-th smallest element (0-based) of a, reordering
// it (quickselect with a median-of-three pivot; the keys are hashes, so
// no input is adversarial).
func selectKth(a []uint64, k int) uint64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// heavyFor filters the epoch's heavy set down to one switch's ports.
func (w *BulkWorkload) heavyFor(bs *bulkSwitch, epoch int64) []bool {
	on := heavyMask(w.seed, epoch, len(w.ports), w.ratio)
	heavy := make([]bool, len(bs.idx))
	for j, i := range bs.idx {
		heavy[j] = on[i]
	}
	return heavy
}

// HeavyPorts returns the currently heavy (switch, port) pairs — the
// ground truth detection tasks are scored against. Call it while the
// engine is quiescent.
func (w *BulkWorkload) HeavyPorts() []PortLoad {
	var out []PortLoad
	epoch := w.epochAt(w.fab.Sched().Now())
	for i, heavy := range heavyMask(w.seed, epoch, len(w.ports), w.ratio) {
		if heavy {
			p := w.ports[i]
			p.BytesPerSec = w.HeavyRate
			out = append(out, p)
		}
	}
	return out
}

// NumPorts returns the number of driven ports.
func (w *BulkWorkload) NumPorts() int { return len(w.ports) }

// Stop halts the workload.
func (w *BulkWorkload) Stop() {
	for _, tk := range w.tickers {
		tk.Stop()
	}
}

func (w *BulkWorkload) tick(bs *bulkSwitch) {
	dt := w.Tick.Seconds()
	sw := w.fab.Switch(bs.id)
	for j, i := range bs.idx {
		p := w.ports[i]
		rate := w.BaseRate
		if bs.heavy[j] {
			rate = w.HeavyRate
		}
		bytes := uint64(rate * dt)
		pkts := bytes / uint64(p.PacketSize)
		if pkts == 0 {
			pkts = 1
		}
		_ = sw.CreditPort(p.Port, 0, 0, pkts, bytes)
	}
}
