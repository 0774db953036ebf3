package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/fleet"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/placement"
	"farm/internal/poly"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

// simSpec is one simulation workload: a fabric rebuilt from the seed
// for every unit, driven for a fixed virtual window on engine.Serial.
type simSpec struct {
	name string
	// window is the timed virtual window of a unit.
	window time.Duration
	build  func(seed int64, sched engine.Scheduler) (*simUnit, error)
}

// warmup is the untimed virtual run that lets flow caches fill, poll
// groups settle and first reports leave before a unit is timed.
const warmup = 100 * time.Millisecond

// simUnit is one freshly built fabric with its workload running.
type simUnit struct {
	fab     *fabric.Fabric
	sd      *seeder.Seeder     // nil when the workload deploys no task
	gen     *traffic.Generator // nil when the workload sends no packet
	tasks   []string           // every task the unit must have placed
	reports *uint64            // harvester deliveries, counted by reportCounter
	stops   []func()
}

func (u *simUnit) stop() {
	for _, s := range u.stops {
		s()
	}
}

var simSpecs = []simSpec{
	{name: "packet-storm", window: 250 * time.Millisecond, build: buildPacketStorm},
	{name: "poll-fabric", window: 250 * time.Millisecond, build: buildPollFabric},
	{name: "catalogue-mix", window: 500 * time.Millisecond, build: buildCatalogueMix},
}

func simSpecByName(name string) (simSpec, bool) {
	for _, s := range simSpecs {
		if s.name == name {
			return s, true
		}
	}
	return simSpec{}, false
}

// bigCapacity is the soak-class switch model: wide enough for the whole
// Tab. I catalogue on every switch at once (the default AS5712-class
// model fits only a few tasks per switch).
func bigCapacity() netmodel.Resources {
	return netmodel.Resources{
		netmodel.ResVCPU: 128,
		netmodel.ResRAM:  1 << 17,
		netmodel.ResTCAM: 1 << 14,
		netmodel.ResPCIe: 512,
		netmodel.ResPoll: 1e6,
	}
}

func spineLeaf(spines, leaves, hosts int, capacity netmodel.Resources) (*netmodel.Topology, error) {
	return netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: spines, Leaves: leaves, HostsPerLeaf: hosts,
		LeafCapacity: capacity, SpineCapacity: capacity,
	})
}

// startCocktail launches the attack cocktail of the root workload
// benchmark (SYN flood, port scan, super-spreader, DNS reflection, SSH
// brute force, Slowloris) plus one background flow per leaf, every rate
// multiplied by scale. Which hosts attack and which is the victim is
// drawn from the seed.
func startCocktail(gen *traffic.Generator, leaves, hosts int, seed int64, scale float64) []func() {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	host := func() netip.Addr { return fabric.HostIP(rng.Intn(leaves), rng.Intn(hosts)) }
	// distinct returns a host that differs from every address given.
	distinct := func(not ...netip.Addr) netip.Addr {
		for {
			h := host()
			clash := false
			for _, n := range not {
				clash = clash || n == h
			}
			if !clash {
				return h
			}
		}
	}
	victim := host()
	scanner := distinct(victim)
	spreader := distinct(victim)
	sshDst := distinct(victim)
	sshSrc := distinct(sshDst)
	slowDst := distinct(victim)
	stops := []func(){
		gen.SYNFlood(victim, 12, 6000*scale),
		gen.PortScan(scanner, victim, 2000*scale),
		gen.SuperSpreader(spreader, 16, 3000*scale),
		gen.DNSReflection(victim, 6, 3000*scale),
		gen.SSHBruteForce(sshSrc, sshDst, 500*scale),
		gen.Slowloris(slowDst, 16, 50*scale),
	}
	for i := 0; i < leaves; i++ {
		stops = append(stops, gen.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(i, hosts/2), Dst: fabric.HostIP((i+1)%leaves, hosts/2),
			SrcPort: uint16(10000 + i), DstPort: 80, PacketSize: 400, Rate: 800 * scale,
		}))
	}
	return stops
}

// buildPacketStorm: bare forwarding. No seeder, no soil, no rule, no
// sampler; every packet stays on the dataplane fast path.
func buildPacketStorm(seed int64, sched engine.Scheduler) (*simUnit, error) {
	const spines, leaves, hosts = 2, 32, 8
	topo, err := spineLeaf(spines, leaves, hosts, nil)
	if err != nil {
		return nil, err
	}
	fab := fabric.New(topo, sched, fabric.Options{})
	gen := traffic.NewGenerator(fab, seed)
	// x5 brings the cocktail (15.3k packets/s) plus 32 leaf flows
	// (25.6k packets/s) to about 200k packets per virtual second.
	stops := startCocktail(gen, leaves, hosts, seed, 5)
	return &simUnit{fab: fab, gen: gen, stops: stops}, nil
}

// hhDeltaSource is the Fig. 4 heavy-hitter seed (report only when the
// hitter set changes) with its poll interval as a parameter.
const hhDeltaSource = `
machine HHDelta {
  place all;
  poll pollStats = Poll { .ival = %d, .what = port ANY };
  external long threshold;
  list hitters;
  list reported;

  state observe {
    util (res) {
      if (res.vCPU >= 0.25 and res.RAM >= 64) then { return res.vCPU; }
    }
    when (pollStats as stats) do {
      hitters = getHH(stats, threshold);
      if (hitters <> reported) then {
        send hitters to harvester;
        reported = hitters;
      }
    }
  }
}
`

// buildPollFabric: the Fig. 4 pipeline at 66 switches and 3072 ports.
// Counters are credited in bulk; no packet crosses the fabric.
func buildPollFabric(seed int64, sched engine.Scheduler) (*simUnit, error) {
	const spines, leaves, hosts = 2, 64, 48
	topo, err := spineLeaf(spines, leaves, hosts, nil)
	if err != nil {
		return nil, err
	}
	fab := fabric.New(topo, sched, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{PlacementParallel: -1})
	u := &simUnit{fab: fab, sd: sd, reports: new(uint64)}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("hh%d", i)
		err := sd.AddTask(seeder.TaskSpec{
			Name:      name,
			Source:    fmt.Sprintf(hhDeltaSource, 10+i),
			Externals: map[string]map[string]core.Value{"HHDelta": {"threshold": int64(400_000)}},
			Harvester: reportCounter{n: u.reports},
		})
		if err != nil {
			return nil, err
		}
		u.tasks = append(u.tasks, name)
	}
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, BaseRate: 1e5, HeavyRate: 5e7,
		HeavyRatio: 0.05, Churn: 250 * time.Millisecond, Seed: seed,
	})
	u.stops = append(u.stops, w.Stop)
	return u, nil
}

// buildCatalogueMix: every layer at once. All 18 Tab. I tasks with
// their real harvesters, packets and bulk counters together.
func buildCatalogueMix(seed int64, sched engine.Scheduler) (*simUnit, error) {
	const spines, leaves, hosts = 2, 8, 8
	topo, err := spineLeaf(spines, leaves, hosts, bigCapacity())
	if err != nil {
		return nil, err
	}
	fab := fabric.New(topo, sched, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{PlacementParallel: -1})
	u := &simUnit{fab: fab, sd: sd, reports: new(uint64)}
	for _, name := range tasks.Names() {
		spec, err := fleet.CatalogueSpec(name, nil)
		if err != nil {
			return nil, err
		}
		spec.Harvester = reportCounter{inner: spec.Harvester, n: u.reports}
		if err := sd.AddTask(spec); err != nil {
			return nil, err
		}
		u.tasks = append(u.tasks, name)
	}
	u.gen = traffic.NewGenerator(fab, seed)
	u.stops = startCocktail(u.gen, leaves, hosts, seed, 1)
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, BaseRate: 1e5, HeavyRate: 5e7,
		HeavyRatio: 0.05, Churn: time.Second, Seed: seed,
	})
	u.stops = append(u.stops, w.Stop)
	return u, nil
}

// reportCounter wraps a task's harvester logic to count the reports it
// receives; the harvester's own history is bounded and cannot.
type reportCounter struct {
	inner harvest.Logic
	n     *uint64
}

func (c reportCounter) OnStart(ctx harvest.Context) {
	if c.inner != nil {
		c.inner.OnStart(ctx)
	}
}

func (c reportCounter) OnSeedMessage(ctx harvest.Context, from soil.SeedRef, v core.Value) {
	*c.n++
	if c.inner != nil {
		c.inner.OnSeedMessage(ctx, from, v)
	}
}

// counts is what one unit's layers report through their public
// accessors. Cumulative fields are read before and after the timed
// window and subtracted; the digests are read once, after it.
type counts struct {
	Emitted        uint64 // packets received on host-facing ports
	Delivered      uint64
	Dropped        uint64
	CentralMsgs    uint64
	CentralBytes   uint64
	CacheHits      uint64
	CacheMisses    uint64
	SampleDrops    uint64
	PollsIssued    uint64
	PollsDelivered uint64
	Probes         uint64
	Reports        uint64
	Migrations     uint64
	BusBusy        time.Duration // summed over switches
	CPUBusy        time.Duration // modelled switch CPU, summed over switches

	// Gauges and digests, read after the window.
	Switches        int
	TCAMRules       int
	Seeds           int
	EmissionDigest  uint64
	PlacementDigest string
}

func (u *simUnit) read() counts {
	var c counts
	topo := u.fab.Topology()
	c.Switches = topo.NumSwitches()
	for _, sw := range topo.Switches() {
		ds := u.fab.Switch(sw.ID)
		cs := ds.CacheStats()
		c.CacheHits += cs.Hits
		c.CacheMisses += cs.Misses
		c.TCAMRules += ds.TCAM().Size()
		c.SampleDrops += u.fab.Driver(sw.ID).SampleDrops()
		c.BusBusy += u.fab.Driver(sw.ID).Bus().Snapshot().Busy
		c.CPUBusy += u.fab.CPU(sw.ID).Busy()
		if u.sd != nil {
			so := u.sd.Soil(sw.ID)
			c.PollsIssued += so.PollsIssued()
			c.PollsDelivered += so.PollsDelivered()
			c.Probes += so.ProbesDelivered()
		}
	}
	if u.gen != nil {
		// Bulk workloads credit only the transmit side of host ports, so
		// what host ports received is what the generator emitted.
		for _, h := range topo.Hosts() {
			if port, ok := u.fab.HostPort(h.Leaf, h.ID); ok {
				ps, _ := u.fab.Switch(h.Leaf).PortStats(port)
				c.Emitted += ps.RxPackets
			}
		}
		c.EmissionDigest = foldDigests(u.gen.PerSwitchDigest())
	}
	c.Delivered = u.fab.Delivered()
	c.Dropped = u.fab.DroppedInFabric()
	c.CentralMsgs = u.fab.CentralNet.Packets()
	c.CentralBytes = u.fab.CentralNet.Bytes()
	if u.sd != nil {
		c.Migrations = u.sd.Migrations()
		c.Seeds = len(u.sd.Placements())
		c.PlacementDigest = u.sd.PlacementDigest()
	}
	if u.reports != nil {
		c.Reports = *u.reports
	}
	return c
}

// sub returns the counts of the window between two reads: cumulative
// fields subtracted, gauges and digests taken from the later read.
func (c counts) sub(before counts) counts {
	d := c
	d.Emitted -= before.Emitted
	d.Delivered -= before.Delivered
	d.Dropped -= before.Dropped
	d.CentralMsgs -= before.CentralMsgs
	d.CentralBytes -= before.CentralBytes
	d.CacheHits -= before.CacheHits
	d.CacheMisses -= before.CacheMisses
	d.SampleDrops -= before.SampleDrops
	d.PollsIssued -= before.PollsIssued
	d.PollsDelivered -= before.PollsDelivered
	d.Probes -= before.Probes
	d.Reports -= before.Reports
	d.Migrations -= before.Migrations
	d.BusBusy -= before.BusBusy
	d.CPUBusy -= before.CPUBusy
	return d
}

// foldDigests folds the per-leaf emission digests, in switch order,
// into one value.
func foldDigests(m map[netmodel.SwitchID]uint64) uint64 {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	h := fnv.New64a()
	var buf [16]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(id))
		binary.LittleEndian.PutUint64(buf[8:], m[netmodel.SwitchID(id)])
		h.Write(buf[:])
	}
	return h.Sum64()
}

// check verifies a built unit from outside: every task it asked for is
// deployed, and the live placement fits the switches. The seeder keeps
// its candidate sets and utility cases private, so of the paper's
// constraints only capacity (C4) and result consistency are visible
// here: each placed seed is presented to placement.CheckFeasible with
// its own switch as candidate set and an unconstrained case.
func (u *simUnit) check() error {
	if u.sd == nil {
		return nil
	}
	have := map[string]bool{}
	for _, n := range u.sd.TaskNames() {
		have[n] = true
	}
	for _, n := range u.tasks {
		if !have[n] {
			return fmt.Errorf("task %s is not deployed", n)
		}
		if len(u.sd.TaskSeeds(n)) == 0 {
			return fmt.Errorf("task %s has no deployed seed", n)
		}
	}
	in := &placement.Input{}
	for _, sw := range u.fab.Topology().Switches() {
		in.Switches = append(in.Switches, placement.SwitchInfo{ID: sw.ID, Capacity: sw.Capacity})
	}
	placed := u.sd.Placements()
	for id, a := range placed {
		in.Seeds = append(in.Seeds, placement.SeedSpec{
			ID: id, Task: id, Candidates: []netmodel.SwitchID{a.Switch},
			Utility: make(poly.Utility, a.Case+1),
		})
	}
	return placement.CheckFeasible(in, &placement.Result{Placed: placed})
}
