package dataplane

import (
	"time"

	"farm/internal/engine"
	"farm/internal/metrics"
)

// Bus models the PCIe link between the switch management CPU and the
// ASIC as a rate-limited FIFO channel. All statistics polling, rule
// updates, and sampled packets cross it; with the capacities measured in
// the paper (8 Mbps polling vs. 100 Gbps ASIC, a 1:12500 ratio) it is
// the first resource to congest (Fig. 8). It meters into a BusMeter.
type Bus struct {
	sched       engine.Scheduler
	bytesPerSec float64
	busyUntil   time.Duration
	m           *metrics.BusMeter

	// free holds the completion records not in flight. A bus belongs to
	// one switch: nothing else touches it.
	free []*completion
}

// completion is one transfer in flight whose end somebody waits for: a
// request's callback with the latency it is owed, or a sampled packet —
// held by value — with the subscriber it goes to. The record is the
// engine event's whole state; fire is bound when the record is made, so
// a transfer builds no closure and, on the engines' handle-free
// schedule, allocates nothing once the free list is warm.
type completion struct {
	bus     *Bus
	fire    func() // c.run
	latency time.Duration
	fn      func(latency time.Duration) // Request's callback, or
	sink    func(Packet)                // Sample's subscriber and
	pkt     Packet                      // the packet it gets
}

// maxFreeCompletions bounds a bus's free list by what a default bus can
// have in flight: a full sample backlog of minimum-size frames (≈ 1.6 k
// records). Records beyond it are left to the garbage collector.
const maxFreeCompletions = DefaultPCIePollBytesPerSec / int(time.Second/DefaultMaxSampleBacklog) / minFrameBytes

// minFrameBytes is the smallest Ethernet frame, the smallest sample.
const minFrameBytes = 64

// DefaultPCIePollBytesPerSec is the paper's measured polling capacity:
// 8 Mbps = 1e6 bytes/s.
const DefaultPCIePollBytesPerSec = 1_000_000

// NewBus returns a bus on the given scheduler with the given capacity in
// bytes per second, metering into a record of its own.
func NewBus(sched engine.Scheduler, bytesPerSec float64) *Bus {
	return newBus(sched, bytesPerSec, new(metrics.BusMeter))
}

func newBus(sched engine.Scheduler, bytesPerSec float64, m *metrics.BusMeter) *Bus {
	if bytesPerSec <= 0 {
		bytesPerSec = DefaultPCIePollBytesPerSec
	}
	return &Bus{sched: sched, bytesPerSec: bytesPerSec, m: m}
}

// admit queues a transfer of size bytes behind everything already on
// the bus, accounts it, and returns its total latency (queueing +
// transfer).
func (b *Bus) admit(size int) (latency time.Duration) {
	now := b.sched.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	transfer := time.Duration(float64(size) / b.bytesPerSec * float64(time.Second))
	done := start + transfer
	b.busyUntil = done
	m := b.m
	m.Requests++
	m.Bytes += uint64(size)
	m.Busy += transfer
	if queueDelay := start - now; queueDelay > m.DelayMax {
		m.DelayMax = queueDelay
	}
	return done - now
}

// record takes a completion record off the free list, or makes one.
func (b *Bus) record() *completion {
	if n := len(b.free); n > 0 {
		c := b.free[n-1]
		b.free = b.free[:n-1]
		return c
	}
	c := &completion{bus: b}
	c.fire = c.run
	return c
}

// complete schedules c to fire when its transfer ends: one engine event
// per transfer, enqueued at request time, so completions keep the
// (time, seq) order of their requests among everything else scheduled
// for the same instant.
func (b *Bus) complete(c *completion) {
	engine.ScheduleOn(b.sched, c.latency, c.fire)
}

// run is the completion event. The callback may use the bus — issue a
// request, stop its own sampler, remove its own seed — so the record
// goes back to the free list only once it has returned.
func (c *completion) run() {
	if c.sink != nil {
		c.sink(c.pkt)
	} else {
		c.fn(c.latency)
	}
	b := c.bus
	if len(b.free) < maxFreeCompletions {
		*c = completion{bus: b, fire: c.fire}
		b.free = append(b.free, c)
	}
}

// Request enqueues a transfer of size bytes and calls fn when it
// completes; fn receives the total latency (queueing + transfer). A nil
// fn only occupies the bus.
func (b *Bus) Request(size int, fn func(latency time.Duration)) {
	latency := b.admit(size)
	if fn == nil {
		return
	}
	c := b.record()
	c.latency, c.fn = latency, fn
	b.complete(c)
}

// Sample enqueues the transfer of one sampled packet and hands the
// packet to sink when the transfer completes. The packet travels in the
// completion record by value; sink receives a copy and may keep it.
func (b *Bus) Sample(size int, p Packet, sink func(Packet)) {
	c := b.record()
	c.latency, c.pkt, c.sink = b.admit(size), p, sink
	b.complete(c)
}

// Backlog returns how far in the future the bus is already committed.
func (b *Bus) Backlog() time.Duration {
	if b.busyUntil <= b.sched.Now() {
		return 0
	}
	return b.busyUntil - b.sched.Now()
}

// Snapshot returns the cumulative accounting.
func (b *Bus) Snapshot() metrics.BusMeter { return *b.m }

// Transfer size constants (bytes) for the operations crossing the bus.
const (
	portStatsReqBytes  = 16 // request descriptor
	portStatsRespBytes = 32 // counters for one port
	ruleStatsBytes     = 48 // request + one rule's counters, or the rule
	ruleUpdateBytes    = 96 // install/remove a TCAM entry
	sampleHeaderBytes  = 128
)

// Driver is the soil's window onto the ASIC (the Stratum / EOS SDK role
// in §V-A): the poll, probe and TCAM-update primitives, each charged to
// the bus by the driver. Polls and samples answer by callback when their
// transfer completes; a rule operation acts when it is called.
type Driver interface {
	// PollPortStats reads counters for the given 1-based ports; nil or
	// empty polls every port. fn receives the ports that exist, in
	// request order (ascending for every port), and their counters as
	// parallel dense slices. Both slices belong to the driver and are
	// valid only until fn returns; the caller must leave ports unmodified
	// until then.
	PollPortStats(ports []int, fn func(ports []int, stats []PortStats))
	// PollRuleStats reads the counters of the rule with exactly filter f.
	PollRuleStats(f Filter, fn func(RuleStats, bool))
	// StartSampling mirrors every matching packet to fn. Each sample
	// crosses the bus; samples are dropped when the backlog exceeds the
	// ASIC's mirror ring (DefaultMaxSampleBacklog). stop unregisters
	// the sampler.
	StartSampling(f Filter, fn func(Packet)) (stop func())
	// AddRule installs r, replacing the rule with the same filter. A
	// write the table refuses (ErrTCAMFull) crosses no bus.
	AddRule(r Rule) error
	// RemoveRule removes the rule with exactly filter f and reports
	// whether there was one; the write crosses the bus either way.
	RemoveRule(f Filter) bool
	// GetRule reads the rule with exactly filter f back from the ASIC.
	GetRule(f Filter) (Rule, bool)
	// HasRule reports whether a rule with exactly filter f is installed,
	// from the driver's shadow of the table: nothing crosses the bus.
	HasRule(f Filter) bool
}

// EmuDriver implements Driver over an emulated Switch and its Bus.
type EmuDriver struct {
	sw  *Switch
	bus *Bus

	allPorts  []int         // 1..NumPorts, what a nil port list polls
	pollPorts []int         // completion scratch, reused across polls
	pollStats []PortStats   // parallel to pollPorts
	freePolls []*pollRecord // poll records not in flight
}

// DefaultMaxSampleBacklog approximates the ASIC's mirror DMA ring
// capacity expressed as time at line rate: a sampler drops a sample once
// the bus backlog exceeds it (the real PCIe DMA ring would overflow).
const DefaultMaxSampleBacklog = 100 * time.Millisecond

// NewEmuDriver returns a driver over the given switch and a bus on
// sched of bytesPerSec (see NewBus) that meters into the switch's record.
func NewEmuDriver(sw *Switch, sched engine.Scheduler, bytesPerSec float64) *EmuDriver {
	return &EmuDriver{sw: sw, bus: newBus(sched, bytesPerSec, &sw.m.Bus)}
}

// Bus exposes the underlying bus for measurement.
func (d *EmuDriver) Bus() *Bus { return d.bus }

// SampleDrops returns the number of samples dropped due to bus backlog.
func (d *EmuDriver) SampleDrops() uint64 { return d.sw.m.SampleDrops }

// PollPortStats implements Driver. Counters are read at completion time
// (the ASIC answers with its state when the request is serviced) into
// scratch slices the next completion overwrites.
func (d *EmuDriver) PollPortStats(ports []int, fn func(ports []int, stats []PortStats)) {
	if len(ports) == 0 {
		if d.allPorts == nil {
			d.allPorts = make([]int, d.sw.NumPorts())
			for i := range d.allPorts {
				d.allPorts[i] = i + 1
			}
		}
		ports = d.allPorts
	}
	p := d.pollRecord()
	p.ports, p.portsFn = ports, fn
	d.enqueue(p, portStatsReqBytes+portStatsRespBytes*len(ports))
}

// PollRuleStats implements Driver.
func (d *EmuDriver) PollRuleStats(f Filter, fn func(RuleStats, bool)) {
	p := d.pollRecord()
	p.rule, p.ruleFn = f, fn
	d.enqueue(p, ruleStatsBytes)
}

// pollRecord is a statistics poll in flight, the polls' counterpart of
// the bus's completion record: the request, and the callback the ASIC's
// answer goes to when the transfer completes. fire is bound when the
// record is made and the record goes back to the driver's free list once
// the callback has returned, so a poll builds no closure. Polls keep
// records of their own because a switch has a handful in flight, while
// a sample backlog keeps thousands of completion records that would each
// carry a poll's fields.
type pollRecord struct {
	drv     *EmuDriver
	fire    func() // p.run
	ports   []int
	portsFn func(ports []int, stats []PortStats) // a port poll's callback, or
	rule    Filter                               // a rule poll's filter and
	ruleFn  func(RuleStats, bool)                // callback
}

// maxFreePolls bounds a driver's free list of poll records: more polls
// than this are in flight at once only behind a long sample backlog.
const maxFreePolls = 64

// pollRecord takes a poll record off the free list, or makes one.
func (d *EmuDriver) pollRecord() *pollRecord {
	if n := len(d.freePolls); n > 0 {
		p := d.freePolls[n-1]
		d.freePolls = d.freePolls[:n-1]
		return p
	}
	p := &pollRecord{drv: d}
	p.fire = p.run
	return p
}

// enqueue puts a poll's transfer of size bytes on the bus and schedules
// its record to fire when the transfer ends: one engine event enqueued
// at request time, as for every transfer, so completions keep the
// (time, seq) order of their requests.
func (d *EmuDriver) enqueue(p *pollRecord, size int) {
	engine.ScheduleOn(d.bus.sched, d.bus.admit(size), p.fire)
}

// run is a poll's completion event: read what was asked for and answer.
func (p *pollRecord) run() {
	d := p.drv
	if p.portsFn != nil {
		d.pollPorts, d.pollStats = d.pollPorts[:0], d.pollStats[:0]
		for _, port := range p.ports {
			if st, err := d.sw.PortStats(port); err == nil {
				d.pollPorts = append(d.pollPorts, port)
				d.pollStats = append(d.pollStats, st)
			}
		}
		p.portsFn(d.pollPorts, d.pollStats)
	} else {
		st, ok := d.sw.TCAM().Stats(p.rule)
		p.ruleFn(st, ok)
	}
	if len(d.freePolls) < maxFreePolls {
		*p = pollRecord{drv: d, fire: p.fire}
		d.freePolls = append(d.freePolls, p)
	}
}

// AddRule implements Driver.
func (d *EmuDriver) AddRule(r Rule) error {
	if err := d.sw.TCAM().AddRule(r); err != nil {
		return err
	}
	d.bus.admit(ruleUpdateBytes)
	return nil
}

// RemoveRule implements Driver.
func (d *EmuDriver) RemoveRule(f Filter) bool {
	ok := d.sw.TCAM().RemoveRule(f)
	d.bus.admit(ruleUpdateBytes)
	return ok
}

// GetRule implements Driver.
func (d *EmuDriver) GetRule(f Filter) (Rule, bool) {
	d.bus.admit(ruleStatsBytes)
	return d.sw.TCAM().GetRule(f)
}

// HasRule implements Driver. The emulated table is its own shadow.
func (d *EmuDriver) HasRule(f Filter) bool {
	_, ok := d.sw.TCAM().GetRule(f)
	return ok
}

// StartSampling implements Driver.
func (d *EmuDriver) StartSampling(f Filter, fn func(Packet)) (stop func()) {
	return d.sw.AddSampler(f, func(p Packet) {
		if d.bus.Backlog() > DefaultMaxSampleBacklog {
			d.sw.m.SampleDrops++
			return
		}
		size := sampleHeaderBytes
		if p.Size < size {
			size = p.Size
		}
		d.bus.Sample(size, p, fn)
	})
}
