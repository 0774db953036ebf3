package dataplane

import (
	"time"

	"farm/internal/engine"
)

// Bus models the PCIe link between the switch management CPU and the
// ASIC as a rate-limited FIFO channel. All statistics polling, rule
// updates, and sampled packets cross it; with the capacities measured in
// the paper (8 Mbps polling vs. 100 Gbps ASIC, a 1:12500 ratio) it is
// the first resource to congest (Fig. 8).
type Bus struct {
	sched       engine.Scheduler
	bytesPerSec float64
	busyUntil   time.Duration

	// cumulative accounting
	requests   uint64
	bytes      uint64
	busy       time.Duration
	delaySum   time.Duration
	delayMax   time.Duration
	lastActive time.Duration
}

// DefaultPCIePollBytesPerSec is the paper's measured polling capacity:
// 8 Mbps = 1e6 bytes/s.
const DefaultPCIePollBytesPerSec = 1_000_000

// NewBus returns a bus on the given scheduler (under the sharded
// engine: the owning switch's shard view) with the given capacity in
// bytes per second.
func NewBus(sched engine.Scheduler, bytesPerSec float64) *Bus {
	if bytesPerSec <= 0 {
		bytesPerSec = DefaultPCIePollBytesPerSec
	}
	return &Bus{sched: sched, bytesPerSec: bytesPerSec}
}

// Request enqueues a transfer of size bytes and calls fn when it
// completes; fn receives the total latency (queueing + transfer).
func (b *Bus) Request(size int, fn func(latency time.Duration)) {
	now := b.sched.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	transfer := time.Duration(float64(size) / b.bytesPerSec * float64(time.Second))
	done := start + transfer
	b.busyUntil = done
	b.requests++
	b.bytes += uint64(size)
	b.busy += transfer
	queueDelay := start - now
	b.delaySum += queueDelay
	if queueDelay > b.delayMax {
		b.delayMax = queueDelay
	}
	latency := done - now
	if fn != nil {
		b.sched.At(done, func() { fn(latency) })
	}
}

// Backlog returns how far in the future the bus is already committed.
func (b *Bus) Backlog() time.Duration {
	if b.busyUntil <= b.sched.Now() {
		return 0
	}
	return b.busyUntil - b.sched.Now()
}

// BusSnapshot is a point-in-time view of cumulative bus accounting.
type BusSnapshot struct {
	At       time.Duration
	Requests uint64
	Bytes    uint64
	Busy     time.Duration
	DelaySum time.Duration
	DelayMax time.Duration
}

// Snapshot returns the cumulative counters.
func (b *Bus) Snapshot() BusSnapshot {
	return BusSnapshot{
		At:       b.sched.Now(),
		Requests: b.requests,
		Bytes:    b.bytes,
		Busy:     b.busy,
		DelaySum: b.delaySum,
		DelayMax: b.delayMax,
	}
}

// UtilizationSince returns the fraction of time the bus was busy between
// an earlier snapshot and now (may exceed 1 when the queue has built a
// backlog beyond "now").
func (b *Bus) UtilizationSince(prev BusSnapshot) float64 {
	elapsed := b.sched.Now() - prev.At
	if elapsed <= 0 {
		return 0
	}
	return float64(b.busy-prev.Busy) / float64(elapsed)
}

// Transfer size constants (bytes) for the operations crossing the bus.
const (
	portStatsReqBytes  = 16 // request descriptor
	portStatsRespBytes = 32 // counters for one port
	ruleStatsBytes     = 48 // request + one rule's counters
	ruleUpdateBytes    = 96 // install/remove a TCAM entry
	sampleHeaderBytes  = 128
)

// Driver is the soil's window onto the ASIC (the Stratum / EOS SDK role
// in §V-A). All operations are asynchronous: results arrive via
// callback after the modelled bus transfer completes.
type Driver interface {
	// NumPorts reports the ASIC port count.
	NumPorts() int
	// PollPortStats reads counters for the given 1-based ports; nil or
	// empty polls every port. fn receives the ports that exist, in
	// request order (ascending for every port), and their counters as
	// parallel dense slices. Both slices belong to the driver and are
	// valid only until fn returns; the caller must leave ports unmodified
	// until then.
	PollPortStats(ports []int, fn func(ports []int, stats []PortStats))
	// PollRuleStats reads the counters of the rule with exactly filter f.
	PollRuleStats(f Filter, fn func(RuleStats, bool))
	// AddRule installs a TCAM rule.
	AddRule(r Rule, fn func(error))
	// RemoveRule removes the rule with exactly filter f.
	RemoveRule(f Filter, fn func(removed bool))
	// GetRule fetches the rule with exactly filter f.
	GetRule(f Filter, fn func(Rule, bool))
	// StartSampling mirrors 1-in-N matching packets to fn. Each sample
	// crosses the bus; samples are dropped when the backlog exceeds the
	// driver's limit. stop unregisters the sampler.
	StartSampling(f Filter, oneInN int, fn func(Packet)) (stop func())
}

// EmuDriver implements Driver over an emulated Switch and Bus.
type EmuDriver struct {
	sw  *Switch
	bus *Bus
	// MaxSampleBacklog drops samples once the bus backlog exceeds it
	// (the real PCIe DMA ring would overflow); 0 means DefaultMaxSampleBacklog.
	MaxSampleBacklog time.Duration
	sampleDrops      uint64

	allPorts  []int       // 1..NumPorts, what a nil port list polls
	pollPorts []int       // completion scratch, reused across polls
	pollStats []PortStats // parallel to pollPorts
}

// DefaultMaxSampleBacklog approximates the ASIC's mirror DMA ring
// capacity expressed as time at line rate.
const DefaultMaxSampleBacklog = 100 * time.Millisecond

// NewEmuDriver returns a driver over the given switch and bus.
func NewEmuDriver(sw *Switch, bus *Bus) *EmuDriver {
	return &EmuDriver{sw: sw, bus: bus}
}

// Switch exposes the underlying emulated switch (test and traffic
// generator access; M&M code must stay behind the Driver interface).
func (d *EmuDriver) Switch() *Switch { return d.sw }

// Bus exposes the underlying bus for measurement.
func (d *EmuDriver) Bus() *Bus { return d.bus }

// SampleDrops returns the number of samples dropped due to bus backlog.
func (d *EmuDriver) SampleDrops() uint64 { return d.sampleDrops }

// NumPorts implements Driver.
func (d *EmuDriver) NumPorts() int { return d.sw.NumPorts() }

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
	size := portStatsReqBytes + portStatsRespBytes*len(ports)
	d.bus.Request(size, func(time.Duration) {
		d.pollPorts, d.pollStats = d.pollPorts[:0], d.pollStats[:0]
		for _, p := range ports {
			if st, err := d.sw.PortStats(p); err == nil {
				d.pollPorts = append(d.pollPorts, p)
				d.pollStats = append(d.pollStats, st)
			}
		}
		fn(d.pollPorts, d.pollStats)
	})
}

// PollRuleStats implements Driver.
func (d *EmuDriver) PollRuleStats(f Filter, fn func(RuleStats, bool)) {
	d.bus.Request(ruleStatsBytes, func(time.Duration) {
		st, ok := d.sw.TCAM().Stats(f)
		fn(st, ok)
	})
}

// AddRule implements Driver.
func (d *EmuDriver) AddRule(r Rule, fn func(error)) {
	d.bus.Request(ruleUpdateBytes, func(time.Duration) {
		err := d.sw.TCAM().AddRule(r)
		if fn != nil {
			fn(err)
		}
	})
}

// RemoveRule implements Driver.
func (d *EmuDriver) RemoveRule(f Filter, fn func(bool)) {
	d.bus.Request(ruleUpdateBytes, func(time.Duration) {
		ok := d.sw.TCAM().RemoveRule(f)
		if fn != nil {
			fn(ok)
		}
	})
}

// GetRule implements Driver.
func (d *EmuDriver) GetRule(f Filter, fn func(Rule, bool)) {
	d.bus.Request(ruleStatsBytes, func(time.Duration) {
		r, ok := d.sw.TCAM().GetRule(f)
		fn(r, ok)
	})
}

// StartSampling implements Driver.
func (d *EmuDriver) StartSampling(f Filter, oneInN int, fn func(Packet)) (stop func()) {
	limit := d.MaxSampleBacklog
	if limit == 0 {
		limit = DefaultMaxSampleBacklog
	}
	return d.sw.AddSampler(f, oneInN, func(p Packet) {
		if d.bus.Backlog() > limit {
			d.sampleDrops++
			return
		}
		size := sampleHeaderBytes
		if p.Size < size {
			size = p.Size
		}
		d.bus.Request(size, func(time.Duration) { fn(p) })
	})
}
