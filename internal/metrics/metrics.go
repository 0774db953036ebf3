// Package metrics is the meter set of the emulated data center: one
// record of cumulative counters per switch, the fabric-wide totals, and
// the modelled CPU cost of each operation a switch performs.
//
// The paper's Figs. 5, 6 and 9 report switch CPU load, Fig. 8 PCIe bus
// utilisation and Fig. 4 network load toward centralized components.
// The emulated switches burn no real Atom-CPU cycles, so every operation
// the real system would perform (polling, seed event handling,
// serialization, context switches, ML iterations) charges a modelled
// cost to its switch's CPUMeter, per actually-executed operation: load
// curves inherit their shape from real execution counts.
//
// The fabric makes the Set with its switches and hands each layer a
// pointer to what it counts; recording is a plain field increment. A
// reader takes a window: Snapshot, then Since(prev). The fleet's
// /metrics serves a Snapshot; the figures read windows.
//
// Concurrency contract: the set is plain counters with no lock or
// atomic. It is written only by events on the scheduler that drives the
// fabric, and read from that scheduler's goroutine (in a callback,
// between runs, or through the fleet service's exec).
package metrics

import (
	"slices"
	"time"

	"farm/internal/engine"
	"farm/internal/netmodel"
)

// CPUCores is the management CPU core count of every switch (4 cores = a
// load ceiling of 400% in the paper's plots).
const CPUCores = 4

// CPUMeter is the cumulative busy time of one switch's management CPU.
type CPUMeter time.Duration

// Charge adds d of busy time.
func (m *CPUMeter) Charge(d time.Duration) {
	if d > 0 {
		*m += CPUMeter(d)
	}
}

// Busy returns the cumulative busy time.
func (m *CPUMeter) Busy() time.Duration { return time.Duration(*m) }

// BusMeter is the cumulative accounting of one switch's PCIe bus.
type BusMeter struct {
	Requests uint64        `json:"requests"`
	Bytes    uint64        `json:"bytes"`
	Busy     time.Duration `json:"busy_ns"`
	// DelayMax is the longest queueing delay a transfer has met: a
	// high-water mark, which a window carries instead of subtracting.
	DelayMax time.Duration `json:"delay_max_ns"`
}

// CacheMeter counts the probes of a switch's fused inject flow cache.
type CacheMeter struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Switch is one switch's record.
type Switch struct {
	CPU   CPUMeter   `json:"cpu_busy_ns"`
	Bus   BusMeter   `json:"bus"`
	Cache CacheMeter `json:"flow_cache"`
	// RuleDrops counts the packets a TCAM drop rule dropped here.
	RuleDrops uint64 `json:"rule_drops"`
	// SampleDrops counts the samples the driver dropped on a bus backlog.
	SampleDrops     uint64 `json:"sample_drops"`
	PollsIssued     uint64 `json:"polls_issued"`
	PollsDelivered  uint64 `json:"polls_delivered"`
	ProbesDelivered uint64 `json:"probes_delivered"`
}

// since returns the counts of m's window after prev.
func (m Switch) since(prev Switch) Switch {
	m.CPU -= prev.CPU
	m.Bus.Requests -= prev.Bus.Requests
	m.Bus.Bytes -= prev.Bus.Bytes
	m.Bus.Busy -= prev.Bus.Busy // DelayMax, a high-water mark, stays
	m.Cache.Hits -= prev.Cache.Hits
	m.Cache.Misses -= prev.Cache.Misses
	m.RuleDrops -= prev.RuleDrops
	m.SampleDrops -= prev.SampleDrops
	m.PollsIssued -= prev.PollsIssued
	m.PollsDelivered -= prev.PollsDelivered
	m.ProbesDelivered -= prev.ProbesDelivered
	return m
}

// NetMeter counts the control-plane traffic into the centralized
// components: the collector-bottleneck measurement of Fig. 4.
type NetMeter struct {
	CentralPackets uint64 `json:"central_packets"`
	CentralBytes   uint64 `json:"central_bytes"`
}

// Packets returns the cumulative packet count.
func (m *NetMeter) Packets() uint64 { return m.CentralPackets }

// Bytes returns the cumulative byte count.
func (m *NetMeter) Bytes() uint64 { return m.CentralBytes }

// Totals are the fabric-wide counters.
type Totals struct {
	// Delivered counts the packets that reached their last hop, and
	// DroppedInFabric the ones a TCAM rule dropped on the way.
	Delivered       uint64 `json:"delivered"`
	DroppedInFabric uint64 `json:"dropped_in_fabric"`
	NetMeter
	// Migrations counts the seeder's live seed migrations.
	Migrations uint64 `json:"migrations"`
}

// since returns the counts of t's window after prev.
func (t Totals) since(prev Totals) Totals {
	t.Delivered -= prev.Delivered
	t.DroppedInFabric -= prev.DroppedInFabric
	t.CentralPackets -= prev.CentralPackets
	t.CentralBytes -= prev.CentralBytes
	t.Migrations -= prev.Migrations
	return t
}

// Set is the live meter set of one fabric. Switches is indexed by
// netmodel.SwitchID and never resized: a pointer to a record stays valid.
type Set struct {
	clock    engine.Clock
	Switches []Switch
	Totals
}

// New returns a set of zeroed records for the given number of switches,
// timed by clock.
func New(clock engine.Clock, switches int) *Set {
	return &Set{clock: clock, Switches: make([]Switch, switches)}
}

// Snapshot is what a Set counted over a window of virtual time, Elapsed
// long and ending at the read: from time 0 for Set.Snapshot (so Elapsed
// is the time of the read, served as now), from prev for Since.
type Snapshot struct {
	Elapsed time.Duration `json:"now"`
	Totals
	Switches []Switch `json:"switches"`
}

// Snapshot copies the counters.
func (s *Set) Snapshot() Snapshot {
	return Snapshot{Elapsed: s.clock.Now(), Totals: s.Totals, Switches: slices.Clone(s.Switches)}
}

// Since returns the window from prev to now: every cumulative counter
// less its value in prev, and the virtual time elapsed.
func (s *Set) Since(prev Snapshot) Snapshot {
	w := s.Snapshot()
	w.Elapsed -= prev.Elapsed
	w.Totals = w.Totals.since(prev.Totals)
	for i := range w.Switches {
		w.Switches[i] = w.Switches[i].since(prev.Switches[i])
	}
	return w
}

// Load returns a switch's CPU load over the window, where 1.0 means one
// fully busy core (100% in the paper's plots). Load may exceed
// CPUCores — that is the "CPU unable to handle all seeds" regime of
// Fig. 6c, where demanded work outstrips the processor.
func (w Snapshot) Load(id netmodel.SwitchID) float64 { return w.share(w.Switches[id].CPU.Busy()) }

// Utilization returns the fraction of the window a switch's bus was
// busy (above 1 when the queue has built a backlog beyond now).
func (w Snapshot) Utilization(id netmodel.SwitchID) float64 { return w.share(w.Switches[id].Bus.Busy) }

// share returns busy time d as a fraction of the window.
func (w Snapshot) share(d time.Duration) float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(d) / float64(w.Elapsed)
}

// CentralRate returns the packets and bytes per second into the
// centralized components over the window.
func (w Snapshot) CentralRate() (pktPerSec, bytesPerSec float64) {
	if w.Elapsed <= 0 {
		return 0, 0
	}
	secs := w.Elapsed.Seconds()
	return float64(w.CentralPackets) / secs, float64(w.CentralBytes) / secs
}

// Per-operation CPU costs, calibrated to an Intel Atom C2538-class
// management CPU (the paper's Accton AS5712/AS7712 platforms).
const (
	// CostPollIssue is charged when a poll request is issued to the
	// driver.
	CostPollIssue = 2 * time.Microsecond
	// CostPollPerRecord is charged per statistics record processed on
	// completion (per port or per rule entry).
	CostPollPerRecord = 300 * time.Nanosecond
	// CostHandlerDispatch is charged when a seed event handler fires.
	CostHandlerDispatch = 1 * time.Microsecond
	// CostHandlerPerAction is charged per executed Almanac action.
	CostHandlerPerAction = 400 * time.Nanosecond
	// CostSampleProcess is charged per sampled packet handed to a seed.
	CostSampleProcess = 2 * time.Microsecond
	// CostSerializePerByte is charged for marshalling control messages.
	CostSerializePerByte = 2 * time.Nanosecond
	// CostContextSwitch is charged per wakeup of a process-model seed
	// (thread-model seeds run inline in the soil and skip it).
	CostContextSwitch = 15 * time.Microsecond
	// CostAggregationPerSeed is the soil-side fan-out cost when one poll
	// response is distributed to several seeds.
	CostAggregationPerSeed = 500 * time.Nanosecond
	// CostMLIteration is one iteration of the SVR matrix workload
	// (§VI-A-c), calibrated so that the Fig. 6 load curves land in the
	// paper's range (the Python 1000x1000 multiply is partitioned; one
	// "iteration" here is one partition slice on one Atom core).
	CostMLIteration = 12 * time.Microsecond
)
