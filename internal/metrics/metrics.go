// Package metrics provides CPU and network cost accounting for the
// emulated data center.
//
// The paper's Figs. 5, 6, and 9 report switch CPU load and Fig. 4
// reports network load toward centralized components. Since the emulated
// switches don't burn real Atom-CPU cycles, every operation the real
// system would perform (polling, seed event handling, serialization,
// context switches, ML iterations) charges a modelled cost to a CPUMeter,
// and every control-plane message adds to a NetMeter. Costs are charged
// per actually-executed operation, so load curves inherit their shape
// from real execution counts, not from closed-form formulas.
//
// Concurrency contract: meters are plain counters with no lock or
// atomic. They are mutated only by events on the scheduler that drives
// the fabric, and read from that scheduler's goroutine (in a callback,
// or between runs).
package metrics

import (
	"time"

	"farm/internal/engine"
)

// CPUMeter accumulates busy time for one switch management CPU.
type CPUMeter struct {
	clock engine.Clock
	cores float64
	busy  time.Duration
}

// NewCPUMeter returns a meter for a CPU with the given core count
// (4 cores = a load ceiling of 400% in the paper's plots).
func NewCPUMeter(clock engine.Clock, cores float64) *CPUMeter {
	return &CPUMeter{clock: clock, cores: cores}
}

// Cores returns the core count.
func (m *CPUMeter) Cores() float64 { return m.cores }

// Charge adds d of busy time.
func (m *CPUMeter) Charge(d time.Duration) {
	if d > 0 {
		m.busy += d
	}
}

// Busy returns cumulative busy time.
func (m *CPUMeter) Busy() time.Duration { return m.busy }

// CPUSnapshot is a point-in-time view of a CPUMeter.
type CPUSnapshot struct {
	At   time.Duration
	Busy time.Duration
}

// Snapshot captures the current counters.
func (m *CPUMeter) Snapshot() CPUSnapshot {
	return CPUSnapshot{At: m.clock.Now(), Busy: m.busy}
}

// LoadSince returns the CPU load since an earlier snapshot, where 1.0
// means one fully busy core (100% in the paper's plots). Load may exceed
// Cores() — that is the "CPU unable to handle all seeds" regime of
// Fig. 6c, where demanded work outstrips the processor.
func (m *CPUMeter) LoadSince(prev CPUSnapshot) float64 {
	elapsed := m.clock.Now() - prev.At
	if elapsed <= 0 {
		return 0
	}
	return float64(m.busy-prev.Busy) / float64(elapsed)
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

// NetMeter counts control-plane traffic crossing a measurement point
// (e.g., the links into a central collector).
type NetMeter struct {
	clock   engine.Clock
	packets uint64
	bytes   uint64
}

// NewNetMeter returns a meter on the given clock.
func NewNetMeter(clock engine.Clock) *NetMeter {
	return &NetMeter{clock: clock}
}

// Add records a message of the given wire size.
func (m *NetMeter) Add(packets int, bytes int) {
	m.packets += uint64(packets)
	m.bytes += uint64(bytes)
}

// Packets returns the cumulative packet count.
func (m *NetMeter) Packets() uint64 { return m.packets }

// Bytes returns the cumulative byte count.
func (m *NetMeter) Bytes() uint64 { return m.bytes }

// NetSnapshot is a point-in-time view of a NetMeter.
type NetSnapshot struct {
	At      time.Duration
	Packets uint64
	Bytes   uint64
}

// Snapshot captures the current counters.
func (m *NetMeter) Snapshot() NetSnapshot {
	return NetSnapshot{At: m.clock.Now(), Packets: m.Packets(), Bytes: m.Bytes()}
}

// RateSince returns packets/s and bytes/s since an earlier snapshot.
func (m *NetMeter) RateSince(prev NetSnapshot) (pktPerSec, bytesPerSec float64) {
	elapsed := m.clock.Now() - prev.At
	if elapsed <= 0 {
		return 0, 0
	}
	secs := elapsed.Seconds()
	return float64(m.Packets()-prev.Packets) / secs, float64(m.Bytes()-prev.Bytes) / secs
}
