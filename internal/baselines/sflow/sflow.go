// Package sflow emulates an sFlow-style collection-centric monitoring
// system (RFC 3176): per-switch agents periodically read every port's
// counters, forwarding them unfiltered to a logically centralized
// collector that performs all analysis.
//
// This is the paper's primary generic baseline (§VI-B): detection
// latency is dominated by the collector's analysis interval, network
// load toward the collector grows linearly with the number of ports,
// and the agent CPU cost is flat (poll-and-forward, no switch-local
// filtering).
package sflow

import (
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/metrics"
	"farm/internal/netmodel"
)

// Config parameterizes the deployment.
type Config struct {
	// PollInterval is the agents' counter-export period (the paper runs
	// 1 ms to match FARM's responsiveness, and 10 ms to reduce load). It
	// is also the collector's analysis period: detection happens at
	// analysis boundaries.
	PollInterval time.Duration
	// HHThresholdBytesPerSec classifies a port as a heavy hitter.
	HHThresholdBytesPerSec float64
}

// Detection is one heavy hitter identified by the collector.
type Detection struct {
	Switch netmodel.SwitchID
	Port   int
	At     time.Duration
}

// System is a deployed sFlow instance. The agents are per-switch: each
// polls and pre-serializes on its switch and ships records over the
// collection network (fabric.SendToCentral). The collector state below
// is mutated only inside the shipped callbacks and the analysis ticker.
type System struct {
	sched engine.Scheduler
	cfg   Config

	detections []Detection
	active     map[[2]int]bool // (switch,port) currently flagged
	pendingHH  map[[2]int]bool // classified, awaiting the analysis tick
	// collector state: last seen counters and arrival times
	lastCounters map[[2]int]counterRecord
	tickers      []engine.Ticker
}

type counterRecord struct {
	at time.Duration
	st dataplane.PortStats
}

// counterExportBytes is the wire size of one port's counter record in
// an sFlow datagram.
const counterExportBytes = 88

// Deploy installs agents on every switch and starts the collector.
func Deploy(fab *fabric.Fabric, cfg Config) *System {
	s := &System{
		sched:        fab.Sched(),
		cfg:          cfg,
		active:       map[[2]int]bool{},
		pendingHH:    map[[2]int]bool{},
		lastCounters: map[[2]int]counterRecord{},
	}
	for _, sw := range fab.Topology().Switches() {
		swID := sw.ID
		drv := fab.Driver(swID)
		cpu := fab.CPU(swID)
		// Counter polling agent: read all ports, pre-serialize, forward
		// unfiltered. The poll, the CPU charges, and the export all stay
		// switch-local; only the serialized record crosses to the
		// collector.
		tk := s.sched.Every(cfg.PollInterval, func() {
			cpu.Charge(metrics.CostPollIssue)
			drv.PollPortStats(nil, func(ports []int, stats []dataplane.PortStats) {
				// The agent does NOT analyze: it serializes and ships.
				cpu.Charge(time.Duration(len(stats)) * metrics.CostPollPerRecord)
				size := len(stats) * counterExportBytes
				at := s.sched.Now()
				// The datagram outlives the callback; the driver's
				// slices do not.
				ports, stats = append([]int(nil), ports...), append([]dataplane.PortStats(nil), stats...)
				fab.SendToCentral(swID, size, func() {
					s.ingestCounters(swID, at, ports, stats)
				})
			})
		})
		s.tickers = append(s.tickers, tk)
	}
	// Collector analysis loop.
	s.tickers = append(s.tickers, s.sched.Every(cfg.PollInterval, s.analyze))
	return s
}

func (s *System) ingestCounters(sw netmodel.SwitchID, at time.Duration, ports []int, stats []dataplane.PortStats) {
	for i, port := range ports {
		st := stats[i]
		key := [2]int{int(sw), port}
		prev, ok := s.lastCounters[key]
		if !ok {
			s.lastCounters[key] = counterRecord{at: at, st: st}
			continue
		}
		// Keep the newest record; rate computed at analysis time uses
		// the previous analysis window baseline, so store both.
		if at > prev.at {
			s.lastCounters[key] = counterRecord{at: at, st: st}
			s.analyzeRate(sw, port, prev, counterRecord{at: at, st: st})
		}
	}
}

// analyzeRate classifies based on the rate between two consecutive
// reports; detection is only surfaced at the collector's analysis tick,
// so here we just stage the classification.
func (s *System) analyzeRate(sw netmodel.SwitchID, port int, prev, cur counterRecord) {
	elapsed := cur.at - prev.at
	if elapsed <= 0 {
		return
	}
	rate := float64(cur.st.TxBytes-prev.st.TxBytes) / elapsed.Seconds()
	key := [2]int{int(sw), port}
	if rate >= s.cfg.HHThresholdBytesPerSec {
		s.pendingHH[key] = true
	} else {
		delete(s.pendingHH, key)
		delete(s.active, key)
	}
}

func (s *System) analyze() {
	for key := range s.pendingHH {
		if s.active[key] {
			continue
		}
		s.active[key] = true
		s.detections = append(s.detections, Detection{Switch: netmodel.SwitchID(key[0]), Port: key[1], At: s.sched.Now()})
	}
}

// Detections returns all heavy hitters found so far.
func (s *System) Detections() []Detection { return s.detections }

// Stop halts agents and collector.
func (s *System) Stop() {
	for _, tk := range s.tickers {
		tk.Stop()
	}
}
