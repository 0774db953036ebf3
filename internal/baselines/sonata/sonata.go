// Package sonata emulates a Sonata-style stream-telemetry system
// (Gupta et al., SIGCOMM'18): declarative dataflow queries whose simple
// aggregation steps run in the switch data plane (P4) and whose
// remaining operators run in a centralized micro-batch stream processor
// (the Spark Streaming role).
//
// Characteristics reproduced from the paper's comparison (§VI-B, §VII):
//   - state on switches is limited to per-port byte sums within a
//     window; results only surface at window boundaries, so detection
//     latency ≈ window + micro-batch processing + collection delay
//     (the 3427 ms row in Tab. 4);
//   - no cross-switch stream merging: heavy hitters are switch-local;
//   - each window's partial aggregates stream to the central processor,
//     scaled by a data-plane aggregation factor.
package sonata

import (
	"sort"
	"strconv"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// Query is one Sonata dataflow: the bytes each leaf port transmits,
// summed within Window, then `having value >= Threshold` evaluated
// centrally per (switch, port).
type Query struct {
	Name      string
	Window    time.Duration
	Threshold float64
}

// Config tunes the system-level behaviour.
type Config struct {
	// AggregationFactor is the fraction of raw records the data-plane
	// reduction eliminates before export (the paper grants Sonata 75%,
	// the best achievable with the HH ratio changing once a minute).
	AggregationFactor float64
}

// DefaultBatchDelay approximates Spark Streaming micro-batch scheduling
// plus query execution on the paper's collector hardware: results of a
// window surface this long after the window's export lands.
const DefaultBatchDelay = 400 * time.Millisecond

// recordBytes is the export size per surviving record.
const recordBytes = 64

// Detection is one `having` match emitted by the stream processor.
type Detection struct {
	Query  string
	Switch netmodel.SwitchID
	Key    string
	Value  float64
	At     time.Duration
}

// System is a deployed Sonata instance. The data-plane side is
// per-leaf: each (leaf, query) window ticker reads the leaf's port
// counters, and only the exported batch crosses to the stream processor
// (fabric.SendToCentral). Detections come after the micro-batch delay.
type System struct {
	fab   *fabric.Fabric
	sched engine.Scheduler
	cfg   Config

	detections []Detection
	tickers    []engine.Ticker
	// keyScratch is the stream processor's reusable sort buffer: the
	// per-window key sort stops allocating once it has grown.
	keyScratch []string
}

// Deploy installs the queries on every leaf. Each (leaf, query) gets
// one ticker that fires every q.Window and ships each port's positive
// TxBytes delta over the window, keyed "port:<n>": the data plane sums
// bytes at line rate, so the window costs no PCIe bandwidth and no
// management CPU, and the counters it reads and the delta baseline it
// keeps are switch-local. The export enters the collection network at
// its leaf.
func Deploy(fab *fabric.Fabric, queries []Query, cfg Config) *System {
	s := &System{
		fab:   fab,
		sched: fab.Sched(),
		cfg:   cfg,
	}
	for _, swInfo := range fab.Topology().Switches() {
		if swInfo.Role != netmodel.Leaf {
			continue
		}
		swID := swInfo.ID
		for _, q := range queries {
			prev := make([]uint64, fab.NumPorts(swID)+1)
			s.tickers = append(s.tickers, s.sched.Every(q.Window, func() {
				batch := map[string]float64{}
				for port := 1; port < len(prev); port++ {
					st, _ := fab.Switch(swID).PortStats(port)
					if d := st.TxBytes - prev[port]; d > 0 {
						batch["port:"+strconv.Itoa(port)] = float64(d)
					}
					prev[port] = st.TxBytes
				}
				if len(batch) > 0 {
					s.export(q, swID, batch)
				}
			}))
		}
	}
	return s
}

// export ships one window's records from sw to the stream processor:
// the records that survive the data-plane aggregation factor cross the
// collection network, and the micro-batch processes the batch
// DefaultBatchDelay after it lands.
func (s *System) export(q Query, sw netmodel.SwitchID, batch map[string]float64) {
	exported := int(float64(len(batch))*(1-s.cfg.AggregationFactor) + 0.999)
	if exported < 1 {
		exported = 1
	}
	s.fab.SendToCentral(sw, exported*recordBytes, func() {
		s.sched.After(DefaultBatchDelay, func() {
			s.processBatch(q, sw, batch)
		})
	})
}

func (s *System) processBatch(q Query, sw netmodel.SwitchID, batch map[string]float64) {
	keys := s.keyScratch[:0]
	for k := range batch {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := batch[k]
		if v < q.Threshold {
			continue
		}
		s.detections = append(s.detections, Detection{Query: q.Name, Switch: sw, Key: k, Value: v, At: s.sched.Now()})
	}
	// Keep the grown backing array but drop the key references, so the
	// scratch never pins a retired batch's strings.
	for i := range keys {
		keys[i] = ""
	}
	s.keyScratch = keys[:0]
}

// Detections returns all having-matches so far.
func (s *System) Detections() []Detection { return s.detections }

// Stop halts the deployment.
func (s *System) Stop() {
	for _, tk := range s.tickers {
		tk.Stop()
	}
}
