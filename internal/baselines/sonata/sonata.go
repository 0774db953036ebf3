// Package sonata emulates a Sonata-style stream-telemetry system
// (Gupta et al., SIGCOMM'18): declarative dataflow queries whose simple
// aggregation steps run in the switch data plane (P4) and whose
// remaining operators run in a centralized micro-batch stream processor
// (the Spark Streaming role).
//
// Characteristics reproduced from the paper's comparison (§VI-B, §VII):
//   - state on switches is limited to per-key aggregates within a
//     window; results only surface at window boundaries, so detection
//     latency ≈ window + micro-batch processing + collection delay
//     (the 3427 ms row in Tab. 4);
//   - no cross-switch stream merging: heavy hitters are switch-local;
//   - each window's partial aggregates stream to the central processor,
//     scaled by a data-plane aggregation factor.
package sonata

import (
	"sort"
	"time"

	"farm/internal/dataplane"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// ReduceOp is the aggregation applied per key within a window.
type ReduceOp int

const (
	Count ReduceOp = iota + 1
	SumBytes
)

// KeyFunc extracts the grouping key from a packet.
type KeyFunc func(p dataplane.Packet, inPort int) string

// KeyByInPort groups by ingress port (port-level HH, comparable to
// FARM's HH seed).
func KeyByInPort(_ dataplane.Packet, inPort int) string {
	return portKey(inPort)
}

func portKey(port int) string {
	return "port:" + itoa(port)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Query is one Sonata dataflow: filter → key → reduce within Window,
// then `having value >= Threshold` evaluated centrally per (switch,key).
type Query struct {
	Name      string
	Filter    dataplane.Filter
	Key       KeyFunc
	Reduce    ReduceOp
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
// per-switch: each (switch, query) aggregate is written by the in-ASIC
// tap and flushed by a window ticker; only the exported batch crosses
// to the stream processor (fabric.SendToCentral). Detections come after
// the micro-batch delay.
type System struct {
	fab   *fabric.Fabric
	sched engine.Scheduler
	cfg   Config

	detections []Detection
	tickers    []engine.Ticker
	stops      []func()
	// keyScratch is the stream processor's reusable sort buffer: the
	// per-window key sort stops allocating once it has grown.
	keyScratch []string
}

// Deploy installs the queries on every switch.
//
// The data-plane part taps packets inside the ASIC (P4 stage), so the
// per-packet path costs no PCIe bandwidth and no management CPU — but
// its state is only a per-key aggregate, flushed at window boundaries
// to the central processor over the collection network.
func Deploy(fab *fabric.Fabric, queries []Query, cfg Config) *System {
	s := &System{
		fab:   fab,
		sched: fab.Sched(),
		cfg:   cfg,
	}
	for _, swInfo := range fab.Topology().Switches() {
		swID := swInfo.ID
		for _, q := range queries {
			q := q
			agg := map[string]float64{}
			// In-ASIC tap: direct sampler on the emulated switch, not
			// through the PCIe-limited driver.
			remove := fab.Switch(swID).AddSampler(q.Filter, 1, func(p dataplane.Packet) {
				// The emulated sampler sees egress-bound packets once
				// per switch; reduce in place.
				key := q.Key(p, 0)
				switch q.Reduce {
				case SumBytes:
					agg[key] += float64(p.Size)
				default:
					agg[key]++
				}
			})
			s.stops = append(s.stops, remove)
			// Window flush: the aggregate never leaves the switch — only
			// the export batch does.
			tk := s.sched.Every(q.Window, func() {
				if len(agg) == 0 {
					return
				}
				batch := agg
				agg = map[string]float64{}
				s.export(q, swID, batch)
			})
			s.tickers = append(s.tickers, tk)
		}
	}
	return s
}

// IngestCounterWindow feeds the data-plane aggregation from bulk port
// counters (used by large-scale workloads that do not generate
// per-packet events): each port with traffic contributes one record per
// window with its byte count.
func (s *System) IngestCounterWindow(q Query, sw netmodel.SwitchID, portBytes map[int]float64) {
	batch := map[string]float64{}
	for port, bytes := range portBytes {
		batch[portKey(port)] = bytes
	}
	if len(batch) == 0 {
		return
	}
	s.export(q, sw, batch)
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
	for _, stop := range s.stops {
		stop()
	}
}
