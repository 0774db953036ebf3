package core

import (
	"math"

	"farm/internal/dataplane"
)

// Batch is the result of one statistics poll in unboxed form: an
// interned record layout plus the records' fields as a flat row-major
// []int64 (every poll field is a counter). It stands for the List of
// StructVal records that List() materialises, and is what the soil hands
// to HandleTrigger: one batch per PCIe completion and cadence class,
// shared read-only by the subscribers of the polled subject it is
// delivered to.
//
// A poll group recycles its batches: each completion is written over a
// batch that no subscriber needs any more (NewPortStatsBatch,
// NewRuleStatsBatch take the batch to write into), so a handler sees its
// records only for the length of its run. A handler that keeps the
// batch, or one of its rows, in a machine or state variable marks it
// kept (the register VM looks when the run ends): a kept batch is never
// written again, and a new one is built in its place.
// Nothing else can keep one: the VM reads a batch in place (list_len,
// is_list_empty, list_get, field reads, getHH) and everywhere else — the
// builtins that read a list as a whole, map entries, sends, snapshots,
// Equal, FormatValue, field assignment — materialises it first, so
// nothing outside core and soil ever holds one.
//
// The one field written while a batch is shared is the getHH memo (hh),
// and only by the handlers the batch is delivered to — all on the soil
// that built it; what it records is a function of the records, so no
// caller can tell whether it was there.
type Batch struct {
	l    *Layout
	rows int
	cols int     // len(l.Names)
	data []int64 // rows*cols
	kept bool    // a handler holds it past its run: never rewritten

	hh [hhMemoSlots]hhMemo
}

// hhMemo is one getHH answer about a port-statistics batch: the boxed
// hitter list for one threshold. An answer carried over from the previous
// completion is a candidate until a scan of this batch confirms it.
type hhMemo struct {
	th      uint64 // math.Float64bits of the threshold
	list    Value  // a List, never written once handed out; nil: slot unused
	checked bool   // list is this batch's answer (false: carried over)
}

// hhMemoSlots is how many thresholds a batch remembers answers for:
// seeds sharing a poll group normally agree on one, and two cover a
// harvester raising it for some of them first.
const hhMemoSlots = 2

// reuse returns the batch a completion of layout l with rows records is
// written to: into itself unless it is nil, of another layout or size, or
// kept by a handler, a new batch otherwise. A new batch takes over the
// getHH answers of into, or of prev (nil, or a batch of layout l), and
// either way the answers carried become candidates.
func reuse(into, prev *Batch, l *Layout, rows int) *Batch {
	b := into
	if b == nil || b.l != l || b.kept || b.rows != rows {
		b = &Batch{l: l, rows: rows, cols: len(l.Names), data: make([]int64, rows*len(l.Names))}
		from := into
		if from == nil || from.l != l {
			from = prev
		}
		if from == nil {
			return b
		}
		b.hh = from.hh
	}
	for i := range b.hh {
		b.hh[i].checked = false
	}
	return b
}

// NewPortStatsBatch returns the batch of a port-statistics poll: one
// PortStats record per polled port, cumulative counters plus deltas
// against prev, an earlier batch of the same ports. A nil prev (or a
// record prev does not have) gives deltas against zero. The batch is
// into rewritten in place when reuse allows (into may be prev), and a
// new batch otherwise.
func NewPortStatsBatch(ports []int, cur []dataplane.PortStats, prev, into *Batch) *Batch {
	if prev != nil && prev.l != portStatsLayout {
		prev = nil
	}
	b := reuse(into, prev, portStatsLayout, len(ports))
	for i, p := range ports {
		// The cumulative columns of the port's previous record, read
		// before the row (which may be that record) is written.
		var was [psTxPkts + 1]int64
		if prev != nil && i < prev.rows && prev.at(i, psPort) == int64(p) {
			copy(was[:], prev.data[i*prev.cols:])
		}
		c := cur[i]
		row := b.data[i*b.cols : (i+1)*b.cols]
		row[psPort] = int64(p)
		row[psRxBytes] = int64(c.RxBytes)
		row[psTxBytes] = int64(c.TxBytes)
		row[psRxPkts] = int64(c.RxPackets)
		row[psTxPkts] = int64(c.TxPackets)
		row[psDRxBytes] = row[psRxBytes] - was[psRxBytes]
		row[psDTxBytes] = row[psTxBytes] - was[psTxBytes]
		row[psDRxPkts] = row[psRxPkts] - was[psRxPkts]
		row[psDTxPkts] = row[psTxPkts] - was[psTxPkts]
	}
	return b
}

// NewRuleStatsBatch returns the one-record batch of a rule-counter poll,
// with deltas against prev, an earlier batch of the rule (nil: zero),
// written over into when reuse allows (into may be prev).
func NewRuleStatsBatch(cur dataplane.RuleStats, prev, into *Batch) *Batch {
	if prev != nil && prev.l != ruleStatsLayout {
		prev = nil
	}
	var wasPkts, wasBytes int64
	if prev != nil {
		wasPkts, wasBytes = prev.data[rsPackets], prev.data[rsBytes]
	}
	b := reuse(into, prev, ruleStatsLayout, 1)
	b.data[rsPackets] = int64(cur.Packets)
	b.data[rsBytes] = int64(cur.Bytes)
	b.data[rsDPackets] = b.data[rsPackets] - wasPkts
	b.data[rsDBytes] = b.data[rsBytes] - wasBytes
	return b
}

// Len returns the number of records.
func (b *Batch) Len() int { return b.rows }

// at reads one field of one record.
func (b *Batch) at(row, col int) int64 { return b.data[row*b.cols+col] }

// record materialises one record as a private struct.
func (b *Batch) record(row int) StructVal {
	v := make([]Value, b.cols)
	for c, x := range b.data[row*b.cols : (row+1)*b.cols] {
		v[c] = x
	}
	return StructVal{L: b.l, V: v}
}

// List materialises the batch as the list of records it stands for.
// Every call builds fresh structs: a write to one never reaches the
// batch or another materialisation.
func (b *Batch) List() List {
	out := make(List, b.rows)
	for i := range out {
		out[i] = b.record(i)
	}
	return out
}

// hitters is getHH on a port-statistics batch: the ports whose dTxBytes
// reach th, boxed. The answer is a function of the batch and th alone,
// so it is worked out once per threshold and the same list handed to
// every caller; when the previous completion's answer names the same
// ports, that list is handed out again and nothing is allocated.
func (b *Batch) hitters(th float64) Value {
	key := math.Float64bits(th)
	i := 0
	for i < len(b.hh) && (b.hh[i].list == nil || b.hh[i].th != key) {
		i++
	}
	if i < len(b.hh) {
		m := &b.hh[i]
		if m.checked || b.sameHitters(th, m.list.(List)) {
			m.checked = true
			return m.list
		}
	} else {
		// A new threshold takes the first slot; the oldest answer goes.
		i = 0
		copy(b.hh[1:], b.hh[:len(b.hh)-1])
	}
	var v Value = zeroListVal
	if l, _ := (listView{b: b}).hitters(th); l != nil {
		v = l
	}
	b.hh[i] = hhMemo{th: key, list: v, checked: true}
	return v
}

// sameHitters reports whether l lists exactly the ports of b whose
// dTxBytes reach th, in record order.
func (b *Batch) sameHitters(th float64, l List) bool {
	n := 0
	for i := 0; i < b.rows; i++ {
		if !(float64(b.at(i, psDTxBytes)) >= th) { // a NaN threshold names no port
			continue
		}
		if n == len(l) {
			return false
		}
		if p, ok := l[n].(int64); !ok || p != b.at(i, psPort) {
			return false
		}
		n++
	}
	return n == len(l)
}
