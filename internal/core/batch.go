package core

import (
	"math"

	"farm/internal/dataplane"
)

// Batch is the result of one statistics poll in unboxed form: an
// interned record layout plus the records' fields as a flat row-major
// []int64 (every poll field is a counter). It stands for the List of
// StructVal records that List() materialises, and is what the soil hands
// to HandleTrigger: one batch per PCIe completion, shared read-only by
// every subscriber of the polled subject.
//
// A batch's records are never written after construction, so they have
// no lifetime rule: a seed that keeps one keeps it alive, and no seed can
// observe another's use of it. The one field written later is the getHH
// memo (hh), and only by the handlers the batch is delivered to — all on
// the soil that built it; what it records is a function of the
// records, so no caller can tell whether it was there.
// The register VM reads a batch in place (list_len, is_list_empty,
// list_get, field reads, getHH); everywhere else — the builtins that
// read a list as a whole, sends, snapshots, Equal, FormatValue, field
// assignment — it is materialised first, so nothing outside core and
// soil ever holds one.
type Batch struct {
	l    *Layout
	rows int
	cols int     // len(l.Names)
	data []int64 // rows*cols

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

func newBatch(l *Layout, rows int) *Batch {
	cols := len(l.Names)
	return &Batch{l: l, rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

// NewPortStatsBatch builds the batch of a port-statistics poll: one
// PortStats record per polled port, cumulative counters plus deltas
// against prev, the batch of the previous poll of the same ports. A nil
// prev (or a record prev does not have) gives deltas against zero. The
// batch inherits prev's getHH answers as candidates, never prev itself.
func NewPortStatsBatch(ports []int, cur []dataplane.PortStats, prev *Batch) *Batch {
	if prev != nil && prev.l != portStatsLayout {
		prev = nil
	}
	b := newBatch(portStatsLayout, len(ports))
	var zero [psTxPkts + 1]int64 // the cumulative columns of a port never polled
	for i, p := range ports {
		c := cur[i]
		row := b.data[i*b.cols : (i+1)*b.cols]
		row[psPort] = int64(p)
		row[psRxBytes] = int64(c.RxBytes)
		row[psTxBytes] = int64(c.TxBytes)
		row[psRxPkts] = int64(c.RxPackets)
		row[psTxPkts] = int64(c.TxPackets)
		was := zero[:]
		if prev != nil && i < prev.rows && prev.at(i, psPort) == row[psPort] {
			was = prev.data[i*prev.cols:]
		}
		row[psDRxBytes] = row[psRxBytes] - was[psRxBytes]
		row[psDTxBytes] = row[psTxBytes] - was[psTxBytes]
		row[psDRxPkts] = row[psRxPkts] - was[psRxPkts]
		row[psDTxPkts] = row[psTxPkts] - was[psTxPkts]
	}
	if prev != nil {
		b.hh = prev.hh
		for i := range b.hh {
			b.hh[i].checked = false
		}
	}
	return b
}

// NewRuleStatsBatch builds the one-record batch of a rule-counter poll,
// with deltas against prev, the previous poll's batch (nil: zero).
func NewRuleStatsBatch(cur dataplane.RuleStats, prev *Batch) *Batch {
	b := newBatch(ruleStatsLayout, 1)
	b.data[rsPackets] = int64(cur.Packets)
	b.data[rsBytes] = int64(cur.Bytes)
	b.data[rsDPackets], b.data[rsDBytes] = b.data[rsPackets], b.data[rsBytes]
	if prev != nil && prev.l == ruleStatsLayout {
		b.data[rsDPackets] -= prev.data[rsPackets]
		b.data[rsDBytes] -= prev.data[rsBytes]
	}
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
