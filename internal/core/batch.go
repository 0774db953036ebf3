package core

import "farm/internal/dataplane"

// Batch is the result of one statistics poll in unboxed form: an
// interned record layout plus the records' fields as a flat row-major
// []int64 (every poll field is a counter). It stands for the List of
// StructVal records that List() materialises, and is what the soil hands
// to HandleTrigger: one batch per PCIe completion, shared read-only by
// every subscriber of the polled subject.
//
// A batch is never written after construction, so it has no lifetime
// rule: a seed that keeps one keeps it alive, and no seed can observe
// another's use of it. The register VM reads it in place (list_len,
// list_get, field reads, getHH); everywhere else — the boxed builtin
// bridge, sends, snapshots, Equal, FormatValue, field assignment — it is
// materialised first, so nothing outside core and soil ever holds one.
type Batch struct {
	l    *Layout
	rows int
	cols int     // len(l.Names)
	data []int64 // rows*cols
}

func newBatch(l *Layout, rows int) *Batch {
	cols := len(l.Names)
	return &Batch{l: l, rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

// NewPortStatsBatch builds the batch of a port-statistics poll: one
// PortStats record per polled port, cumulative counters plus deltas
// against prev, the batch of the previous poll of the same ports. A nil
// prev (or a record prev does not have) gives deltas against zero.
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
