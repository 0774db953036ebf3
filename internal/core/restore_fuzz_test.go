package core

import (
	"fmt"
	"math/rand"
	"testing"

	"farm/internal/dataplane"
	"farm/internal/netmodel"
	"farm/internal/sketch"
)

// FuzzRestore builds a snapshot from arbitrary bytes — propertySource's
// own names and made-up ones, values of every kind a snapshot carries —
// and restores it into the interpreter and the register runner. Both
// must accept or reject it alike, with one error string. When they
// accept, they must be indistinguishable, and stay so through a short
// seeded drive of triggers and messages.
func FuzzRestore(f *testing.F) {
	cm := parityCompile(f, propertySource, "P")
	f.Add([]byte{})
	f.Add([]byte{1, 1, 4, 0, 0, 1, 7, 0, 1, 5, 3, 1, 9, 2, 1, 0, 1, 40})
	f.Add([]byte{1, 0, 6, 0, 2, 6, 3, 4, 1, 1, 2, 5, 2, 7, 2, 0, 2, 1, 5, 13, 0, 6, 14, 3})
	f.Add([]byte{0, 1, 1, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap := snapshotFrom(fuzzBytes(data))
		p := newBackendSet(t, cm, nil)
		if p.do(t, fmt.Sprintf("restore %+v", snap), func(r Runner) error { return r.Restore(snap) }) != nil {
			return
		}
		diffSet(t, p, "restored")
		rng := rand.New(rand.NewSource(int64(len(data))))
		harv := MsgSource{Harvester: true}
		for i := 0; i < 24; i++ {
			ctx := fmt.Sprintf("step %d", i)
			switch rng.Intn(5) {
			case 0, 1:
				v := int64(rng.Intn(21) - 10)
				p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("tick", v) })
			case 2:
				v := int64(rng.Intn(9))
				p.do(t, ctx, func(r Runner) error { return r.HandleTrigger("tock", v) })
			case 3:
				v := int64(rng.Intn(30))
				p.do(t, ctx, func(r Runner) error { return r.HandleRecv(harv, v) })
			default:
				p.do(t, ctx, func(r Runner) error { return r.HandleRealloc() })
			}
		}
		diffSet(t, p, "driven")
	})
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

func (b *fuzzBytes) pick(from ...string) string { return from[b.next()%len(from)] }

// snapshotFrom decodes a snapshot of machine P (or, now and then, Q): a
// state, then up to 15 entries, each an env variable or a state's
// variable, declared or not, and its value.
func snapshotFrom(b fuzzBytes) Snapshot {
	snap := Snapshot{Machine: "P"}
	if b.next()%8 == 7 {
		snap.Machine = "Q"
	}
	states := []string{"idle", "busy", "nope", ""}
	snap.State = b.pick(states...)
	for n := b.next() % 16; n > 0; n-- {
		if b.next()%3 != 2 {
			if snap.Env == nil {
				snap.Env = map[string]Value{}
			}
			snap.Env[b.pick("total", "counts", "groups", "alias", "seen", "ks", "last", "ghost", "")] = fuzzValue(&b, 2)
			continue
		}
		if snap.StateVars == nil {
			snap.StateVars = map[string]map[string]Value{}
		}
		st := b.pick(states...)
		if snap.StateVars[st] == nil {
			snap.StateVars[st] = map[string]Value{}
		}
		if k := b.next() % 4; k < 3 {
			snap.StateVars[st][[]string{"rounds", "total", "ghost"}[k]] = fuzzValue(&b, 2)
		}
	}
	return snap
}

// fuzzValue decodes one value of any kind; lists and maps nest until
// depth runs out.
func fuzzValue(b *fuzzBytes, depth int) Value {
	kind := b.next() % 15
	if depth <= 0 && (kind == 5 || kind == 6) {
		kind = 1
	}
	switch kind {
	case 0:
		return nil
	case 1:
		return int64(int8(b.next()))
	case 2:
		return float64(int8(b.next())) / 4
	case 3:
		return b.next()%2 == 1
	case 4:
		return b.pick("", "k1", "104", "x y", "Rec")
	case 5:
		var l List
		for n := b.next() % 4; n > 0; n-- {
			l = append(l, fuzzValue(b, depth-1))
		}
		return l
	case 6:
		m := NewMap()
		for n := b.next() % 4; n > 0; n-- {
			m.Set(b.pick("k1", "2", "104", ""), fuzzValue(b, depth-1))
		}
		return m
	case 7:
		return StructOf("Rec", map[string]Value{"key": b.pick("k1", "k2"), "n": int64(b.next())})
	case 8:
		return FilterVal{F: dataplane.Filter{DstPort: uint16(b.next())}, PortAny: b.next()%4 == 0}
	case 9:
		return ActionVal(dataplane.Action(b.next() % 6))
	case 10:
		return PacketVal{SrcPort: uint16(b.next()), DstPort: 80, Proto: dataplane.ProtoTCP, Size: b.next()}
	case 11:
		return ResourcesVal(&netmodel.Vector{netmodel.ResVCPU: float64(b.next() % 8)})
	case 12:
		s := sketch.NewCountMin(16, 2)
		s.Add(b.pick("a", "b"), uint64(b.next()))
		return SketchVal{S: s}
	case 13:
		d := sketch.NewDistinct(64)
		d.Add(b.pick("a", "b"))
		return DistinctVal{D: d}
	default:
		ports := []int{1, 2}
		stats := []dataplane.PortStats{{TxBytes: uint64(b.next())}, {TxBytes: uint64(b.next())}}
		return NewPortStatsBatch(ports, stats, nil, nil)
	}
}
