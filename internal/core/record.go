package core

import (
	"sort"
	"strings"
	"sync"
)

// Layout is the interned shape of a struct type: an ordered field list
// plus a name→index map. Two StructVals with the same *Layout hold
// their fields at identical offsets, so compiled code (and the register
// VM's inline field caches) can replace per-record map lookups with an
// indexed load after a single pointer comparison. Layouts are interned
// globally: the same (type, field order) always yields the same
// pointer.
type Layout struct {
	TypeName string
	Names    []string
	index    map[string]int
	sorted   []int // for each name in sorted order, the slot it reads
}

// Index returns the slot of a field name, or -1.
func (l *Layout) Index(name string) int {
	if i, ok := l.index[name]; ok {
		return i
	}
	return -1
}

// layoutTab interns layouts for the whole process. Simulations that run
// at once in one process each link their programs on their own engine
// goroutine (two fleet services, a leader and a standby, each on its
// drive goroutine; seeder.TestConcurrentSimulations runs two), and all
// of them intern here, so layoutMu guards it.
var (
	layoutMu  sync.Mutex
	layoutTab = map[string]*Layout{}
)

// LayoutOf interns the layout for a struct type with the given field
// order. Field order is significant: `{a, b}` and `{b, a}` are distinct
// layouts (Equal still compares by name, so values with either layout
// compare equal when their fields match).
func LayoutOf(typeName string, names []string) *Layout {
	key := typeName + "\x1f" + strings.Join(names, "\x1f")
	layoutMu.Lock()
	defer layoutMu.Unlock()
	if l, ok := layoutTab[key]; ok {
		return l
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	l := &Layout{TypeName: typeName, Names: append([]string(nil), names...), index: idx, sorted: make([]int, len(sorted))}
	for i, n := range sorted {
		l.sorted[i] = idx[n]
	}
	layoutTab[key] = l
	return l
}

// StructVal is a struct instance: an interned layout plus a flat field
// slice. The slice is shared by reference (like the old field map), so
// mutation through one handle is visible through every alias.
type StructVal struct {
	L *Layout
	V []Value
}

// Type returns the struct's type name.
func (s StructVal) Type() string {
	if s.L == nil {
		return ""
	}
	return s.L.TypeName
}

// Get looks a field up by name.
func (s StructVal) Get(name string) (Value, bool) {
	if s.L == nil {
		return nil, false
	}
	if i, ok := s.L.index[name]; ok {
		return s.V[i], true
	}
	return nil, false
}

// Set assigns a field by name, reporting whether it exists.
func (s StructVal) Set(name string, v Value) bool {
	if s.L == nil {
		return false
	}
	if i, ok := s.L.index[name]; ok {
		s.V[i] = v
		return true
	}
	return false
}

// Pre-interned layouts for the poll records the soil hands to seeds on
// every statistics tick. The constant indices keep the record builders
// map-free on the per-poll hot path.
var (
	portStatsLayout = LayoutOf("PortStats", []string{
		"port", "rxBytes", "txBytes", "rxPkts", "txPkts",
		"dRxBytes", "dTxBytes", "dRxPkts", "dTxPkts",
	})
	ruleStatsLayout = LayoutOf("RuleStats", []string{
		"packets", "bytes", "dPackets", "dBytes",
	})
	ruleLayout = LayoutOf("Rule", []string{"pattern", "act", "priority"})
)

const (
	psPort = iota
	psRxBytes
	psTxBytes
	psRxPkts
	psTxPkts
	psDRxBytes
	psDTxBytes
	psDRxPkts
	psDTxPkts
)

const (
	rsPackets = iota
	rsBytes
	rsDPackets
	rsDBytes
)
