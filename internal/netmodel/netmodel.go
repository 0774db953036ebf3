// Package netmodel models the data center network: switches, links,
// hosts, and path enumeration.
//
// It plays the role of the SDN controller's topology view in the paper:
// the seeder resolves Almanac place directives by asking the controller
// for the set of paths matching a traffic filter (φ_path in §III-B) and
// for the switches present in the fabric. The fabric forwards over the
// same view, which is fixed once it is finished (see Topology).
package netmodel

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Resource type names used throughout FARM. These match the three
// ASIC-specific resource classes the soil tracks (§II-B-b) plus the
// general-purpose CPU/RAM of the switch management system.
const (
	ResVCPU = "vCPU" // management-system CPU cores
	ResRAM  = "RAM"  // management-system memory, MB
	ResTCAM = "TCAM" // TCAM entries available to monitoring
	ResPCIe = "PCIe" // CPU<->ASIC bus share for probing (normalized units)
	ResPoll = "poll" // statistics polling capacity, requests/s
)

// Resources maps resource type to amount. The zero value (nil) means
// "no resources".
type Resources map[string]float64

// Clone returns a deep copy.
func (r Resources) Clone() Resources {
	c := make(Resources, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Add returns r + s (neither operand is modified).
func (r Resources) Add(s Resources) Resources {
	c := r.Clone()
	for k, v := range s {
		c[k] += v
	}
	return c
}

// Sub returns r - s (neither operand is modified).
func (r Resources) Sub(s Resources) Resources {
	c := r.Clone()
	for k, v := range s {
		c[k] -= v
	}
	return c
}

// Scale returns k*r.
func (r Resources) Scale(k float64) Resources {
	c := make(Resources, len(r))
	for name, v := range r {
		c[name] = v * k
	}
	return c
}

// AtLeast reports whether r >= s component-wise (within eps).
func (r Resources) AtLeast(s Resources, eps float64) bool {
	for k, v := range s {
		if r[k] < v-eps {
			return false
		}
	}
	return true
}

// AsFloats returns r as a plain map for polynomial evaluation.
func (r Resources) AsFloats() map[string]float64 { return r }

func (r Resources) String() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, r[k])
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// Role classifies a switch within the fabric.
type Role int

const (
	Leaf Role = iota + 1
	Spine
	Core
)

func (r Role) String() string {
	switch r {
	case Leaf:
		return "leaf"
	case Spine:
		return "spine"
	case Core:
		return "core"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// SwitchID identifies a switch within one Topology.
type SwitchID int

// HostID identifies a host within one Topology.
type HostID int

// Switch is a network switch with its resource capacity.
type Switch struct {
	ID       SwitchID
	Name     string
	Role     Role
	Capacity Resources
}

// Host is an end host attached to a leaf switch.
type Host struct {
	ID   HostID
	IP   netip.Addr
	Leaf SwitchID
}

// Path is a sequence of switches from the sender-side leaf to the
// receiver-side leaf (inclusive).
type Path []SwitchID

// Key returns a canonical string form usable as a map key.
func (p Path) Key() string {
	parts := make([]string, len(p))
	for i, n := range p {
		parts[i] = fmt.Sprintf("%d", int(n))
	}
	return strings.Join(parts, "-")
}

// Topology is the fabric graph plus attached hosts. A builder such as
// SpineLeaf hands it out finished; New, AddSwitch, AddLink and AddHost
// build one by hand, and Finish (or fabric.New) fixes it. Once finished
// it never changes, so the path table and the fabric's ports describe
// one network, and any number of goroutines may read it (Paths
// included) concurrently. Building is not safe for concurrent use.
type Topology struct {
	switches []Switch
	// adj is the adjacency by SwitchID, one entry per link end, sorted
	// by Finish: the order that fixes ECMP order and port numbers.
	adj   [][]SwitchID
	hosts []Host
	byIP  map[netip.Addr]HostID
	// rows is the ECMP table behind Paths and Hops, by source switch,
	// each row computed on its first query; nil until Finish.
	rows []atomic.Pointer[pathRow]
}

// DefaultMaxECMP bounds the number of equal-cost paths enumerated per
// switch pair, mirroring hardware ECMP group limits.
const DefaultMaxECMP = 16

// New returns an empty topology, open for AddSwitch, AddLink and AddHost
// until Finish.
func New() *Topology {
	return &Topology{byIP: make(map[netip.Addr]HostID)}
}

// Finish fixes the topology: it sorts the adjacency and makes the path
// table that Paths and Hops read; from then on AddSwitch, AddLink and
// AddHost panic. Finishing a finished topology does nothing.
func (t *Topology) Finish() {
	if t.rows != nil {
		return
	}
	for _, nbs := range t.adj {
		slices.Sort(nbs)
	}
	t.rows = make([]atomic.Pointer[pathRow], len(t.switches))
}

// mustBeOpen panics if t is finished.
func (t *Topology) mustBeOpen(op string) {
	if t.rows != nil {
		panic("netmodel: " + op + " on a finished topology: the network is fixed once a builder or fabric.New has finished it")
	}
}

// AddSwitch adds a switch and returns its ID.
func (t *Topology) AddSwitch(name string, role Role, capacity Resources) SwitchID {
	t.mustBeOpen("AddSwitch")
	id := SwitchID(len(t.switches))
	t.switches = append(t.switches, Switch{ID: id, Name: name, Role: role, Capacity: capacity.Clone()})
	t.adj = append(t.adj, nil)
	return id
}

// AddLink adds an undirected link between a and b, which must be IDs
// AddSwitch returned.
func (t *Topology) AddLink(a, b SwitchID) {
	t.mustBeOpen("AddLink")
	if n := SwitchID(len(t.switches)); a < 0 || a >= n || b < 0 || b >= n {
		panic(fmt.Sprintf("netmodel: link %d-%d names a switch that was never added (have %d)", a, b, n))
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

// AddHost attaches a host with the given IP to a leaf switch, which
// must be an ID AddSwitch returned.
func (t *Topology) AddHost(leaf SwitchID, ip netip.Addr) (HostID, error) {
	t.mustBeOpen("AddHost")
	if n := SwitchID(len(t.switches)); leaf < 0 || leaf >= n {
		return 0, fmt.Errorf("netmodel: host %v names switch %d, which was never added (have %d)", ip, leaf, n)
	}
	if _, dup := t.byIP[ip]; dup {
		return 0, fmt.Errorf("netmodel: duplicate host IP %v", ip)
	}
	id := HostID(len(t.hosts))
	t.hosts = append(t.hosts, Host{ID: id, IP: ip, Leaf: leaf})
	t.byIP[ip] = id
	return id, nil
}

// Switches returns all switches (callers must not modify the slice).
func (t *Topology) Switches() []Switch { return t.switches }

// NumSwitches returns the switch count.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// Switch returns the switch with the given ID.
func (t *Topology) Switch(id SwitchID) Switch { return t.switches[id] }

// Hosts returns all hosts (callers must not modify the slice).
func (t *Topology) Hosts() []Host { return t.hosts }

// HostByIP looks a host up by address.
func (t *Topology) HostByIP(ip netip.Addr) (Host, bool) {
	id, ok := t.byIP[ip]
	if !ok {
		return Host{}, false
	}
	return t.hosts[id], true
}

// Neighbors returns the adjacency list of s, sorted once the topology
// is finished (callers must not modify it).
func (t *Topology) Neighbors(s SwitchID) []SwitchID { return t.adj[s] }

// SwitchIDs returns all switch IDs in order.
func (t *Topology) SwitchIDs() []SwitchID {
	ids := make([]SwitchID, len(t.switches))
	for i := range t.switches {
		ids[i] = SwitchID(i)
	}
	return ids
}

// Paths returns all shortest paths from src to dst in ECMP order, up to
// DefaultMaxECMP: nil when dst is unreachable, the single-element path
// when src == dst.
//
// It is a lookup in a per-(src, dst) table that a controller would
// push to the switches: a cell is computed on its first query and
// shared by every later one. The result is table memory — callers must
// not modify the slice or any path in it. The topology must be
// finished. Safe for concurrent use, lock-free.
func (t *Topology) Paths(src, dst SwitchID) []Path {
	row := t.row(src)
	if row == nil || dst < 0 || int(dst) >= len(row.cells) {
		// Not a switch of this topology: nothing links to it.
		if src == dst {
			return []Path{{src}}
		}
		return nil
	}
	if ps := row.cells[dst].Load(); ps != nil {
		return *ps
	}
	ps := t.enumerate(row, dst)
	row.cells[dst].Store(&ps)
	return ps
}

// Hops returns the number of links on a shortest path from src to dst:
// -1 when dst is unreachable, 0 when src == dst. It reads the same
// table row as Paths(src, dst), so the topology must be finished.
func (t *Topology) Hops(src, dst SwitchID) int {
	row := t.row(src)
	if row == nil || dst < 0 || int(dst) >= len(row.dist) {
		if src == dst {
			return 0
		}
		return -1
	}
	return int(row.dist[dst])
}

// pathRow holds what is known from one source switch. Everything in it
// is a pure function of the finished adjacency, and nothing reachable
// from a published pointer is ever written again, so racing fills may
// publish duplicates but never different answers.
type pathRow struct {
	dist  []int32                  // hops from the source, -1 = unreachable
	cells []atomic.Pointer[[]Path] // by destination; nil = not yet computed
}

// row returns the table row of src, running its BFS on the first query;
// nil if src is not a switch of t.
func (t *Topology) row(src SwitchID) *pathRow {
	if t.rows == nil {
		panic("netmodel: path query on a topology that is not finished (call Finish)")
	}
	if src < 0 || int(src) >= len(t.rows) {
		return nil
	}
	row := t.rows[src].Load()
	if row == nil {
		row = t.newRow(src)
		if !t.rows[src].CompareAndSwap(nil, row) {
			row = t.rows[src].Load()
		}
	}
	return row
}

// newRow runs the BFS from src that every cell of the row shares.
func (t *Topology) newRow(src SwitchID) *pathRow {
	row := &pathRow{
		dist:  make([]int32, len(t.rows)),
		cells: make([]atomic.Pointer[[]Path], len(t.rows)),
	}
	for i := range row.dist {
		row.dist[i] = -1
	}
	row.dist[src] = 0
	queue := []SwitchID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[cur] {
			if row.dist[nb] < 0 {
				row.dist[nb] = row.dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return row
}

// enumerate walks back from dst along strictly decreasing distance,
// neighbours in ascending order, until the cap is reached. All paths of
// a cell have the same length and share one backing array.
func (t *Topology) enumerate(row *pathRow, dst SwitchID) []Path {
	if row.dist[dst] < 0 {
		return nil
	}
	hops := int(row.dist[dst]) + 1
	cur := make(Path, hops) // cur[d] is the node at distance d on the walk
	var flat []SwitchID
	var walk func(node SwitchID)
	walk = func(node SwitchID) {
		d := row.dist[node]
		cur[d] = node
		if d == 0 {
			flat = append(flat, cur...)
			return
		}
		for _, nb := range t.adj[node] {
			if len(flat) >= DefaultMaxECMP*hops {
				return
			}
			if row.dist[nb] == d-1 {
				walk(nb)
			}
		}
	}
	walk(dst)
	paths := make([]Path, len(flat)/hops)
	for i := range paths {
		paths[i] = flat[i*hops : (i+1)*hops : (i+1)*hops]
	}
	return paths
}

// PathsBetweenPrefixes returns the set of shortest paths carrying
// traffic from any host in srcPfx to any host in dstPfx, ordered by
// (source leaf, destination leaf, ECMP order). This is φ_path from
// §III-B: the seeder's query to the SDN controller when resolving a
// range placement constraint. The leaf lists are deduplicated and the
// paths of distinct leaf pairs differ in an endpoint, so no path
// repeats. The paths themselves are table memory (see Paths).
func (t *Topology) PathsBetweenPrefixes(srcPfx, dstPfx netip.Prefix) []Path {
	var srcLeaves, dstLeaves []SwitchID
	seenSrc := map[SwitchID]bool{}
	seenDst := map[SwitchID]bool{}
	for _, h := range t.hosts {
		if srcPfx.Contains(h.IP) && !seenSrc[h.Leaf] {
			seenSrc[h.Leaf] = true
			srcLeaves = append(srcLeaves, h.Leaf)
		}
		if dstPfx.Contains(h.IP) && !seenDst[h.Leaf] {
			seenDst[h.Leaf] = true
			dstLeaves = append(dstLeaves, h.Leaf)
		}
	}
	sort.Slice(srcLeaves, func(i, j int) bool { return srcLeaves[i] < srcLeaves[j] })
	sort.Slice(dstLeaves, func(i, j int) bool { return dstLeaves[i] < dstLeaves[j] })
	var out []Path
	for _, s := range srcLeaves {
		for _, d := range dstLeaves {
			out = append(out, t.Paths(s, d)...)
		}
	}
	return out
}

// SpineLeafOptions configures the SpineLeaf builder.
type SpineLeafOptions struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	// LeafCapacity/SpineCapacity default to DefaultLeafCapacity /
	// DefaultSpineCapacity when nil.
	LeafCapacity  Resources
	SpineCapacity Resources
}

// DefaultLeafCapacity models an Accton AS5712-class switch: 4-core Atom
// (400% CPU), 8 GB RAM, monitoring TCAM share, PCIe polling budget.
func DefaultLeafCapacity() Resources {
	return Resources{ResVCPU: 4, ResRAM: 8192, ResTCAM: 1024, ResPCIe: 16, ResPoll: 20000}
}

// DefaultSpineCapacity models an AS7712-class switch (same CPU, twice
// the RAM, larger TCAM).
func DefaultSpineCapacity() Resources {
	return Resources{ResVCPU: 4, ResRAM: 16384, ResTCAM: 2048, ResPCIe: 16, ResPoll: 20000}
}

// SpineLeaf builds a two-tier Clos fabric: every leaf is connected to
// every spine, and hostsPerLeaf hosts hang off each leaf with addresses
// 10.<leaf>.<k/250>.<k%250+1>. The topology is finished.
func SpineLeaf(opts SpineLeafOptions) (*Topology, error) {
	if opts.Spines <= 0 || opts.Leaves <= 0 {
		return nil, fmt.Errorf("netmodel: spine-leaf needs positive spines (%d) and leaves (%d)", opts.Spines, opts.Leaves)
	}
	if opts.HostsPerLeaf < 0 {
		return nil, fmt.Errorf("netmodel: spine-leaf needs non-negative hosts per leaf, got %d", opts.HostsPerLeaf)
	}
	if opts.Leaves > 250 {
		return nil, fmt.Errorf("netmodel: at most 250 leaves supported by the addressing scheme, got %d", opts.Leaves)
	}
	leafCap := opts.LeafCapacity
	if leafCap == nil {
		leafCap = DefaultLeafCapacity()
	}
	spineCap := opts.SpineCapacity
	if spineCap == nil {
		spineCap = DefaultSpineCapacity()
	}
	t := New()
	spines := make([]SwitchID, opts.Spines)
	for i := range spines {
		spines[i] = t.AddSwitch(fmt.Sprintf("spine%d", i), Spine, spineCap)
	}
	for l := 0; l < opts.Leaves; l++ {
		leaf := t.AddSwitch(fmt.Sprintf("leaf%d", l), Leaf, leafCap)
		for _, s := range spines {
			t.AddLink(leaf, s)
		}
		for h := 0; h < opts.HostsPerLeaf; h++ {
			ip := netip.AddrFrom4([4]byte{10, byte(l), byte(h / 250), byte(h%250 + 1)})
			if _, err := t.AddHost(leaf, ip); err != nil {
				return nil, err
			}
		}
	}
	t.Finish()
	return t, nil
}

// FatTreeOptions configures the FatTree builder.
type FatTreeOptions struct {
	// K is the pod arity: K pods of K/2 aggregation and K/2 edge
	// switches each, plus (K/2)^2 core switches — 5K²/4 switches total
	// (K=20 is the 500-switch fabric of the large-fabric engine gate).
	// K must be even and >= 2.
	K int
	// HostsPerEdge is the number of hosts attached to each edge switch;
	// it defaults to K/2, the classic fat-tree host fan-out.
	HostsPerEdge int
	// EdgeCapacity/AggCapacity default to DefaultLeafCapacity /
	// DefaultSpineCapacity when nil. Cores get DefaultCoreCapacity.
	EdgeCapacity Resources
	AggCapacity  Resources
}

// DefaultCoreCapacity models a core-tier chassis: more management RAM
// and TCAM than the AS7712-class spine, same polling path.
func DefaultCoreCapacity() Resources {
	return Resources{ResVCPU: 8, ResRAM: 32768, ResTCAM: 4096, ResPCIe: 16, ResPoll: 20000}
}

// FatTree builds a three-tier k-ary fat-tree: (k/2)^2 core switches in
// k/2 groups, and k pods each holding k/2 aggregation and k/2 edge
// switches. Aggregation switch g of every pod uplinks to all k/2 cores
// of group g; within a pod every edge connects to every aggregation
// switch. Edge switches take the Leaf role (hosts attach there, with
// the same 10.<edge>.<h/250>.<h%250+1> addressing as SpineLeaf, so
// LeafPrefix and the placement filters work unchanged), aggregation
// switches the Spine role, and cores the Core role. The topology is
// finished.
func FatTree(opts FatTreeOptions) (*Topology, error) {
	k := opts.K
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netmodel: fat-tree arity must be even and >= 2, got %d", k)
	}
	half := k / 2
	if edges := k * half; edges > 250 {
		return nil, fmt.Errorf("netmodel: at most 250 edge switches supported by the addressing scheme, got %d (k=%d)", edges, k)
	}
	hostsPerEdge := opts.HostsPerEdge
	if hostsPerEdge < 0 {
		return nil, fmt.Errorf("netmodel: fat-tree needs non-negative hosts per edge, got %d", hostsPerEdge)
	}
	if hostsPerEdge == 0 {
		hostsPerEdge = half
	}
	edgeCap := opts.EdgeCapacity
	if edgeCap == nil {
		edgeCap = DefaultLeafCapacity()
	}
	aggCap := opts.AggCapacity
	if aggCap == nil {
		aggCap = DefaultSpineCapacity()
	}
	coreCap := DefaultCoreCapacity()
	t := New()
	// Core group g holds cores g*half .. g*half+half-1.
	cores := make([]SwitchID, half*half)
	for g := 0; g < half; g++ {
		for i := 0; i < half; i++ {
			cores[g*half+i] = t.AddSwitch(fmt.Sprintf("core%d-%d", g, i), Core, coreCap)
		}
	}
	edgeIdx := 0
	for p := 0; p < k; p++ {
		aggs := make([]SwitchID, half)
		for g := 0; g < half; g++ {
			aggs[g] = t.AddSwitch(fmt.Sprintf("agg%d-%d", p, g), Spine, aggCap)
			for i := 0; i < half; i++ {
				t.AddLink(aggs[g], cores[g*half+i])
			}
		}
		for e := 0; e < half; e++ {
			edge := t.AddSwitch(fmt.Sprintf("edge%d-%d", p, e), Leaf, edgeCap)
			for _, a := range aggs {
				t.AddLink(edge, a)
			}
			for h := 0; h < hostsPerEdge; h++ {
				ip := netip.AddrFrom4([4]byte{10, byte(edgeIdx), byte(h / 250), byte(h%250 + 1)})
				if _, err := t.AddHost(edge, ip); err != nil {
					return nil, err
				}
			}
			edgeIdx++
		}
	}
	t.Finish()
	return t, nil
}

// LeafPrefix returns the /16 covering all hosts of the given leaf index
// under the SpineLeaf addressing scheme.
func LeafPrefix(leafIndex int) netip.Prefix {
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(leafIndex), 0, 0}), 16)
}
