package netmodel

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustSpineLeaf(t *testing.T, spines, leaves, hosts int) *Topology {
	t.Helper()
	top, err := SpineLeaf(SpineLeafOptions{Spines: spines, Leaves: leaves, HostsPerLeaf: hosts})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestResourcesOps(t *testing.T) {
	a := Vector{ResVCPU: 2, ResRAM: 100}
	b := Vector{ResVCPU: 1, ResTCAM: 10}
	sum := a.Add(b)
	if sum[ResVCPU] != 3 || sum[ResRAM] != 100 || sum[ResTCAM] != 10 {
		t.Fatalf("add = %v", sum)
	}
	diff := a.Sub(b)
	if diff[ResVCPU] != 1 || diff[ResTCAM] != -10 {
		t.Fatalf("sub = %v", diff)
	}
	if a[ResVCPU] != 2 {
		t.Fatal("Add/Sub must not mutate operands")
	}
	if !a.AtLeast(Vector{ResVCPU: 2}, 0) {
		t.Fatal("AtLeast equal should hold")
	}
	if a.AtLeast(Vector{ResVCPU: 2.1}, 0) {
		t.Fatal("AtLeast should fail")
	}
	half := a.Scale(0.5)
	if half[ResVCPU] != 1 || half[ResRAM] != 50 {
		t.Fatalf("scale = %v", half)
	}
}

func TestResourcesString(t *testing.T) {
	r := Vector{ResVCPU: 2, ResRAM: 100}
	if got, want := r.String(), "{RAM=100 vCPU=2}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestSpineLeafShape(t *testing.T) {
	top := mustSpineLeaf(t, 2, 4, 3)
	if got := top.NumSwitches(); got != 6 {
		t.Fatalf("switches = %d, want 6", got)
	}
	if got := len(top.Hosts()); got != 12 {
		t.Fatalf("hosts = %d, want 12", got)
	}
	spines, leaves := 0, 0
	for _, s := range top.Switches() {
		switch s.Role {
		case Spine:
			spines++
			if len(top.Neighbors(s.ID)) != 4 {
				t.Fatalf("spine %v has %d neighbors, want 4", s.Name, len(top.Neighbors(s.ID)))
			}
		case Leaf:
			leaves++
			if len(top.Neighbors(s.ID)) != 2 {
				t.Fatalf("leaf %v has %d neighbors, want 2", s.Name, len(top.Neighbors(s.ID)))
			}
		}
	}
	if spines != 2 || leaves != 4 {
		t.Fatalf("spines=%d leaves=%d", spines, leaves)
	}
}

func TestSpineLeafValidation(t *testing.T) {
	if _, err := SpineLeaf(SpineLeafOptions{Spines: 0, Leaves: 2}); err == nil {
		t.Fatal("zero spines should error")
	}
	if _, err := SpineLeaf(SpineLeafOptions{Spines: 1, Leaves: 251}); err == nil {
		t.Fatal("too many leaves should error")
	}
}

func TestHostLookup(t *testing.T) {
	top := mustSpineLeaf(t, 2, 3, 5)
	ip := netip.AddrFrom4([4]byte{10, 1, 0, 3})
	h, ok := top.HostByIP(ip)
	if !ok {
		t.Fatalf("host %v not found", ip)
	}
	if top.Switch(h.Leaf).Name != "leaf1" {
		t.Fatalf("host on %s, want leaf1", top.Switch(h.Leaf).Name)
	}
	if _, ok := top.HostByIP(netip.AddrFrom4([4]byte{192, 168, 0, 1})); ok {
		t.Fatal("unexpected host found")
	}
}

func TestDuplicateHostIP(t *testing.T) {
	top := New()
	leaf := top.AddSwitch("leaf0", Leaf, DefaultLeafCapacity())
	ip := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	if _, err := top.AddHost(leaf, ip); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddHost(leaf, ip); err == nil {
		t.Fatal("duplicate IP should error")
	}
}

func TestPathsLeafToLeaf(t *testing.T) {
	top := mustSpineLeaf(t, 3, 4, 1)
	// Find two leaves.
	var leaves []SwitchID
	for _, s := range top.Switches() {
		if s.Role == Leaf {
			leaves = append(leaves, s.ID)
		}
	}
	paths := top.Paths(leaves[0], leaves[1])
	if len(paths) != 3 {
		t.Fatalf("got %d ECMP paths, want 3 (one per spine)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 3 {
			t.Fatalf("path %v has %d hops, want 3 (leaf-spine-leaf)", p, len(p))
		}
		if p[0] != leaves[0] || p[2] != leaves[1] {
			t.Fatalf("path %v endpoints wrong", p)
		}
		if top.Switch(p[1]).Role != Spine {
			t.Fatalf("middle of %v is not a spine", p)
		}
	}
}

func TestPathsSelf(t *testing.T) {
	top := mustSpineLeaf(t, 2, 2, 1)
	paths := top.Paths(0, 0)
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("self path = %v", paths)
	}
}

func TestPathsDisconnected(t *testing.T) {
	top := New()
	a := top.AddSwitch("a", Leaf, Vector{})
	b := top.AddSwitch("b", Leaf, Vector{})
	top.Finish()
	if paths := top.Paths(a, b); paths != nil {
		t.Fatalf("disconnected pair has paths %v", paths)
	}
}

func TestECMPCap(t *testing.T) {
	top, err := SpineLeaf(SpineLeafOptions{Spines: 40, Leaves: 2, HostsPerLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	var leaves []SwitchID
	for _, s := range top.Switches() {
		if s.Role == Leaf {
			leaves = append(leaves, s.ID)
		}
	}
	if got := len(top.Paths(leaves[0], leaves[1])); got != DefaultMaxECMP {
		t.Fatalf("paths = %d, want cap %d", got, DefaultMaxECMP)
	}
}

// Property: in a spine-leaf fabric every leaf-to-leaf shortest path has
// length 1 (same leaf) or 3 (leaf-spine-leaf).
func TestSpineLeafPathLengthProperty(t *testing.T) {
	top := mustSpineLeaf(t, 3, 6, 1)
	var leaves []SwitchID
	for _, s := range top.Switches() {
		if s.Role == Leaf {
			leaves = append(leaves, s.ID)
		}
	}
	f := func(i, j uint8) bool {
		a := leaves[int(i)%len(leaves)]
		b := leaves[int(j)%len(leaves)]
		for _, p := range top.Paths(a, b) {
			if a == b && len(p) != 1 {
				return false
			}
			if a != b && len(p) != 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: paths are symmetric — reversing src/dst yields reversed paths.
func TestPathSymmetry(t *testing.T) {
	top := mustSpineLeaf(t, 2, 4, 1)
	ids := top.SwitchIDs()
	for _, a := range ids {
		for _, b := range ids {
			fwd := top.Paths(a, b)
			rev := top.Paths(b, a)
			if len(fwd) != len(rev) {
				t.Fatalf("asymmetric path count %v->%v: %d vs %d", a, b, len(fwd), len(rev))
			}
			seen := map[string]bool{}
			for _, p := range fwd {
				seen[p.Key()] = true
			}
			for _, p := range rev {
				r := make(Path, len(p))
				for i := range p {
					r[len(p)-1-i] = p[i]
				}
				if !seen[r.Key()] {
					t.Fatalf("reverse of %v not in forward set", p)
				}
			}
		}
	}
}

func TestPathsBetweenPrefixes(t *testing.T) {
	top := mustSpineLeaf(t, 2, 4, 2)
	paths := top.PathsBetweenPrefixes(leafPrefix(0), leafPrefix(2))
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (one per spine)", len(paths))
	}
	// Whole-fabric prefixes: every leaf pair contributes; paths dedup.
	all := netip.MustParsePrefix("10.0.0.0/8")
	paths = top.PathsBetweenPrefixes(all, all)
	if len(paths) == 0 {
		t.Fatal("no paths for whole fabric")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p.Key()] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[p.Key()] = true
	}
}

func TestQualifyingNodesPaperExample(t *testing.T) {
	// Paths from the paper's §III-B example.
	p1 := Path{1, 2, 5, 3, 4}
	p2 := Path{1, 2, 6, 3, 4}
	p3 := Path{1, 2, 7, 8, 9}

	// receiver range == 1 on p1 -> {3}; on p3 -> {8}.
	if got := QualifyingNodes(p1, Receiver, RangeEQ, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("p1 receiver==1: %v", got)
	}
	if got := QualifyingNodes(p3, Receiver, RangeEQ, 1); len(got) != 1 || got[0] != 8 {
		t.Fatalf("p3 receiver==1: %v", got)
	}
	// midpoint range == 0 -> center node.
	if got := QualifyingNodes(p1, Midpoint, RangeEQ, 0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("p1 midpoint==0: %v", got)
	}
	if got := QualifyingNodes(p2, Midpoint, RangeEQ, 0); len(got) != 1 || got[0] != 6 {
		t.Fatalf("p2 midpoint==0: %v", got)
	}
	// receiver range <= 1 -> last two nodes.
	if got := QualifyingNodes(p1, Receiver, RangeLE, 1); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("p1 receiver<=1: %v", got)
	}
	// sender range == 0 -> first node.
	if got := QualifyingNodes(p1, Sender, RangeEQ, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("p1 sender==0: %v", got)
	}
}

func TestQualifyingNodesEvenPath(t *testing.T) {
	p := Path{1, 2, 3, 4}
	got := QualifyingNodes(p, Midpoint, RangeEQ, 0)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("even-path midpoint==0: %v, want [2 3]", got)
	}
}

func TestCandidateSetsAnyUnions(t *testing.T) {
	paths := []Path{{1, 2, 5, 3, 4}, {1, 2, 6, 3, 4}, {1, 2, 7, 8, 9}}
	sets := CandidateSets(paths, Any, Receiver, RangeEQ, 1)
	if len(sets) != 1 {
		t.Fatalf("any: %d sets, want 1", len(sets))
	}
	if len(sets[0]) != 2 || sets[0][0] != 3 || sets[0][1] != 8 {
		t.Fatalf("any receiver==1: %v, want [3 8]", sets[0])
	}
}

func TestCandidateSetsAllPerPath(t *testing.T) {
	paths := []Path{{1, 2, 5, 3, 4}, {1, 2, 6, 3, 4}, {1, 2, 7, 8, 9}}
	sets := CandidateSets(paths, All, Midpoint, RangeEQ, 0)
	if len(sets) != 3 {
		t.Fatalf("all midpoint==0: %d sets, want 3 (%v)", len(sets), sets)
	}
	want := []SwitchID{5, 6, 7}
	for i, s := range sets {
		if len(s) != 1 || s[0] != want[i] {
			t.Fatalf("set %d = %v, want [%d]", i, s, want[i])
		}
	}
}

func TestCandidateSetsAllDedups(t *testing.T) {
	paths := []Path{{1, 2, 5, 3, 4}, {1, 2, 6, 3, 4}, {1, 2, 7, 8, 9}}
	// receiver <= 1: per-path sets {3,4},{3,4},{8,9} -> dedup to 2.
	sets := CandidateSets(paths, All, Receiver, RangeLE, 1)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2 after dedup (%v)", len(sets), sets)
	}
}

func TestCandidateSetsEmpty(t *testing.T) {
	paths := []Path{{1, 2, 3}}
	if sets := CandidateSets(paths, Any, Receiver, RangeEQ, 99); sets != nil {
		t.Fatalf("expected no sets, got %v", sets)
	}
}

func TestRangeOpHolds(t *testing.T) {
	cases := []struct {
		op    RangeOp
		d, b  int
		holds bool
	}{
		{RangeEQ, 1, 1, true}, {RangeEQ, 2, 1, false},
		{RangeLE, 1, 1, true}, {RangeLE, 2, 1, false},
		{RangeGE, 1, 1, true}, {RangeGE, 0, 1, false},
		{RangeLT, 0, 1, true}, {RangeLT, 1, 1, false},
		{RangeGT, 2, 1, true}, {RangeGT, 1, 1, false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.d, c.b); got != c.holds {
			t.Fatalf("%v.Holds(%d,%d) = %v, want %v", c.op, c.d, c.b, got, c.holds)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	top, err := FatTree(FatTreeOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores + 4 pods * (2 agg + 2 edge) = 20 switches, 2 hosts/edge.
	if got := top.NumSwitches(); got != 20 {
		t.Fatalf("switches = %d, want 20", got)
	}
	if got := len(top.Hosts()); got != 16 {
		t.Fatalf("hosts = %d, want 16", got)
	}
	cores, aggs, edges := 0, 0, 0
	for _, s := range top.Switches() {
		n := len(top.Neighbors(s.ID))
		switch s.Role {
		case Core:
			cores++
			if n != 4 { // one agg per pod
				t.Fatalf("core %s has %d neighbors, want 4", s.Name, n)
			}
		case Spine:
			aggs++
			if n != 4 { // k/2 cores up + k/2 edges down
				t.Fatalf("agg %s has %d neighbors, want 4", s.Name, n)
			}
		case Leaf:
			edges++
			if n != 2 { // k/2 aggs
				t.Fatalf("edge %s has %d neighbors, want 2", s.Name, n)
			}
		}
	}
	if cores != 4 || aggs != 8 || edges != 8 {
		t.Fatalf("cores=%d aggs=%d edges=%d, want 4/8/8", cores, aggs, edges)
	}
}

func TestFatTree500Switches(t *testing.T) {
	top, err := FatTree(FatTreeOptions{K: 20, HostsPerEdge: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := top.NumSwitches(); got != 500 {
		t.Fatalf("switches = %d, want 500", got)
	}
	if got := len(top.Hosts()); got != 800 {
		t.Fatalf("hosts = %d, want 800", got)
	}
}

func TestFatTreeValidation(t *testing.T) {
	if _, err := FatTree(FatTreeOptions{K: 3}); err == nil {
		t.Fatal("odd arity should error")
	}
	if _, err := FatTree(FatTreeOptions{K: 0}); err == nil {
		t.Fatal("zero arity should error")
	}
	if _, err := FatTree(FatTreeOptions{K: 24}); err == nil {
		t.Fatal("288 edges should exceed the addressing limit")
	}
}

func TestFatTreePaths(t *testing.T) {
	top, err := FatTree(FatTreeOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	var edges []SwitchID
	for _, s := range top.Switches() {
		if s.Role == Leaf {
			edges = append(edges, s.ID)
		}
	}
	// Same pod: edge-agg-edge, 2 ECMP paths (one per agg).
	same := top.Paths(edges[0], edges[1])
	if len(same) != 2 {
		t.Fatalf("intra-pod paths = %d, want 2", len(same))
	}
	for _, p := range same {
		if len(p) != 3 {
			t.Fatalf("intra-pod path length = %d, want 3", len(p))
		}
	}
	// Cross pod: edge-agg-core-agg-edge, (k/2)^2 = 4 ECMP paths.
	cross := top.Paths(edges[0], edges[2])
	if len(cross) != 4 {
		t.Fatalf("cross-pod paths = %d, want 4", len(cross))
	}
	for _, p := range cross {
		if len(p) != 5 {
			t.Fatalf("cross-pod path length = %d, want 5", len(p))
		}
		if top.Switch(p[2]).Role != Core {
			t.Fatalf("cross-pod path middle hop is %s, want a core", top.Switch(p[2]).Name)
		}
	}
	// Addressing matches the global edge index: every host of the i-th
	// edge switch (in creation order) sits inside leafPrefix(i).
	edgeIndex := map[SwitchID]int{}
	for i, id := range edges {
		edgeIndex[id] = i
	}
	for _, h := range top.Hosts() {
		if i := edgeIndex[h.Leaf]; !leafPrefix(i).Contains(h.IP) {
			t.Fatalf("host %v on %s outside leafPrefix(%d)", h.IP, top.Switch(h.Leaf).Name, i)
		}
	}
}

// --- The ECMP table against the per-call enumeration it replaced ---

// pathsReference is Topology.Paths as it stood before the table: a
// fresh BFS and DFS per call. Frozen; the table must return the same
// paths in the same order, because ECMP picks paths[hash % len(paths)].
func pathsReference(t *Topology, src, dst SwitchID) []Path {
	if src == dst {
		return []Path{{src}}
	}
	if src < 0 || int(src) >= len(t.switches) {
		return nil // not a switch of t: nothing links to it
	}
	limit := DefaultMaxECMP
	// BFS distance from src.
	dist := make(map[SwitchID]int, len(t.switches))
	dist[src] = 0
	queue := []SwitchID{src}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.adj[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				if nb == dst {
					found = true
				}
				queue = append(queue, nb)
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return nil
	}
	// DFS backwards from dst along strictly decreasing distance.
	var paths []Path
	var walk func(cur SwitchID, suffix []SwitchID)
	walk = func(cur SwitchID, suffix []SwitchID) {
		if len(paths) >= limit {
			return
		}
		suffix = append(suffix, cur)
		if cur == src {
			p := make(Path, len(suffix))
			for i, n := range suffix {
				p[len(suffix)-1-i] = n
			}
			paths = append(paths, p)
			return
		}
		// Deterministic neighbor order.
		nbs := append([]SwitchID(nil), t.adj[cur]...)
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
		for _, nb := range nbs {
			if d, ok := dist[nb]; ok && d == dist[cur]-1 {
				walk(nb, suffix)
			}
		}
	}
	walk(dst, nil)
	return paths
}

// checkAgainstReference compares the table with the oracle on one pair.
// DeepEqual distinguishes nil from empty, so "nil for unreachable" is
// part of the comparison.
func checkAgainstReference(t *testing.T, top *Topology, src, dst SwitchID) {
	t.Helper()
	got, want := top.Paths(src, dst), pathsReference(top, src, dst)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Paths(%d, %d) = %v, reference %v", src, dst, got, want)
	}
}

func mustFatTree(t *testing.T, k int) *Topology {
	t.Helper()
	top, err := FatTree(FatTreeOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPathTableMatchesReferenceOnBuilders(t *testing.T) {
	for name, top := range map[string]*Topology{
		"spineleaf-2x32": mustSpineLeaf(t, 2, 32, 1),
		"fattree-k4":     mustFatTree(t, 4),
		"fattree-k8":     mustFatTree(t, 8),
	} {
		ids := top.SwitchIDs()
		for _, a := range ids {
			for _, b := range ids {
				checkAgainstReference(t, top, a, b)
			}
		}
		// Asked again, the table answers from the same memory.
		a, b := ids[len(ids)-1], ids[len(ids)-2]
		if p, q := top.Paths(a, b), top.Paths(a, b); len(p) == 0 || &p[0] != &q[0] {
			t.Fatalf("%s: repeated query did not hit the table", name)
		}
	}
}

// randomTopology builds a finished graph of 2..n switches and up to
// linksPerSwitch*n random links, self-loops and parallel links
// included.
func randomTopology(rng *rand.Rand, n, linksPerSwitch int) *Topology {
	top := New()
	n = 2 + rng.Intn(n-1)
	for i := 0; i < n; i++ {
		top.AddSwitch("s", Leaf, Vector{})
	}
	for i, links := 0, rng.Intn(linksPerSwitch*n); i < links; i++ {
		top.AddLink(SwitchID(rng.Intn(n)), SwitchID(rng.Intn(n)))
	}
	top.Finish()
	return top
}

// TestPathTableMatchesReferenceRandom drives 240 seeded random graphs —
// sparse ones fall apart into components, dense ones exceed the ECMP
// cap — each built, finished and then queried: random pairs first,
// IDs one past either end included, then every pair, so no cell of the
// table goes unchecked.
func TestPathTableMatchesReferenceRandom(t *testing.T) {
	capped := 0
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := randomTopology(rng, 24, 4)
		n := top.NumSwitches()
		for i := 0; i < 40; i++ {
			checkAgainstReference(t, top, SwitchID(rng.Intn(n+2)-1), SwitchID(rng.Intn(n+2)-1))
		}
		for _, a := range top.SwitchIDs() {
			for _, b := range top.SwitchIDs() {
				checkAgainstReference(t, top, a, b)
				if len(top.Paths(a, b)) == DefaultMaxECMP {
					capped++
				}
			}
		}
	}
	if capped == 0 {
		t.Fatal("no pair reached the ECMP cap: the cap is not exercised")
	}
	t.Logf("%d pairs at the ECMP cap", capped)
}

func TestAddLinkUnknownSwitchPanics(t *testing.T) {
	top := New()
	a := top.AddSwitch("a", Leaf, Vector{})
	defer func() {
		if recover() == nil {
			t.Fatal("a link to a switch that was never added should panic")
		}
	}()
	top.AddLink(a, a+1)
}

// A host on a switch that was never added is refused where it is
// added, not by an index out of range when a fabric numbers its ports.
func TestAddHostUnknownSwitch(t *testing.T) {
	top := New()
	top.AddSwitch("leaf0", Leaf, Vector{})
	for _, leaf := range []SwitchID{-1, 1, 5} {
		if _, err := top.AddHost(leaf, netip.AddrFrom4([4]byte{10, 0, 0, 1})); err == nil {
			t.Fatalf("a host on switch %d of a one-switch topology was accepted", leaf)
		}
	}
	if len(top.Hosts()) != 0 {
		t.Fatalf("refused hosts were kept: %v", top.Hosts())
	}
}

// A finished topology is fixed: every mutation panics and says why, on
// a hand-built topology after Finish and on a builder's output alike.
func TestFinishedTopologyRefusesMutation(t *testing.T) {
	hand := New()
	a := hand.AddSwitch("a", Leaf, Vector{})
	b := hand.AddSwitch("b", Spine, Vector{})
	hand.AddLink(a, b)
	hand.Finish()
	hand.Finish() // a second Finish is a no-op
	built := mustSpineLeaf(t, 2, 2, 1)
	for name, top := range map[string]*Topology{"hand-built": hand, "SpineLeaf": built} {
		for op, mutate := range map[string]func(){
			"AddSwitch": func() { top.AddSwitch("late", Spine, Vector{}) },
			"AddLink":   func() { top.AddLink(0, 1) },
			"AddHost":   func() { _, _ = top.AddHost(0, netip.AddrFrom4([4]byte{10, 9, 9, 9})) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, op) || !strings.Contains(msg, "finished") {
						t.Fatalf("%s: %s on a finished topology: panic %q, want one naming %s and the finish", name, op, msg, op)
					}
				}()
				mutate()
			}()
		}
	}
	if hand.NumSwitches() != 2 || len(hand.Neighbors(a)) != 1 || len(built.Hosts()) != 2 {
		t.Fatal("a refused mutation changed the topology")
	}
}

// Paths and Hops on a topology that is still open panic: Finish makes
// the table they read.
func TestQueryBeforeFinishPanics(t *testing.T) {
	top := New()
	top.AddSwitch("a", Leaf, Vector{})
	for name, query := range map[string]func(){
		"Paths": func() { top.Paths(0, 0) },
		"Hops":  func() { top.Hops(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s before Finish did not panic", name)
				}
			}()
			query()
		}()
	}
}

// Hops is the length of every path Paths returns, on every pair of the
// builders' fabrics and of random graphs, IDs one past either end
// included (unreachable: -1, no paths).
func TestHopsMatchesPaths(t *testing.T) {
	tops := []*Topology{mustSpineLeaf(t, 3, 5, 1), mustFatTree(t, 4)}
	for seed := int64(0); seed < 40; seed++ {
		tops = append(tops, randomTopology(rand.New(rand.NewSource(seed)), 12, 2))
	}
	for _, top := range tops {
		n := top.NumSwitches()
		for a := SwitchID(-1); int(a) <= n; a++ {
			for b := SwitchID(-1); int(b) <= n; b++ {
				want := -1
				if ps := top.Paths(a, b); len(ps) > 0 {
					want = len(ps[0]) - 1
				}
				if got := top.Hops(a, b); got != want {
					t.Fatalf("Hops(%d, %d) = %d, paths say %d", a, b, got, want)
				}
			}
		}
	}
}

// TestPathsBetweenPrefixesOrder pins φ_path to what it returned when it
// deduplicated through Path.Key: no path twice, and the same order.
func TestPathsBetweenPrefixesOrder(t *testing.T) {
	reference := func(top *Topology, srcPfx, dstPfx netip.Prefix) []Path {
		leaves := func(pfx netip.Prefix) []SwitchID {
			set := map[SwitchID]bool{}
			for _, h := range top.Hosts() {
				if pfx.Contains(h.IP) {
					set[h.Leaf] = true
				}
			}
			return sortedIDs(set)
		}
		var out []Path
		seen := map[string]bool{}
		for _, s := range leaves(srcPfx) {
			for _, d := range leaves(dstPfx) {
				for _, p := range pathsReference(top, s, d) {
					if k := p.Key(); !seen[k] {
						seen[k] = true
						out = append(out, p)
					}
				}
			}
		}
		return out
	}
	all := netip.MustParsePrefix("10.0.0.0/8")
	for name, top := range map[string]*Topology{
		"spineleaf": mustSpineLeaf(t, 3, 6, 2),
		"fattree":   mustFatTree(t, 4),
	} {
		for _, q := range [][2]netip.Prefix{
			{all, all}, {leafPrefix(0), all}, {all, leafPrefix(3)},
			{leafPrefix(1), leafPrefix(2)}, {leafPrefix(2), leafPrefix(2)},
			{netip.MustParsePrefix("10.0.0.0/15"), netip.MustParsePrefix("10.2.0.0/15")},
		} {
			got, want := top.PathsBetweenPrefixes(q[0], q[1]), reference(top, q[0], q[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v -> %v:\n got  %v\n want %v", name, q[0], q[1], got, want)
			}
			seen := map[string]bool{}
			for _, p := range got {
				if seen[p.Key()] {
					t.Fatalf("%s %v -> %v: duplicate path %v", name, q[0], q[1], p)
				}
				seen[p.Key()] = true
			}
		}
	}
}

// leafPrefix is the /16 that holds every HostIP of the given leaf index.
func leafPrefix(leafIndex int) netip.Prefix {
	return netip.PrefixFrom(HostIP(leafIndex, 0), 16).Masked()
}
