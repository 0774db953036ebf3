package netmodel_test

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
)

// FuzzPathTable decodes a graph from bytes — byte 0 the switch count
// (1..16), byte 1 the link count, then one byte pair per link (self-loops
// and parallel links included), then one byte per host naming its leaf,
// where the value one past the last switch names none — and builds a
// fabric on it. A host on no switch must be refused by AddHost. Then
// every pair's Paths and Hops must equal the frozen oracle's, both ends
// of every link must list each other as neighbours, and the fabric must
// give every host its leaf port and every switch one port per host and
// link end (fabric's TestPortAssignment pins that each neighbour gets
// its own): no link carries packets that no counter sees.
func FuzzPathTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 0, 1, 0, 2, 1, 2})                       // a path of three switches, two hosts
	f.Add([]byte{4, 4, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4})        // 2x2 spine-leaf, one host on no switch
	f.Add([]byte{2, 4, 0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0})        // self-loops and a parallel link
	f.Add([]byte{16, 60, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // fewer link bytes than links
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		b, _ := next()
		n := 1 + int(b)%16
		top := netmodel.New()
		for i := 0; i < n; i++ {
			top.AddSwitch("s", netmodel.Leaf, netmodel.Vector{})
		}
		var links [][2]netmodel.SwitchID
		b, _ = next()
		for i := 0; i < int(b)%64; i++ {
			x, ok1 := next()
			y, ok2 := next()
			if !ok1 || !ok2 {
				break
			}
			l := [2]netmodel.SwitchID{netmodel.SwitchID(int(x) % n), netmodel.SwitchID(int(y) % n)}
			top.AddLink(l[0], l[1])
			links = append(links, l)
		}
		for i := 0; i < 64; i++ {
			b, ok := next()
			if !ok {
				break
			}
			leaf := netmodel.SwitchID(int(b) % (n + 1))
			_, err := top.AddHost(leaf, netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
			if (err != nil) != (int(leaf) == n) {
				t.Fatalf("AddHost on switch %d of %d: error %v", leaf, n, err)
			}
		}

		fab := fabric.New(top, engine.NewSerial(), fabric.Options{})
		for a := netmodel.SwitchID(0); int(a) < n; a++ {
			for b := netmodel.SwitchID(0); int(b) < n; b++ {
				got, want := top.Paths(a, b), netmodel.PathsReference(top, a, b)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Paths(%d, %d) = %v, reference %v", a, b, got, want)
				}
				hops := -1
				if len(want) > 0 {
					hops = len(want[0]) - 1
				}
				if got := top.Hops(a, b); got != hops {
					t.Fatalf("Hops(%d, %d) = %d, reference %d", a, b, got, hops)
				}
			}
		}
		for _, l := range links {
			for _, end := range [][2]netmodel.SwitchID{l, {l[1], l[0]}} {
				if !slices.Contains(top.Neighbors(end[0]), end[1]) {
					t.Fatalf("link %d-%d: switch %d does not list %d as a neighbour", l[0], l[1], end[0], end[1])
				}
			}
		}
		hostsOn := make([]int, n)
		for _, h := range top.Hosts() {
			hostsOn[h.Leaf]++
			if p, ok := fab.HostPort(h.Leaf, h.ID); !ok || p < 1 || p > fab.NumPorts(h.Leaf) {
				t.Fatalf("host %v on switch %d has port %d, %v", h.IP, h.Leaf, p, ok)
			}
		}
		for sw := netmodel.SwitchID(0); int(sw) < n; sw++ {
			if got, want := fab.NumPorts(sw), hostsOn[sw]+len(top.Neighbors(sw)); got != want {
				t.Fatalf("switch %d has %d ports, want %d hosts plus %d link ends", sw, got, hostsOn[sw], len(top.Neighbors(sw)))
			}
		}
	})
}
