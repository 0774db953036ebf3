package fabric

import (
	"testing"

	"farm/internal/dataplane"
)

// crossLeafPacket is a flow from leaf 0 to leaf 1: three switches.
func crossLeafPacket() dataplane.Packet {
	return dataplane.Packet{
		SrcIP: HostIP(0, 0), DstIP: HostIP(1, 0),
		SrcPort: 1234, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
}

// Once a flow is warm — its path-table cell filled, its flow-cache
// entries present on every switch of the path, one hop record and the
// engine's events in their pools — sending a packet and carrying it to
// delivery allocates nothing.
func TestSendSteadyStateAllocs(t *testing.T) {
	f, loop := testFabric(t, 2, 2, 2)
	p := crossLeafPacket()
	if path, err := f.PathFor(&p); err != nil || len(path) != 3 {
		t.Fatalf("path = %v, %v; want 3 switches", path, err)
	}
	sendAndDeliver := func() {
		if err := f.Send(&p); err != nil {
			t.Fatal(err)
		}
		loop.Drain(16)
	}
	sendAndDeliver()
	before := f.Delivered()
	if allocs := testing.AllocsPerRun(1000, sendAndDeliver); allocs != 0 {
		t.Fatalf("send + deliver allocates %v per packet in steady state, want 0", allocs)
	}
	if got := f.Delivered() - before; got != 1001 { // AllocsPerRun adds one warm-up run
		t.Fatalf("delivered %d packets, want 1001", got)
	}
	if got := len(f.free); got != 1 {
		t.Fatalf("%d hop records after one packet at a time, want 1", got)
	}
}
