package core_test

import (
	"net/netip"
	"testing"

	"farm/internal/almanac"
	"farm/internal/core"
	"farm/internal/dataplane"
	"farm/internal/tasks"
)

// handlerRunner deploys machine name of src on the register VM.
func handlerRunner(t *testing.T, src, name string, ext map[string]core.Value) core.Runner {
	t.Helper()
	prog, err := almanac.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := almanac.CompileMachine(prog, name)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := core.Compile(cm)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cp.NewRunner(ext, newParityTaskHost())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHandlerAllocs: a seed handler allocates only what outlives its
// run. After warm-up each of these allocates nothing per run:
//   - HHHSolo's poll handler over a poll group's rewritten batch: the
//     private groupBytes is emptied in place and map_keys hands back the
//     list it made for the same groups last time;
//   - a per-packet `map_get(m, k, map_new())` that finds k: the default
//     is never built;
//   - two p.flow reads of a flow read before: the text is interned;
//   - res().FIELD reads: the grant is read in place, by index.
func TestHandlerAllocs(t *testing.T) {
	t.Run("HHHSolo poll", func(t *testing.T) {
		r := handlerRunner(t, tasks.HHHStandaloneSource, "HHHSolo",
			map[string]core.Value{"portThreshold": int64(1 << 40), "groupThreshold": int64(1 << 40)})
		ports := make([]int, 48)
		cur := make([]dataplane.PortStats, len(ports))
		for i := range ports {
			ports[i] = i + 1
		}
		var b *core.Batch
		run := func() {
			for i := range cur {
				cur[i].TxBytes += uint64(1000 + i)
			}
			b = core.NewPortStatsBatch(ports, cur, b, b)
			if err := r.HandleTrigger("stats", b); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("HHHSolo's handler allocates %.1f per poll, want 0", allocs)
		}
		if st := r.State(); st != "watch" {
			t.Fatalf("state %s, want watch (nothing heavy)", st)
		}
	})

	const probeSrc = `
machine P {
  place all;
  probe pk = Probe { .ival = 1, .what = port ANY };
  map fan;
  map flows;
  long n;
  state s {
    when (pk as p) do {
      map dsts = map_get(fan, p.srcIP, map_new());
      map_set(dsts, p.dstPort, 1);
      fan = map_set(fan, p.srcIP, dsts);
      string f = p.flow;
      flows = map_set(flows, p.flow, map_get(flows, f, 0) + 1);
      n = map_len(dsts);
    }
  }
}
`
	pkt := core.PacketVal{
		SrcIP: netip.MustParseAddr("10.1.0.1"), DstIP: netip.MustParseAddr("10.2.0.1"),
		SrcPort: 4242, DstPort: 80, Proto: dataplane.ProtoTCP, Size: 100,
	}
	r := handlerRunner(t, probeSrc, "P", nil)
	run := func() {
		if err := r.HandleTrigger("pk", &pkt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("a probe handler whose map_get(m, k, map_new()) hits and that reads p.flow twice allocates %.1f per packet, want 0", allocs)
	}
	flows, _ := r.Var("flows")
	if n, _ := flows.(*core.MapVal).Get(dataplane.Packet(pkt).Flow().String()); n != int64(202) {
		t.Fatalf("flow count %v, want 202", n)
	}

	t.Run("res fields", func(t *testing.T) {
		const resSrc = `
machine R {
  place all;
  time tk = 10;
  float c;
  state s {
    when (tk) do { c = res().vCPU + res().PCIe + res().poll; }
  }
}
`
		r := handlerRunner(t, resSrc, "R", nil)
		run := func() {
			if err := r.HandleTrigger("tk", 10.0); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("a handler reading res().FIELD allocates %.1f per run, want 0", allocs)
		}
		if c, _ := r.Var("c"); c != 3.0 {
			t.Fatalf("c = %v, want 3 (vCPU 2 + PCIe 1)", c)
		}
	})
}
