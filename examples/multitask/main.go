// Multitask: run several Tab. I tasks side-by-side on the same fabric
// and observe the soil's polling aggregation at work — tasks sharing a
// polling subject cost the PCIe bus one request stream, not one per
// task (§II-B-b, §IV-B's aggregation benefits).
//
//	go run ./examples/multitask
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

func main() {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 4, HostsPerLeaf: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})

	// Co-deploy five catalogue tasks. hh, hhh, link-failure, and
	// traffic-change all poll `port ANY` — the soil aggregates them.
	names := []string{"hh", "hhh", "link-failure", "traffic-change", "ddos"}
	for _, name := range names {
		d, err := tasks.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		spec := seeder.TaskSpec{
			Name: d.Name, Source: d.Source, Machines: d.Machines,
			Externals: d.DefaultExternals,
		}
		if d.NewHarvester != nil {
			spec.Harvester = d.NewHarvester()
		}
		if err := sd.AddTask(spec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("deployed %-16s (%s)\n", d.Name, d.Description)
	}
	fmt.Printf("\n%d seeds placed across %d switches\n", len(sd.Placements()), topo.NumSwitches())

	// Mixed workload: background flows + a heavy hitter.
	gen := traffic.NewGenerator(fab, 99)
	for i := 0; i < 6; i++ {
		stop := gen.StartFlow(traffic.FlowSpec{
			Src: fabric.HostIP(i%4, i), Dst: fabric.HostIP((i+1)%4, i),
			SrcPort: uint16(2000 + i), DstPort: 80, Proto: 6,
			PacketSize: 800, Rate: 400,
		})
		defer stop()
	}
	w := traffic.NewBulkWorkload(fab, traffic.BulkConfig{
		Tick: 10 * time.Millisecond, HeavyRatio: 0.1, Seed: 3,
	})
	defer w.Stop()

	loop.RunFor(2 * time.Second)

	// The aggregation scoreboard: polls delivered > polls issued means
	// one ASIC read served several tasks.
	fmt.Println("\npolling aggregation per switch (issued -> delivered):")
	ids := topo.SwitchIDs()
	sort.Slice(ids, func(i, j int) bool { return topo.Switch(ids[i]).Name < topo.Switch(ids[j]).Name })
	var totIssued, totDelivered uint64
	for _, id := range ids {
		s := sd.Soil(id)
		totIssued += s.PollsIssued()
		totDelivered += s.PollsDelivered()
		fmt.Printf("  %-8s %6d -> %6d (%d seeds)\n",
			topo.Switch(id).Name, s.PollsIssued(), s.PollsDelivered(), s.NumSeeds())
	}
	fmt.Printf("fabric-wide: %d ASIC polls served %d seed deliveries (%.1fx sharing)\n",
		totIssued, totDelivered, float64(totDelivered)/float64(totIssued))

	// What the harvesters learned.
	fmt.Println("\nharvester summaries:")
	for _, name := range names {
		if h, ok := sd.Harvester(name); ok {
			fmt.Printf("  %-16s %d reports\n", name, len(h.History()))
		}
	}
}
