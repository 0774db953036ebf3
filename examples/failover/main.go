// Failover: the fault-tolerance extension. Deploy the sketch-based HH
// task (bounded-memory, another §VIII extension), kill a switch, and
// watch the seeder exclude it from the placement model and redeploy the
// movable monitoring capacity on the survivors.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"farm/internal/core"
	"farm/internal/engine"
	"farm/internal/fabric"
	"farm/internal/harvest"
	"farm/internal/netmodel"
	"farm/internal/seeder"
	"farm/internal/soil"
	"farm/internal/tasks"
	"farm/internal/traffic"
)

func main() {
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 3, HostsPerLeaf: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})
	sd := seeder.New(fab, seeder.Options{})

	// A movable analysis task (place any) plus the pinned sketch-HH
	// detectors (place all).
	movable := `
machine Analyzer {
  place any;
  time tick = 50;
  long windows;
  state s {
    util (res) { if (res.vCPU >= 2) then { return res.vCPU * 5; } }
    when (tick as t) do { windows = windows + 1; }
  }
}
`
	if err := sd.AddTask(seeder.TaskSpec{Name: "analyzer", Source: movable}); err != nil {
		log.Fatal(err)
	}
	sk, err := tasks.ByName("hh-sketch")
	if err != nil {
		log.Fatal(err)
	}
	detections := 0
	if err := sd.AddTask(seeder.TaskSpec{
		Name: "hh-sketch", Source: sk.Source, Machines: sk.Machines,
		Externals: sk.DefaultExternals,
		Harvester: harvest.FuncLogic{
			Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
				detections++
				fmt.Printf("[%10v] %s flags heavy destination %s\n", ctx.Now(), from.Switch, core.FormatValue(v))
			},
		},
	}); err != nil {
		log.Fatal(err)
	}

	gen := traffic.NewGenerator(fab, 11)
	stop := gen.StartFlow(traffic.FlowSpec{
		Src: fabric.HostIP(0, 0), Dst: fabric.HostIP(1, 0),
		SrcPort: 7, DstPort: 80, Proto: 6, PacketSize: 1200, Rate: 1500,
	})
	defer stop()

	printPlacement := func(hdr string) {
		fmt.Println(hdr)
		pls := sd.Placements()
		ids := make([]string, 0, len(pls))
		for id := range pls {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  %-28s -> %s\n", id, topo.Switch(pls[id].Switch).Name)
		}
	}

	loop.RunFor(time.Second)
	printPlacement("initial placement:")
	home, _ := sd.SeedSwitch("analyzer/Analyzer")
	fmt.Printf("\n*** switch %s fails ***\n\n", topo.Switch(home).Name)
	dropped, err := sd.FailSwitch(home)
	if err != nil {
		log.Fatal(err)
	}
	loop.RunFor(time.Second)
	printPlacement("after failover:")
	fmt.Printf("\ntasks dropped entirely: %v (pinned sketch seed on the dead switch takes its task down, C1)\n", dropped)
	now, ok := sd.SeedSwitch("analyzer/Analyzer")
	if ok {
		fmt.Printf("analyzer relocated to %s and keeps running\n", topo.Switch(now).Name)
	}
	fmt.Printf("detections so far: %d\n", detections)

	fmt.Printf("\n*** switch %s recovers ***\n", topo.Switch(home).Name)
	if err := sd.RecoverSwitch(home); err != nil {
		log.Fatal(err)
	}
	loop.RunFor(500 * time.Millisecond)
	printPlacement("after recovery (optimizer may migrate back):")
}
