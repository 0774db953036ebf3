// Quickstart: deploy the paper's heavy-hitter task (List. 2) on an
// emulated spine-leaf fabric, drive traffic through it, and watch the
// seed detect the heavy flow, react locally with a TCAM rule, and
// report to its harvester.
//
//	go run ./examples/quickstart
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
)

func main() {
	// 1. An emulated data center: 2 spines, 4 leaves, 8 hosts per leaf.
	topo, err := netmodel.SpineLeaf(netmodel.SpineLeafOptions{
		Spines: 2, Leaves: 4, HostsPerLeaf: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	loop := engine.NewSerial()
	fab := fabric.New(topo, loop, fabric.Options{})

	// 2. The seeder — FARM's centralized control instance. It creates a
	// soil on every switch and owns placement optimization.
	sd := seeder.New(fab, seeder.Options{})

	// 3. Submit the HH task from the catalogue with a harvester that
	// logs reports and reacts by tightening the threshold.
	hhTask, err := tasks.ByName("hh")
	if err != nil {
		log.Fatal(err)
	}
	logic := harvest.FuncLogic{
		Message: func(ctx harvest.Context, from soil.SeedRef, v core.Value) {
			fmt.Printf("[%8v] harvester: %s reports heavy ports %s\n",
				ctx.Now(), from.Switch, core.FormatValue(v))
		},
	}
	err = sd.AddTask(seeder.TaskSpec{
		Name:      "hh",
		Source:    hhTask.Source,
		Machines:  hhTask.Machines,
		Externals: map[string]map[string]core.Value{"HH": {"threshold": int64(1_000_000)}},
		Harvester: logic,
	})
	if err != nil {
		log.Fatal(err)
	}
	placements := sd.Placements()
	fmt.Printf("deployed %d HH seeds (one per switch):\n", len(placements))
	ids := make([]string, 0, len(placements))
	for id := range placements {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		a := placements[id]
		fmt.Printf("  %-12s -> %-8s alloc=%v\n", id, topo.Switch(a.Switch).Name, a.Alloc)
	}

	// 4. Background load plus one elephant flow on leaf0 port 1.
	var leaf0 netmodel.SwitchID
	for _, sw := range topo.Switches() {
		if sw.Name == "leaf0" {
			leaf0 = sw.ID
		}
	}
	loop.Every(time.Millisecond, func() {
		_ = fab.Switch(leaf0).CreditPort(1, 0, 0, 200, 2_000_000) // 2 GB/s elephant
		_ = fab.Switch(leaf0).CreditPort(2, 0, 0, 10, 10_000)     // mouse
	})

	// 5. Run one simulated second.
	loop.RunFor(time.Second)

	// 6. The local reaction: the seed installed a QoS rule for port 1
	// without any centralized round trip.
	fmt.Println("\nTCAM rules installed by the seed on leaf0:")
	for _, r := range fab.Switch(leaf0).TCAM().Rules() {
		fmt.Printf("  prio=%d %s action=%s (by %s)\n", r.Priority, r.Filter, r.Action, r.Note)
	}
	h, _ := sd.Harvester("hh")
	fmt.Printf("\nharvester received %d reports in 1s of simulated time\n", h.Reports())
}
